// "Search until trip point" (paper section 4, Fig. 3): the key measurement
// -speed contribution. The first test pays for a full-range search and
// yields the reference trip point RTP (eq. 2). Every subsequent test
// starts *at* RTP and steps outward with a growing search factor SF(IT)
// until the state flips (eqs. 3/4), because properly designed devices vary
// only in a narrow band around RTP — so the full characterization range CR
// never needs to be re-searched.
#pragma once

#include <memory>

#include "ate/search.hpp"

namespace cichar::ate {

/// Search-factor schedule: the offset from RTP after IT iterations.
enum class SearchFactorGrowth : std::uint8_t {
    kLinear,      ///< offset = SF * IT
    kTriangular,  ///< offset = SF * IT*(IT+1)/2 (accelerating)
};

class SearchUntilTrip final : public TripPointSearch {
public:
    struct Options {
        /// Base search factor resolution SF (parameter units per step),
        /// e.g. 1 MHz or 0.2 ns; programmable per the paper.
        double search_factor = 0.2;
        SearchFactorGrowth growth = SearchFactorGrowth::kTriangular;
        /// Refine the final bracket down to the parameter resolution with
        /// bisection (costs ~log2(SF_last/resolution) extra measurements).
        bool refine = true;
        std::size_t max_iterations = 64;
    };

    /// `reference_trip_point` is RTP from eq. (2); typically the result of
    /// a full-range SuccessiveApproximation on the first test.
    SearchUntilTrip(Options options, double reference_trip_point)
        : options_(options), rtp_(reference_trip_point) {}

    [[nodiscard]] double reference_trip_point() const noexcept { return rtp_; }
    [[nodiscard]] const Options& options() const noexcept { return options_; }

    /// Searches outward from RTP. `found == false` only when the trip
    /// point left the characterization range entirely.
    [[nodiscard]] SearchResult find(const Oracle& oracle,
                                    const Parameter& parameter) const override;

    [[nodiscard]] const char* name() const noexcept override {
        return "search-until-trip";
    }

    /// Convenience for the multi-trip flow: updates RTP to track slow
    /// drift of the population of trip points (optional; the paper keeps
    /// the first RTP, which is the default behaviour elsewhere).
    void set_reference(double rtp) noexcept { rtp_ = rtp; }

    /// Search-factor schedule: offset from RTP after `iterations` steps.
    /// Shared with the resumable SearchUntilTripTask.
    [[nodiscard]] static double offset_after(const Options& options,
                                             std::size_t iterations) noexcept;

private:
    Options options_;
    double rtp_;
};

}  // namespace cichar::ate
