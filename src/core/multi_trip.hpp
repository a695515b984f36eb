// Multiple trip point characterization (paper sections 3-4): the first
// test pays for one full-range successive-approximation search (eq. 2,
// reference trip point); every further test uses the cheap
// search-until-trip-point follower (eqs. 3/4). Produces the DSV set.
#pragma once

#include <optional>
#include <span>

#include "ate/search.hpp"
#include "ate/search_until_trip.hpp"
#include "core/dsv.hpp"
#include "core/measurement_policy.hpp"
#include "testgen/test.hpp"

namespace cichar::core {

struct MultiTripOptions {
    /// Follower (search-until-trip) configuration.
    ate::SearchUntilTrip::Options follow{};
    /// Initial full-range search configuration.
    ate::SuccessiveApproximation::Options initial{};
    /// Cool the device between tests (heat resets between DUT insertions).
    bool settle_between_tests = true;
    /// When a follower loses the trip point (drifted out of its window),
    /// fall back to a full-range search for that test.
    bool full_search_on_miss = true;
    /// Resilience policy (disabled by default: measurement streams are
    /// byte-identical to builds that predate the policy).
    MeasurementPolicyOptions policy{};
};

/// Stateful measurement session: holds the RTP across tests so callers
/// (e.g. a GA fitness function) can measure one test at a time.
class TripSession {
public:
    TripSession(ate::Tester& tester, ate::Parameter parameter,
                MultiTripOptions options);

    /// Measures one test's trip point. The first call runs the full-range
    /// search and establishes the RTP.
    [[nodiscard]] TripPointRecord measure(const testgen::Test& test);

    [[nodiscard]] bool has_reference() const noexcept {
        return follower_.has_value();
    }
    /// RTP (eq. 2); requires has_reference().
    [[nodiscard]] double reference_trip_point() const;

    [[nodiscard]] ate::Tester& tester() noexcept { return *tester_; }
    [[nodiscard]] const ate::Parameter& parameter() const noexcept {
        return parameter_;
    }

    /// The session's resilience policy (counters, checkpoint state).
    [[nodiscard]] MeasurementPolicy& policy() noexcept { return policy_; }
    [[nodiscard]] const MeasurementPolicy& policy() const noexcept {
        return policy_;
    }

    /// Re-establishes the RTP from a checkpoint without re-running the
    /// full-range reference search.
    void restore_reference(double rtp) {
        follower_.emplace(options_.follow, rtp);
    }

    /// The record measure() returns for `result` (a search on `test`).
    [[nodiscard]] TripPointRecord to_record(const testgen::Test& test,
                                            const ate::SearchResult& result) const;

private:
    ate::Tester* tester_;
    ate::Parameter parameter_;
    MultiTripOptions options_;
    MeasurementPolicy policy_;
    std::optional<ate::SearchUntilTrip> follower_;
};

/// Batch convenience over TripSession.
class MultiTripCharacterizer {
public:
    MultiTripCharacterizer() = default;
    explicit MultiTripCharacterizer(MultiTripOptions options)
        : options_(options) {}

    [[nodiscard]] const MultiTripOptions& options() const noexcept {
        return options_;
    }

    /// Characterizes every test, producing the DSV (eq. 1).
    [[nodiscard]] DesignSpecVariation characterize(
        ate::Tester& tester, const ate::Parameter& parameter,
        std::span<const testgen::Test> tests) const;

private:
    MultiTripOptions options_;
};

}  // namespace cichar::core
