// Measurement resilience policy (the "fault-tolerance boundary" of the
// characterization flow). Every trip-point number that enters the DSV,
// the trip cache, or a training set is measured under it: timeouts are
// retried with deterministic exponential backoff, finished searches are
// screened for plausibility against the eq. 3/4 window semantics
// (trip inside CR, internally consistent search trace), suspect trips
// are confirmed by majority-of-K re-measurement, and a site that keeps
// failing is quarantined so a lot degrades gracefully instead of
// publishing garbage. The policy holds the knobs, counters and jitter
// stream; core::TripMeasureTask (multi_trip.hpp) runs its steps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "ate/fault_injector.hpp"
#include "ate/parameter.hpp"
#include "ate/search.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace cichar::core {

/// Knobs of the resilience policy. Disabled by default: the policy is a
/// strict pass-through then, and measurement streams are byte-identical
/// to a build without it.
struct MeasurementPolicyOptions {
    bool enabled = false;
    /// Timeout retries per reading before the attempt is abandoned.
    std::size_t timeout_retries = 4;
    /// Backoff schedule: delay_i = base * factor^i * (1 + jitter * U[0,1)).
    /// Delays are *accounted* (deterministic simulated seconds), never
    /// slept — the ledger is the tester model, not the wall clock.
    double backoff_base_seconds = 0.25;
    double backoff_factor = 2.0;
    double backoff_jitter = 0.25;
    /// Full search attempts per test before the trip is declared
    /// unrecoverable.
    std::size_t search_attempts = 4;
    /// Majority-of-K confirmation votes per screening point (odd).
    std::size_t confirm_votes = 3;
    /// Confirmation/consistency distance from the candidate trip, in
    /// parameter resolution steps. Far enough that device repeatability
    /// noise is ~never flipped there, close enough to bound the error of
    /// an accepted trip.
    double confirm_margin_resolutions = 3.0;
    /// Slack beyond [S1, S2] (as a fraction of CR) before a trip point is
    /// implausible.
    double plausibility_margin_fraction = 0.02;
    /// Consecutive unrecoverable tests before the site is quarantined;
    /// 0 disables quarantine (single-site hunts prefer degrading).
    std::size_t quarantine_after = 0;
    /// Seed of the policy's own jitter/vote-order stream.
    std::uint64_t seed = 0xBACC0FFULL;

    [[nodiscard]] bool operator==(const MeasurementPolicyOptions&) const =
        default;
};

/// What the policy did, for reports.
struct FaultCounters {
    std::uint64_t timeouts_absorbed = 0;    ///< timeouts retried successfully
    std::uint64_t retried_measurements = 0; ///< individual retry attempts
    std::uint64_t abandoned_measurements = 0;  ///< retry budget exhausted
    std::uint64_t implausible_trips = 0;    ///< screened out (range/trace)
    std::uint64_t confirm_rejections = 0;   ///< failed majority-of-K
    std::uint64_t researches = 0;           ///< extra full searches run
    std::uint64_t recovered_trips = 0;      ///< accepted after intervention
    std::uint64_t unrecovered_trips = 0;    ///< abandoned tests
    double backoff_seconds = 0.0;           ///< accounted backoff delay

    [[nodiscard]] bool operator==(const FaultCounters&) const = default;

    [[nodiscard]] std::uint64_t interventions() const noexcept {
        return timeouts_absorbed + implausible_trips + confirm_rejections +
               researches;
    }
    [[nodiscard]] bool any() const noexcept {
        return interventions() + abandoned_measurements + unrecovered_trips >
               0;
    }
    void merge(const FaultCounters& other) noexcept;
    /// Compact single-line summary ("timeouts=3 researches=2 ..."); "clean"
    /// when nothing happened.
    [[nodiscard]] std::string describe() const;

    /// Checkpoint serialization (hunt and lot resume blobs).
    void save(std::string& out) const;
    [[nodiscard]] static FaultCounters load(util::ByteReader& in);
};

/// Thrown when a site crosses the consecutive-failure quarantine limit.
/// LotRunner catches it and completes the lot on the surviving sites.
class SiteQuarantinedError : public std::runtime_error {
public:
    explicit SiteQuarantinedError(const std::string& what)
        : std::runtime_error(what) {}
};

/// The policy itself. Stateful (jitter stream, counters, consecutive
/// failure count) — one instance per measurement session/site.
class MeasurementPolicy {
public:
    MeasurementPolicy() : MeasurementPolicy(MeasurementPolicyOptions{}) {}
    explicit MeasurementPolicy(MeasurementPolicyOptions options);

    [[nodiscard]] bool enabled() const noexcept { return options_.enabled; }
    [[nodiscard]] const MeasurementPolicyOptions& options() const noexcept {
        return options_;
    }
    [[nodiscard]] const FaultCounters& counters() const noexcept {
        return counters_;
    }

    /// Pure eq. 3/4 screen of a finished search: a found trip inside CR
    /// (plus the plausibility slack) whose every probe well clear of the
    /// trip agrees with the pass/fail orientation.
    [[nodiscard]] bool plausible(const ate::SearchResult& result,
                                 const ate::Parameter& parameter) const;
    /// Distance from a candidate trip beyond which a reading must agree
    /// with the pass/fail orientation (screen and confirmation probes).
    [[nodiscard]] double confirm_margin(const ate::Parameter& parameter) const {
        return std::max(parameter.resolution, 1e-12) *
               options_.confirm_margin_resolutions;
    }

    /// Checkpoint serialization of the dynamic state (jitter stream,
    /// counters, consecutive failures). Options are configuration.
    void save(std::string& out) const;
    void load(util::ByteReader& in);

private:
    /// Runs the policy's steps on this state and counts them.
    friend class TripMeasureTask;

    MeasurementPolicyOptions options_;
    util::Rng rng_;
    FaultCounters counters_;
    std::uint64_t consecutive_failures_ = 0;
};

}  // namespace cichar::core
