#include "core/multi_trip.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/telemetry.hpp"

namespace cichar::core {

namespace {

// Counts one policy step. The per-session counters stay authoritative
// (checkpoints, reports); the process-wide registry mirrors them.
void count(std::uint64_t& counter, const char* metric) {
    ++counter;
    if (!util::telemetry::metrics_enabled()) return;
    util::telemetry::Registry::instance().counter(metric).add();
}

}  // namespace

TripSession::TripSession(ate::Tester& tester, ate::Parameter parameter,
                         MultiTripOptions options)
    : tester_(&tester),
      parameter_(std::move(parameter)),
      options_(options),
      policy_(options.policy) {}

double TripSession::reference_trip_point() const {
    if (!rtp_.has_value()) {
        throw std::logic_error("TripSession: no reference trip point yet");
    }
    return *rtp_;
}

TripMeasureTask::TripMeasureTask(TripSession& session,
                                 const testgen::Test& test,
                                 std::optional<double> anchor)
    : session_(&session), policy_(&session.policy_), anchor_(anchor) {
    record_.test_name = test.name;
    search(/*window=*/session.has_reference());
}

double TripMeasureTask::pending_setting() const noexcept {
    return stage_ == Stage::kSearch ? search_->pending_setting()
                                    : vote_setting_;
}

void TripMeasureTask::complete(bool pass) {
    timeouts_ = 0;
    if (stage_ != Stage::kSearch) {
        voted(pass);
        return;
    }
    search_->complete(pass);
    if (search_->done()) searched();
}

void TripMeasureTask::complete_timeout() {
    const MeasurementPolicyOptions& options = policy_->options_;
    if (!options.enabled) throw ate::MeasurementTimeout();
    FaultCounters& counters = policy_->counters_;
    if (timeouts_ < options.timeout_retries) {
        // Read it again after a deterministic exponential backoff, which
        // is accounted, never slept.
        count(counters.retried_measurements, "cichar_policy_retries_total");
        count(counters.timeouts_absorbed,
              "cichar_policy_timeouts_absorbed_total");
        const double delay =
            options.backoff_base_seconds *
            std::pow(options.backoff_factor, static_cast<double>(timeouts_++)) *
            (1.0 + options.backoff_jitter * policy_->rng_.uniform());
        counters.backoff_seconds += delay;
        if (util::telemetry::metrics_enabled()) {
            static auto& backoff = util::telemetry::Registry::instance().gauge(
                "cichar_policy_backoff_seconds_total");
            backoff.add(delay);
        }
        return;
    }
    // Abandoned: the search attempt is lost with it; a vote abstains.
    count(counters.abandoned_measurements, "cichar_policy_abandoned_total");
    timeouts_ = 0;
    if (stage_ == Stage::kSearch) {
        retry();
    } else {
        voted(std::nullopt);
    }
}

// Eq. (2): the first test searches the full generous range and its trip
// point becomes the RTP; later tests search the window around their
// anchor, or around the RTP when they have none.
void TripMeasureTask::search(bool window) {
    stage_ = Stage::kSearch;
    window_ = window;
    if (window) {
        search_ = std::make_unique<ate::SearchUntilTripTask>(
            session_->options_.follow, anchor_.value_or(*session_->rtp_),
            session_->parameter_);
    } else {
        search_ = std::make_unique<ate::SuccessiveApproximationTask>(
            session_->options_.initial, session_->parameter_);
    }
}

void TripMeasureTask::searched() {
    ate::SearchResult result = search_->take_result();
    if (window_ && !result.found && session_->options_.full_search_on_miss) {
        // Unexpected drift out of the follower window: pay for one
        // full-range search (the paper's flexibility-to-detect-drift
        // property) and keep the original RTP for the remaining tests.
        // The window's probes stay on the bill.
        window_measurements_ = result.measurements;
        search(/*window=*/false);
        return;
    }
    result.measurements += std::exchange(window_measurements_, 0);
    const ate::Parameter& parameter = session_->parameter_;
    if (!policy_->enabled()) {
        finish(result);
    } else if (!policy_->plausible(result, parameter)) {
        count(policy_->counters_.implausible_trips,
              "cichar_policy_implausible_total");
        retry();
    } else {
        // Majority-of-K confirmation, just inside the candidate trip and
        // then just beyond it.
        candidate_ = std::move(result);
        stage_ = Stage::kVotePass;
        vote_setting_ = parameter.clamp(candidate_.trip_point -
                                        parameter.toward_fail() *
                                            policy_->confirm_margin(parameter));
        tally_ = {};
    }
}

// A side stops voting once its majority is decided; an abandoned reading
// abstains, and a majority of the votes cast must agree (a tie, or no
// vote cast, rejects).
void TripMeasureTask::voted(std::optional<bool> pass) {
    const std::size_t votes =
        std::max<std::size_t>(1, policy_->options_.confirm_votes);
    Tally& t = tally_;
    ++t.votes;
    if (pass == (stage_ == Stage::kVotePass)) {
        ++t.agree;
    } else if (pass.has_value()) {
        ++t.disagree;
    }
    if (t.votes < votes && t.agree * 2 <= votes && t.disagree * 2 <= votes) {
        return;  // undecided
    }
    if (t.agree <= t.disagree) {
        count(policy_->counters_.confirm_rejections,
              "cichar_policy_confirm_rejections_total");
        retry();
        return;
    }
    const ate::Parameter& parameter = session_->parameter_;
    const double margin = policy_->confirm_margin(parameter);
    const double trip = candidate_.trip_point;
    const double fail_probe =
        parameter.clamp(trip + parameter.toward_fail() * margin);
    // The fail-side probe may be clamped onto the trip itself when the
    // trip sits at the range edge; skip that vote then.
    if (stage_ == Stage::kVotePass &&
        (fail_probe - trip) * parameter.toward_fail() > 0.5 * margin) {
        stage_ = Stage::kVoteFail;
        vote_setting_ = fail_probe;
        tally_ = {};
        return;
    }
    policy_->consecutive_failures_ = 0;
    if (attempt_ > 0) {  // a rejected or abandoned attempt came first
        count(policy_->counters_.recovered_trips,
              "cichar_policy_recovered_total");
    }
    finish(candidate_);
}

void TripMeasureTask::retry() {
    const MeasurementPolicyOptions& options = policy_->options_;
    if (++attempt_ < std::max<std::size_t>(1, options.search_attempts)) {
        count(policy_->counters_.researches, "cichar_policy_researches_total");
        search(/*window=*/session_->has_reference());
        return;
    }
    count(policy_->counters_.unrecovered_trips,
          "cichar_policy_unrecovered_total");
    const std::uint64_t failures = ++policy_->consecutive_failures_;
    if (options.quarantine_after > 0 && failures >= options.quarantine_after) {
        if (util::telemetry::metrics_enabled()) {
            util::telemetry::Registry::instance()
                .counter("cichar_policy_quarantines_total")
                .add();
        }
        throw SiteQuarantinedError(
            "site quarantined after " + std::to_string(failures) +
            " consecutive unrecoverable trip measurements (" +
            policy_->counters_.describe() + ")");
    }
    finish(ate::SearchResult{});  // unrecoverable: not found
}

void TripMeasureTask::finish(const ate::SearchResult& result) {
    const ate::Parameter& parameter = session_->parameter_;
    const bool found = result.found && !std::isnan(result.trip_point);
    if (!session_->has_reference()) {
        // A degenerate (or unrecoverable) first test anchors the followers
        // at mid-range so they can still hunt outward in both directions.
        session_->rtp_ = parameter.quantize(
            found ? result.trip_point
                  : 0.5 * (parameter.search_start + parameter.search_end));
    }
    record_.found = found;
    record_.trip_point = found ? result.trip_point : 0.0;
    record_.measurements = result.measurements;
    if (found) {
        record_.wcr = worst_case_ratio(parameter, record_.trip_point);
        record_.wcr_class = ga::classify(record_.wcr);
    }
    search_.reset();
    stage_ = Stage::kDone;
}

TripMeasureTask TripSession::begin(const testgen::Test& test,
                                   std::optional<double> anchor) {
    if (options_.settle_between_tests) tester_->settle();
    return TripMeasureTask(*this, test, anchor);
}

TripPointRecord TripSession::measure(const testgen::Test& test,
                                     std::optional<double> anchor) {
    TripMeasureTask task = begin(test, anchor);
    while (!task.done()) {
        try {
            task.complete(
                tester_->apply(test, parameter_, task.pending_setting()));
        } catch (const ate::MeasurementTimeout&) {
            task.complete_timeout();
        }
    }
    return task.record();
}

DesignSpecVariation MultiTripCharacterizer::characterize(
    ate::Tester& tester, const ate::Parameter& parameter,
    std::span<const testgen::Test> tests) const {
    ate::PhaseScope phase(tester.log(), "multi-trip");
    TripSession session(tester, parameter, options_);
    DesignSpecVariation dsv;
    for (const testgen::Test& test : tests) {
        dsv.add(session.measure(test));
    }
    return dsv;
}

}  // namespace cichar::core
