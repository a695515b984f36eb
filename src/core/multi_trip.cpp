#include "core/multi_trip.hpp"

#include <cmath>
#include <stdexcept>

namespace cichar::core {

TripSession::TripSession(ate::Tester& tester, ate::Parameter parameter,
                         MultiTripOptions options)
    : tester_(&tester),
      parameter_(std::move(parameter)),
      options_(options),
      policy_(options.policy) {}

double TripSession::reference_trip_point() const {
    if (!follower_.has_value()) {
        throw std::logic_error("TripSession: no reference trip point yet");
    }
    return follower_->reference_trip_point();
}

TripPointRecord TripSession::to_record(const testgen::Test& test,
                                       const ate::SearchResult& result) const {
    TripPointRecord record;
    record.test_name = test.name;
    record.found = result.found && !std::isnan(result.trip_point);
    record.trip_point = record.found ? result.trip_point : 0.0;
    record.measurements = result.measurements;
    if (record.found) {
        record.wcr = worst_case_ratio(parameter_, record.trip_point);
        record.wcr_class = ga::classify(record.wcr);
    }
    return record;
}

TripPointRecord TripSession::measure(const testgen::Test& test) {
    if (options_.settle_between_tests) tester_->settle();
    // A disabled policy's guard and screen pass straight through.
    const ate::Oracle oracle = policy_.guard(tester_->oracle(test, parameter_));

    if (!follower_.has_value()) {
        // Eq. (2): the first test runs the full generous range and its
        // trip point becomes the RTP.
        const ate::SuccessiveApproximation initial(options_.initial);
        const ate::SearchResult first = policy_.screen(
            [&] { return initial.find(oracle, parameter_); }, oracle,
            parameter_);
        // A degenerate (or unrecoverable) first test anchors the followers
        // at mid-range so they can still hunt outward in both directions.
        double rtp = first.trip_point;
        if (!first.found || std::isnan(rtp)) {
            rtp = 0.5 * (parameter_.search_start + parameter_.search_end);
        }
        follower_.emplace(options_.follow, parameter_.quantize(rtp));
        return to_record(test, first);
    }

    const auto follow_attempt = [&]() {
        ate::SearchResult result = follower_->find(oracle, parameter_);
        if (!result.found && options_.full_search_on_miss) {
            // Unexpected drift out of the follower window: pay for one
            // full-range search (the paper's flexibility-to-detect-drift
            // property) and keep the original RTP for the remaining tests.
            const ate::SuccessiveApproximation full(options_.initial);
            ate::SearchResult retry = full.find(oracle, parameter_);
            retry.measurements += result.measurements;
            result = std::move(retry);
        }
        return result;
    };
    return to_record(test,
                     policy_.screen(follow_attempt, oracle, parameter_));
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
