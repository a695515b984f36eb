#include "core/measurement_policy.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace cichar::core {

void FaultCounters::merge(const FaultCounters& other) noexcept {
    timeouts_absorbed += other.timeouts_absorbed;
    retried_measurements += other.retried_measurements;
    abandoned_measurements += other.abandoned_measurements;
    implausible_trips += other.implausible_trips;
    confirm_rejections += other.confirm_rejections;
    researches += other.researches;
    recovered_trips += other.recovered_trips;
    unrecovered_trips += other.unrecovered_trips;
    backoff_seconds += other.backoff_seconds;
}

std::string FaultCounters::describe() const {
    if (!any()) return "clean";
    std::ostringstream out;
    const char* sep = "";
    const auto emit = [&](const char* name, std::uint64_t value) {
        if (value == 0) return;
        out << sep << name << "=" << value;
        sep = " ";
    };
    emit("timeouts", timeouts_absorbed);
    emit("retries", retried_measurements);
    emit("abandoned", abandoned_measurements);
    emit("implausible", implausible_trips);
    emit("confirm-rejects", confirm_rejections);
    emit("researches", researches);
    emit("recovered", recovered_trips);
    emit("unrecovered", unrecovered_trips);
    return out.str();
}

void FaultCounters::save(std::string& out) const {
    util::put_u64(out, timeouts_absorbed);
    util::put_u64(out, retried_measurements);
    util::put_u64(out, abandoned_measurements);
    util::put_u64(out, implausible_trips);
    util::put_u64(out, confirm_rejections);
    util::put_u64(out, researches);
    util::put_u64(out, recovered_trips);
    util::put_u64(out, unrecovered_trips);
    util::put_double(out, backoff_seconds);
}

FaultCounters FaultCounters::load(util::ByteReader& in) {
    FaultCounters counters;
    counters.timeouts_absorbed = in.get_u64();
    counters.retried_measurements = in.get_u64();
    counters.abandoned_measurements = in.get_u64();
    counters.implausible_trips = in.get_u64();
    counters.confirm_rejections = in.get_u64();
    counters.researches = in.get_u64();
    counters.recovered_trips = in.get_u64();
    counters.unrecovered_trips = in.get_u64();
    counters.backoff_seconds = in.get_double();
    return counters;
}

MeasurementPolicy::MeasurementPolicy(MeasurementPolicyOptions options)
    : options_(options), rng_(options.seed) {}

bool MeasurementPolicy::plausible(const ate::SearchResult& result,
                                  const ate::Parameter& parameter) const {
    if (!result.found || std::isnan(result.trip_point)) return false;
    const double lo = std::min(parameter.search_start, parameter.search_end);
    const double hi = std::max(parameter.search_start, parameter.search_end);
    const double slack = parameter.characterization_range() *
                         options_.plausibility_margin_fraction;
    if (result.trip_point < lo - slack || result.trip_point > hi + slack) {
        return false;
    }
    // Eq. 3/4 window-consistency: every probe well clear of the trip point
    // must agree with the pass/fail orientation. A contradiction means a
    // faulted reading steered the search.
    const double margin = confirm_margin(parameter);
    const double toward_fail = parameter.toward_fail();
    for (const ate::SearchPoint& probe : result.trace) {
        const double offset = (probe.setting - result.trip_point) * toward_fail;
        if (offset <= -margin && !probe.pass) return false;  // deep pass side
        if (offset >= margin && probe.pass) return false;    // deep fail side
    }
    return true;
}

void MeasurementPolicy::save(std::string& out) const {
    util::put_rng(out, rng_);
    util::put_u64(out, consecutive_failures_);
    counters_.save(out);
}

void MeasurementPolicy::load(util::ByteReader& in) {
    rng_ = in.get_rng();
    consecutive_failures_ = in.get_u64();
    counters_ = FaultCounters::load(in);
}

}  // namespace cichar::core
