// Resumable trip-point searches. The blocking TripPointSearch::find
// loops call the oracle inline; a TripSearchTask inverts that control
// flow into an explicit state machine that *yields* the next setting to
// measure and is stepped forward by complete(pass). core::TripMeasureTask
// steps these for every engine, and the blocking find() implementations
// for SuccessiveApproximation and SearchUntilTrip are thin loops over
// the same tasks (run_search_task), so every path probes identically.
#pragma once

#include <cstdint>
#include <memory>

#include "ate/search.hpp"
#include "ate/search_until_trip.hpp"

namespace cichar::ate {

/// One trip search, suspended between measurements. Protocol:
///   while (!task.done()) { bool p = measure(task.pending_setting());
///                          task.complete(p); }
///   SearchResult r = task.take_result();
/// Every completion is recorded into the result trace exactly as the
/// blocking search would have recorded its oracle call.
class TripSearchTask {
public:
    virtual ~TripSearchTask() = default;

    [[nodiscard]] bool done() const noexcept { return done_; }

    /// The setting the search wants measured next. Valid only while
    /// !done().
    [[nodiscard]] double pending_setting() const noexcept { return request_; }

    /// Feeds the pass/fail outcome of the pending probe and advances the
    /// machine to its next request (or to done).
    void complete(bool pass) {
        result_.probe(request_, pass);
        advance(pass);
    }

    [[nodiscard]] SearchResult take_result() noexcept {
        return std::move(result_);
    }

protected:
    /// Consumes the outcome of the probe at `request_`; must either call
    /// request() with the next setting or finish().
    virtual void advance(bool pass) = 0;

    void request(double setting) noexcept { request_ = setting; }
    void finish() noexcept { done_ = true; }

    SearchResult result_;

private:
    double request_ = 0.0;
    bool done_ = false;
};

/// Drives a task to completion against a blocking oracle — the engine
/// behind the synchronous find() entry points.
[[nodiscard]] SearchResult run_search_task(TripSearchTask& task,
                                           const Oracle& oracle);

/// SuccessiveApproximation::find as a state machine (drift-sensing
/// binary search: periodic pass-bound rechecks with backoff recovery).
/// The parameter is borrowed and must outlive the task.
class SuccessiveApproximationTask final : public TripSearchTask {
public:
    SuccessiveApproximationTask(const SuccessiveApproximation::Options& options,
                                const Parameter& parameter);

private:
    void advance(bool pass) override;
    /// Top of the blocking while loop: exit checks, then either a
    /// periodic recheck or a bisection probe.
    void next_iteration();
    void issue_mid();
    void conclude();

    enum class Stage : std::uint8_t {
        kStart,          ///< probing the pass-side endpoint
        kEnd,            ///< probing the fail-side endpoint
        kRecheck,        ///< re-verifying the current pass bound
        kBackoffVerify,  ///< probing the widened pass bound after drift
        kMid,            ///< bisection probe
    };

    SuccessiveApproximation::Options options_;
    const Parameter* parameter_;
    Stage stage_ = Stage::kStart;
    double res_ = 0.0;
    double dir_ = 0.0;
    double pass_bound_ = 0.0;
    double fail_bound_ = 0.0;
};

/// SearchUntilTrip::find as a state machine (outward steps from RTP with
/// a growing search factor, then bisection refinement). The parameter is
/// borrowed and must outlive the task.
class SearchUntilTripTask final : public TripSearchTask {
public:
    SearchUntilTripTask(const SearchUntilTrip::Options& options,
                        double reference_trip_point,
                        const Parameter& parameter);

private:
    void advance(bool pass) override;
    void issue_step();
    void begin_refine();
    void issue_refine();
    void miss();
    void found();

    enum class Stage : std::uint8_t {
        kStart,   ///< probing RTP itself
        kStep,    ///< stepping outward by SF(IT)
        kRefine,  ///< bisecting the flip bracket
    };

    SearchUntilTrip::Options options_;
    const Parameter* parameter_;
    Stage stage_ = Stage::kStart;
    double res_ = 0.0;
    double start_ = 0.0;
    bool start_passes_ = false;
    double direction_ = 0.0;
    double previous_ = 0.0;
    std::size_t iteration_ = 0;
    double pass_bound_ = 0.0;
    double fail_bound_ = 0.0;
};

}  // namespace cichar::ate
