#include "ate/async_tester.hpp"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "util/telemetry.hpp"

namespace cichar::ate {

namespace {

void telem_inflight(std::size_t in_flight) {
    if (!util::telemetry::metrics_enabled()) return;
    static auto& gauge = util::telemetry::Registry::instance().gauge(
        "cichar_ate_async_inflight");
    gauge.set(static_cast<double>(in_flight));
}

void telem_harvest(std::chrono::steady_clock::time_point harvested_at,
                   std::chrono::steady_clock::time_point ready_at,
                   bool reordered) {
    if (!util::telemetry::metrics_enabled()) return;
    namespace telem = util::telemetry;
    // Time a ripe completion sat in the queue before the owner harvested
    // it — the submission-loop's reaction latency, in nanoseconds. A
    // request submitted while metrics were off carries no ready time.
    static constexpr double kWaitBounds[] = {1e3, 1e4, 1e5, 1e6,
                                             1e7, 1e8, 1e9};
    static auto& wait = telem::Registry::instance().histogram(
        "cichar_ate_async_queue_wait_ns", kWaitBounds);
    static auto& reorders = telem::Registry::instance().counter(
        "cichar_ate_async_completions_reordered_total");
    using Clock = std::chrono::steady_clock;
    const auto since = std::max(ready_at, Clock::time_point{});
    const auto wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(harvested_at -
                                                             since);
    wait.observe(std::max(0.0, static_cast<double>(wait_ns.count())));
    if (reordered) reorders.add();
}

/// Called once a request's result exists: the queue wait counts from
/// then. The eval ends before any harvest can run, so raising the
/// deadline to it never delays ripeness.
void mark_evaluated(std::chrono::steady_clock::time_point& deadline) {
    if (!util::telemetry::metrics_enabled()) return;
    deadline = std::max(deadline, std::chrono::steady_clock::now());
}

}  // namespace

AsyncTester::AsyncTester(AsyncTesterOptions options) : options_(options) {
    if (options_.queue_depth == 0) options_.queue_depth = 1;
}

AsyncTester::~AsyncTester() { quiesce(); }

void AsyncTester::quiesce() {
    ring_.clear();
    // Ripe requests a throwing callback left un-run.
    ripe_scratch_.clear();
}

AsyncTester::Request* AsyncTester::admit(std::uint64_t id, bool is_functional,
                                         const testgen::Test& test,
                                         CompletionFn on_complete) {
    if (!can_submit()) return nullptr;
    const double inflight = options_.latency.inflight_seconds(
        options_.latency.modeled_seconds(
            static_cast<std::uint64_t>(test.pattern.size()),
            test.conditions.clock_period_ns));
    Request& req = ring_.emplace_back();
    req.id = id;
    req.seq = next_seq_++;
    req.on_complete = std::move(on_complete);
    // Zero emulated latency: ripe as soon as submitted, no clock read.
    req.deadline = inflight > 0.0
                       ? Clock::now() +
                             std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(inflight))
                       : Clock::time_point::min();
    req.is_functional = is_functional;
    ++stats_.submitted;
    telem_inflight(ring_.size());
    return &req;
}

bool AsyncTester::submit(std::uint64_t id, Tester& tester,
                         const testgen::Test& test, const Parameter& parameter,
                         double setting, CompletionFn on_complete) {
    Request* req =
        admit(id, /*is_functional=*/false, test, std::move(on_complete));
    if (req == nullptr) return false;
    try {
        req->pass = tester.apply(test, parameter, setting);
    } catch (...) {
        req->error = std::current_exception();
    }
    mark_evaluated(req->deadline);
    return true;
}

bool AsyncTester::submit_functional(std::uint64_t id, Tester& tester,
                                    const testgen::Test& test,
                                    CompletionFn on_complete) {
    Request* req =
        admit(id, /*is_functional=*/true, test, std::move(on_complete));
    if (req == nullptr) return false;
    try {
        req->functional = tester.run_functional(test);
    } catch (...) {
        req->error = std::current_exception();
    }
    mark_evaluated(req->deadline);
    return true;
}

std::size_t AsyncTester::harvest(bool block) {
    // Scratch reused across harvests. A completion callback may submit,
    // but never poll/wait (harvest is not reentrant).
    std::vector<Request>& ripe = ripe_scratch_;
    ripe.clear();
    Clock::time_point now;
    for (;;) {
        now = Clock::now();
        auto earliest = Clock::time_point::max();
        // The ring is scanned front-to-back and compacted in place, so
        // among the ripe set completions are delivered in submission
        // order.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < ring_.size(); ++i) {
            Request& r = ring_[i];
            if (r.deadline <= now) {
                ripe.push_back(std::move(r));
            } else {
                earliest = std::min(earliest, r.deadline);
                if (kept != i) ring_[kept] = std::move(r);
                ++kept;
            }
        }
        ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(kept),
                    ring_.end());
        if (!ripe.empty() || !block || ring_.empty()) break;
        // Every request is already evaluated; the earliest deadline is
        // the next completion.
        tighten_timer_slack();
        std::this_thread::sleep_until(earliest);
    }
    stats_.completed += ripe.size();
    for (const Request& r : ripe) {
        const bool out_of_order =
            static_cast<std::int64_t>(r.seq) < max_harvested_seq_;
        if (out_of_order) {
            ++stats_.reordered;
        } else {
            max_harvested_seq_ = static_cast<std::int64_t>(r.seq);
        }
        telem_harvest(now, r.deadline, out_of_order);
    }
    telem_inflight(ring_.size());
    const std::size_t count = ripe.size();
    // A throwing callback abandons the rest of this harvest batch (the
    // run is unwinding).
    for (Request& r : ripe) {
        AsyncCompletion completion;
        completion.id = r.id;
        completion.pass = r.pass;
        completion.functional = r.functional;
        completion.is_functional = r.is_functional;
        completion.error = r.error;
        r.on_complete(completion);
    }
    ripe.clear();
    return count;
}

std::size_t AsyncTester::poll() { return harvest(/*block=*/false); }

std::size_t AsyncTester::wait() { return harvest(/*block=*/true); }

void AsyncTester::drain() {
    while (!ring_.empty()) (void)wait();
}

std::size_t AsyncTester::in_flight() const { return ring_.size(); }

bool AsyncTester::can_submit() const {
    return ring_.size() < options_.queue_depth;
}

AsyncTester::Stats AsyncTester::stats() const { return stats_; }

}  // namespace cichar::ate
