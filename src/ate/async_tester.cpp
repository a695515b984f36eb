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

void telem_shared_credits(const SharedRingCredits& credits) {
    if (!util::telemetry::metrics_enabled()) return;
    static auto& in_use = util::telemetry::Registry::instance().gauge(
        "cichar_ate_shared_ring_credits_in_use");
    in_use.set(static_cast<double>(credits.capacity() - credits.available()));
}

}  // namespace

bool SharedRingCredits::try_acquire() noexcept {
    std::size_t current = available_.load(std::memory_order_relaxed);
    while (current > 0) {
        if (available_.compare_exchange_weak(current, current - 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
            telem_shared_credits(*this);
            return true;
        }
    }
    return false;
}

void SharedRingCredits::release(std::size_t n) noexcept {
    if (n == 0) return;
    available_.fetch_add(n, std::memory_order_release);
    telem_shared_credits(*this);
}

AsyncTester::AsyncTester(AsyncTesterOptions options) : options_(options) {
    if (options_.queue_depth == 0) options_.queue_depth = 1;
    if (options_.guaranteed_depth == 0) options_.guaranteed_depth = 1;
}

AsyncTester::~AsyncTester() { quiesce(); }

void AsyncTester::quiesce() {
    std::size_t give_back = cached_credits_ + reserved_credits_;
    for (const Request& r : ring_) {
        if (r.credited) ++give_back;
    }
    cached_credits_ = 0;
    reserved_credits_ = 0;
    floor_used_ = 0;
    ring_.clear();
    // Ripe requests a throwing callback left un-run.
    ripe_scratch_.clear();
    if (options_.shared_credits != nullptr) {
        options_.shared_credits->release(give_back);
    }
}

AsyncTester::Request* AsyncTester::admit(std::uint64_t id, bool is_functional,
                                         const testgen::Test& test,
                                         CompletionFn on_complete) {
    if (ring_.size() >= options_.queue_depth) return nullptr;
    // Shared-budget admission: the floor is always ours; beyond it,
    // consume a credit already in hand (cached by can_submit, or reserved
    // by the harvest that is re-running this request's chain) before
    // competing for a fresh one.
    bool credited = false;
    if (options_.shared_credits != nullptr) {
        if (floor_used_ < options_.guaranteed_depth) {
            ++floor_used_;
        } else if (cached_credits_ > 0) {
            --cached_credits_;
            credited = true;
        } else if (reserved_credits_ > 0) {
            --reserved_credits_;
            credited = true;
        } else if (options_.shared_credits->try_acquire()) {
            credited = true;
        } else {
            return nullptr;
        }
    }
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
    req.credited = credited;
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
    SharedRingCredits* const shared = options_.shared_credits;
    // About to (possibly) sleep: stop hoarding credits can_submit
    // speculatively acquired — a sibling ring can use them now.
    if (block && shared != nullptr) {
        shared->release(cached_credits_);
        cached_credits_ = 0;
    }
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
                // A credited request's capacity moves to the reserved pot
                // (not back to the shared pool) until this harvest's
                // callbacks are done — 1:1 resubmissions must never race
                // siblings for it.
                if (r.credited) {
                    ++reserved_credits_;
                } else if (shared != nullptr) {
                    --floor_used_;
                }
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
    if (shared != nullptr) {
        // Callbacks have run (and consumed whatever reserved capacity
        // their resubmissions needed); donate the surplus back, plus any
        // speculative credits if the ring has gone idle.
        std::size_t give_back = reserved_credits_;
        reserved_credits_ = 0;
        if (ring_.empty()) {
            give_back += cached_credits_;
            cached_credits_ = 0;
        }
        shared->release(give_back);
    }
    return count;
}

std::size_t AsyncTester::poll() { return harvest(/*block=*/false); }

std::size_t AsyncTester::wait() { return harvest(/*block=*/true); }

void AsyncTester::drain() {
    while (!ring_.empty()) (void)wait();
}

std::size_t AsyncTester::in_flight() const { return ring_.size(); }

bool AsyncTester::can_submit() const {
    if (ring_.size() >= options_.queue_depth) return false;
    if (options_.shared_credits == nullptr) return true;
    if (floor_used_ < options_.guaranteed_depth) return true;
    if (cached_credits_ + reserved_credits_ > 0) return true;
    // Speculatively acquire and cache one credit so the can_submit ->
    // submit window cannot be raced by a sibling ring (the optimizer
    // treats a failed submit after a positive can_submit as a logic
    // error). The cache is returned when the ring blocks or goes idle.
    if (options_.shared_credits->try_acquire()) {
        ++cached_credits_;
        return true;
    }
    return false;
}

AsyncTester::Stats AsyncTester::stats() const { return stats_; }

}  // namespace cichar::ate
