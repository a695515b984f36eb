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

void telem_harvest(double wait_ns, bool reordered) {
    if (!util::telemetry::metrics_enabled()) return;
    namespace telem = util::telemetry;
    // Time a ripe completion sat in the queue before the owner harvested
    // it — the submission-loop's reaction latency, in nanoseconds.
    static constexpr double kWaitBounds[] = {1e3, 1e4, 1e5, 1e6,
                                             1e7, 1e8, 1e9};
    static auto& wait = telem::Registry::instance().histogram(
        "cichar_ate_async_queue_wait_ns", kWaitBounds);
    static auto& reorders = telem::Registry::instance().counter(
        "cichar_ate_async_completions_reordered_total");
    wait.observe(std::max(0.0, wait_ns));
    if (reordered) reorders.add();
}

/// One bounded poll-spin: ~tens of microseconds. Completions at zero
/// emulated latency arrive microseconds apart, so spinning through the
/// gap is far cheaper than a futex sleep/wake round trip per probe —
/// except on a single-CPU machine, where the spin would steal the core
/// the worker needs to finish the eval; there we park immediately.
int spin_iterations() {
    static const int iterations =
        std::thread::hardware_concurrency() > 1 ? 20000 : 0;
    return iterations;
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
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

AsyncTester::AsyncTester(AsyncTesterOptions options, util::ThreadPool* pool)
    : options_(options), pool_(pool) {
    if (options_.queue_depth == 0) options_.queue_depth = 1;
    if (options_.guaranteed_depth == 0) options_.guaranteed_depth = 1;
}

AsyncTester::~AsyncTester() { quiesce(); }

void AsyncTester::quiesce() {
    std::size_t give_back = 0;
    {
        std::unique_lock lock(mutex_);
        owner_waiting_ = true;
        ripe_cv_.wait(lock, [&] {
            return std::all_of(ring_.begin(), ring_.end(),
                               [](const auto& r) { return r->eval_done; });
        });
        owner_waiting_ = false;
        for (const auto& r : ring_) {
            if (r->credited) ++give_back;
        }
        give_back += cached_credits_ + reserved_credits_;
        cached_credits_ = 0;
        reserved_credits_ = 0;
        floor_used_ = 0;
        ring_.clear();
    }
    if (options_.shared_credits != nullptr) {
        options_.shared_credits->release(give_back);
    }
}

std::shared_ptr<AsyncTester::Request> AsyncTester::admit(
    std::uint64_t id, bool is_functional, double modeled_seconds,
    CompletionFn on_complete) {
    std::shared_ptr<Request> req;
    if (!free_list_.empty()) {
        req = std::move(free_list_.back());
        free_list_.pop_back();
    } else {
        req = std::make_shared<Request>();
    }
    req->id = id;
    req->is_functional = is_functional;
    req->on_complete = std::move(on_complete);
    req->eval_done = false;
    req->pass = false;
    req->functional = {};
    req->error = nullptr;
    const double inflight = options_.latency.inflight_seconds(modeled_seconds);
    // Zero emulated latency: ripe as soon as evaluated, no clock read.
    req->deadline = inflight > 0.0
                        ? Clock::now() +
                              std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(inflight))
                        : Clock::time_point::min();
    {
        std::lock_guard lock(mutex_);
        if (ring_.size() >= options_.queue_depth) {
            free_list_.push_back(std::move(req));
            return nullptr;
        }
        // Shared-budget admission: the floor is always ours; beyond it,
        // consume a credit already in hand (cached by can_submit, or
        // reserved by the harvest that is re-running this request's
        // chain) before competing for a fresh one.
        req->credited = false;
        if (options_.shared_credits != nullptr &&
            floor_used_ >= options_.guaranteed_depth) {
            if (cached_credits_ > 0) {
                --cached_credits_;
            } else if (reserved_credits_ > 0) {
                --reserved_credits_;
            } else if (!options_.shared_credits->try_acquire()) {
                free_list_.push_back(std::move(req));
                return nullptr;
            }
            req->credited = true;
        } else if (options_.shared_credits != nullptr) {
            ++floor_used_;
        }
        req->seq = next_seq_++;
        ring_.push_back(req);
        ++stats_.submitted;
        telem_inflight(ring_.size());
    }
    return req;
}

void AsyncTester::finish_eval(Request& req) {
    bool wake;
    {
        std::lock_guard lock(mutex_);
        req.eval_done = true;
        if (util::telemetry::metrics_enabled()) {
            req.eval_done_at = Clock::now();
        }
        wake = owner_waiting_;
    }
    done_events_.fetch_add(1, std::memory_order_release);
    if (wake) ripe_cv_.notify_all();
}

bool AsyncTester::dispatch_to_pool() const noexcept {
    // Per-probe pool dispatch only pays off when evaluations can truly
    // run concurrently: with one pool worker — or one physical CPU —
    // it adds two context switches per probe and overlaps nothing, so
    // run the eval inline. The emulated tester latency is carried by
    // completion deadlines either way (inline evals never sleep it),
    // and the completion still flows through harvest, so ordering
    // semantics are identical.
    static const bool multi_cpu = std::thread::hardware_concurrency() > 1;
    return pool_ != nullptr && pool_->thread_count() > 1 && multi_cpu;
}

bool AsyncTester::submit(std::uint64_t id, Tester& tester,
                         const testgen::Test& test, const Parameter& parameter,
                         double setting, CompletionFn on_complete) {
    const double modeled = options_.latency.modeled_seconds(
        static_cast<std::uint64_t>(test.pattern.size()),
        test.conditions.clock_period_ns);
    const std::shared_ptr<Request> req =
        admit(id, /*is_functional=*/false, modeled, std::move(on_complete));
    if (!req) return false;
    if (dispatch_to_pool()) {
        pool_->submit([this, req, tester = &tester, test = &test,
                       parameter = &parameter, setting] {
            try {
                req->pass = tester->apply(*test, *parameter, setting);
            } catch (...) {
                req->error = std::current_exception();
            }
            finish_eval(*req);
        });
    } else {
        try {
            req->pass = tester.apply(test, parameter, setting);
        } catch (...) {
            req->error = std::current_exception();
        }
        finish_eval(*req);
    }
    return true;
}

bool AsyncTester::submit_functional(std::uint64_t id, Tester& tester,
                                    const testgen::Test& test,
                                    CompletionFn on_complete) {
    const double modeled = options_.latency.modeled_seconds(
        static_cast<std::uint64_t>(test.pattern.size()),
        test.conditions.clock_period_ns);
    const std::shared_ptr<Request> req =
        admit(id, /*is_functional=*/true, modeled, std::move(on_complete));
    if (!req) return false;
    if (dispatch_to_pool()) {
        pool_->submit([this, req, tester = &tester, test = &test] {
            try {
                req->functional = tester->run_functional(*test);
            } catch (...) {
                req->error = std::current_exception();
            }
            finish_eval(*req);
        });
    } else {
        try {
            req->functional = tester.run_functional(test);
        } catch (...) {
            req->error = std::current_exception();
        }
        finish_eval(*req);
    }
    return true;
}

std::size_t AsyncTester::harvest(bool block) {
    // Owner-thread scratch, reused across harvests. A completion callback
    // may submit, but never poll/wait (harvest is not reentrant).
    std::vector<std::shared_ptr<Request>>& ripe = ripe_scratch_;
    std::vector<unsigned char>& reordered = reorder_scratch_;
    ripe.clear();
    reordered.clear();
    std::size_t give_back = 0;
    {
        std::unique_lock lock(mutex_);
        // About to (possibly) park: stop hoarding credits can_submit
        // speculatively acquired — a sibling ring can use them now.
        if (block) {
            give_back += cached_credits_;
            cached_credits_ = 0;
        }
        for (;;) {
            const auto now = Clock::now();
            // The ring is scanned front-to-back, so among the ripe set
            // completions are delivered in submission order.
            for (auto it = ring_.begin(); it != ring_.end();) {
                if ((*it)->eval_done && (*it)->deadline <= now) {
                    // A credited request's capacity moves to the reserved
                    // pot (not back to the shared pool) until this
                    // harvest's callbacks are done — 1:1 resubmissions
                    // must never race siblings for it.
                    if ((*it)->credited) {
                        (*it)->credited = false;
                        ++reserved_credits_;
                    } else if (options_.shared_credits != nullptr) {
                        --floor_used_;
                    }
                    ripe.push_back(std::move(*it));
                    it = ring_.erase(it);
                } else {
                    ++it;
                }
            }
            if (!ripe.empty() || !block || ring_.empty()) break;
            bool any_done = false;
            auto earliest = Clock::time_point::max();
            for (const auto& r : ring_) {
                if (r->eval_done) {
                    any_done = true;
                    earliest = std::min(earliest, r->deadline);
                }
            }
            // An evaluated request ripens at its deadline; an unevaluated
            // one will announce itself when its worker finishes.
            if (any_done) {
                tighten_timer_slack();
                owner_waiting_ = true;
                ripe_cv_.wait_until(lock, earliest);
                owner_waiting_ = false;
            } else {
                // Poll-mode first: spin through the microsecond gap to the
                // next completion; park in the condition variable only when
                // the spin budget runs out (workers skip the notify unless
                // we are actually parked).
                const std::uint64_t seen =
                    done_events_.load(std::memory_order_acquire);
                lock.unlock();
                bool progressed = false;
                for (int i = 0, n = spin_iterations(); i < n; ++i) {
                    if (done_events_.load(std::memory_order_acquire) != seen) {
                        progressed = true;
                        break;
                    }
                    cpu_relax();
                }
                lock.lock();
                if (!progressed) {
                    owner_waiting_ = true;
                    ripe_cv_.wait(lock, [&] {
                        return done_events_.load(std::memory_order_acquire) !=
                               seen;
                    });
                    owner_waiting_ = false;
                }
            }
        }
        const auto harvested_at = Clock::now();
        stats_.completed += ripe.size();
        reordered.reserve(ripe.size());
        for (const auto& r : ripe) {
            const bool out_of_order =
                static_cast<std::int64_t>(r->seq) < max_harvested_seq_;
            if (out_of_order) {
                ++stats_.reordered;
            } else {
                max_harvested_seq_ = static_cast<std::int64_t>(r->seq);
            }
            reordered.push_back(out_of_order ? 1 : 0);
            const auto ready_at = std::max(r->eval_done_at, r->deadline);
            telem_harvest(static_cast<double>(
                              std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  harvested_at - ready_at)
                                  .count()),
                          out_of_order);
        }
        telem_inflight(ring_.size());
    }
    const std::size_t count = ripe.size();
    // Callbacks run unlocked so they can resubmit. A throwing callback
    // abandons the rest of this harvest batch (the run is unwinding).
    for (std::size_t i = 0; i < count; ++i) {
        Request& r = *ripe[i];
        AsyncCompletion completion;
        completion.id = r.id;
        completion.pass = r.pass;
        completion.functional = r.functional;
        completion.is_functional = r.is_functional;
        completion.error = r.error;
        r.on_complete(completion);
    }
    // Recycle requests nobody else still references (a pool worker may
    // hold its copy a beat longer; those are simply freed by the last
    // release instead).
    for (auto& r : ripe) {
        if (r && r.use_count() == 1) {
            r->on_complete = nullptr;
            r->error = nullptr;
            free_list_.push_back(std::move(r));
        }
    }
    ripe.clear();
    if (options_.shared_credits != nullptr) {
        // Callbacks have run (and consumed whatever reserved capacity
        // their resubmissions needed); donate the surplus back, plus any
        // speculative credits if the ring has gone idle.
        std::lock_guard lock(mutex_);
        give_back += reserved_credits_;
        reserved_credits_ = 0;
        if (ring_.empty()) {
            give_back += cached_credits_;
            cached_credits_ = 0;
        }
    }
    if (give_back > 0 && options_.shared_credits != nullptr) {
        options_.shared_credits->release(give_back);
    }
    return count;
}

std::size_t AsyncTester::poll() { return harvest(/*block=*/false); }

std::size_t AsyncTester::wait() { return harvest(/*block=*/true); }

void AsyncTester::drain() {
    while (in_flight() > 0) (void)wait();
}

std::size_t AsyncTester::in_flight() const {
    std::lock_guard lock(mutex_);
    return ring_.size();
}

bool AsyncTester::can_submit() const {
    std::lock_guard lock(mutex_);
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

AsyncTester::Stats AsyncTester::stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
}

}  // namespace cichar::ate
