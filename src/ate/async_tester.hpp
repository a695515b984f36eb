// Asynchronous queue-pair layer over Tester, in the style of an SPDK
// submission-ring/completion-queue: the caller submits measurement
// requests (bounded ring, one callback each), keeps doing CPU work —
// decoding chromosomes, consulting caches, scoring — and harvests
// completions when they ripen. Under emulated hardware latency
// (TesterOptions::realtime_fraction) a request is *ripe* at
//
//     submit time + LatencyModel deadline
//
// so the modeled tester I/O elapses concurrently with everything else
// instead of being slept inline by each search. Completions may ripen
// out of submission order; the caller owns ordering (the optimizer
// reduces in submission order regardless of harvest order, which is what
// keeps async results byte-identical to Tester::apply stepped inline).
//
// Threading contract: every call is made from ONE owner thread, and the
// ring has no lock. A measurement is evaluated inline on the owner
// thread at submit time — a device probe costs a fraction of a
// microsecond, far less than handing it to another thread — and its
// result waits in the ring until the deadline ripens it. Completion
// callbacks run on the owner thread, inside poll()/wait(), and may
// themselves submit follow-up requests — a harvested completion has
// already freed its ring slot, so a 1:1 resubmission never overflows the
// ring.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "ate/latency_model.hpp"
#include "ate/tester.hpp"

namespace cichar::ate {

struct AsyncTesterOptions {
    /// Submission-ring capacity: the maximum number of requests in flight.
    std::size_t queue_depth = 16;
    /// Deadline source for the emulated tester latency — build it from the
    /// *original* TesterOptions. The testers driven through the queue
    /// should be constructed with `replica_options()` (emulation stripped)
    /// so a submit never sleeps the latency a deadline already models.
    LatencyModel latency{};
};

/// One harvested completion, handed to the request's callback.
struct AsyncCompletion {
    std::uint64_t id = 0;
    bool pass = false;  ///< parametric requests
    device::FunctionalResult functional{};
    bool is_functional = false;
    /// Exception thrown by the measurement, if any; the callback decides
    /// whether to rethrow.
    std::exception_ptr error;
};

class AsyncTester {
public:
    using CompletionFn = std::function<void(const AsyncCompletion&)>;

    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        /// Completions harvested after a later-submitted request.
        std::uint64_t reordered = 0;
    };

    explicit AsyncTester(AsyncTesterOptions options);

    /// Drops pending callbacks un-invoked.
    ~AsyncTester();

    AsyncTester(const AsyncTester&) = delete;
    AsyncTester& operator=(const AsyncTester&) = delete;

    /// TesterOptions for replicas measured through this queue: identical
    /// timing model (ledger unchanged) with the inline latency emulation
    /// stripped — the queue's completion deadlines carry it instead.
    [[nodiscard]] static TesterOptions replica_options(TesterOptions options) {
        options.realtime_fraction = 0.0;
        return options;
    }

    /// Submits one parametric measurement (Tester::apply), evaluated
    /// before this returns, so `tester`, `test` and `parameter` are used
    /// only during the call. An exception from the measurement never
    /// escapes; it arrives as AsyncCompletion::error at harvest. Returns
    /// false (nothing measured) when the ring is full — harvest first.
    [[nodiscard]] bool submit(std::uint64_t id, Tester& tester,
                              const testgen::Test& test,
                              const Parameter& parameter, double setting,
                              CompletionFn on_complete);

    /// Submits one functional run (Tester::run_functional).
    [[nodiscard]] bool submit_functional(std::uint64_t id, Tester& tester,
                                         const testgen::Test& test,
                                         CompletionFn on_complete);

    /// Harvests every ripe completion (callbacks run on this thread, in
    /// submission order among the ripe set). Returns the harvest count.
    std::size_t poll();

    /// Sleeps until the earliest deadline ripens, then harvests like
    /// poll(). Returns immediately (0) when nothing is in flight.
    std::size_t wait();

    /// Harvests until the ring is empty.
    void drain();

    /// Abandons the ring at once: drops pending callbacks un-invoked,
    /// ripe or not. For unwinding after a completion callback threw; a
    /// drained queue quiesces as a no-op.
    void quiesce();

    [[nodiscard]] std::size_t in_flight() const;
    [[nodiscard]] bool can_submit() const;
    [[nodiscard]] Stats stats() const;
    [[nodiscard]] const AsyncTesterOptions& options() const noexcept {
        return options_;
    }

private:
    using Clock = std::chrono::steady_clock;

    struct Request {
        std::uint64_t id = 0;
        std::uint64_t seq = 0;
        CompletionFn on_complete;
        /// Submit time + emulated latency (min() when there is none),
        /// raised to the eval's end while metrics are on.
        Clock::time_point deadline{};
        bool is_functional = false;
        bool pass = false;
        device::FunctionalResult functional{};
        std::exception_ptr error;
    };

    /// Reserves a ring slot and fills in the request's identity and
    /// deadline, or returns nullptr when the ring is full. The caller
    /// evaluates into the returned request, which stays valid until the
    /// next admit or harvest.
    [[nodiscard]] Request* admit(std::uint64_t id, bool is_functional,
                                 const testgen::Test& test,
                                 CompletionFn on_complete);
    std::size_t harvest(bool block);

    AsyncTesterOptions options_;
    /// In-flight requests in submission order, by value.
    std::vector<Request> ring_;
    /// Harvest scratch, reused across harvests.
    std::vector<Request> ripe_scratch_;
    std::uint64_t next_seq_ = 0;
    std::int64_t max_harvested_seq_ = -1;
    Stats stats_;
};

}  // namespace cichar::ate
