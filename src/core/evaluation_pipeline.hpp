// The one evaluation pipeline of every ATE measurement loop: the GA
// hunt's fitness batches (paper Fig. 5) and the learning loop's random
// and acquired batches (Fig. 4). The caller decodes each slot of a batch
// on the calling thread, in submission order; the pipeline measures the
// slots through a TripSession and hands them back in submission order to
// reduce. Two engines run that contract:
//
//   - in situ (the default): the caller's own session on the live
//     tester, one slot at a time (decode, measure, reduce), so the
//     device's heat/noise history flows from one test to the next;
//   - replica ring (parallel.enabled): each slot measures on a warm
//     replica of the DUT leased from a ReplicaSlab, and its
//     TripMeasureTask rides the bounded ate::AsyncTester queue, up to
//     max(1, inflight) searches deep, on the calling thread.
//
// Replica noise, fault and policy streams are forked on the calling
// thread in submission order, and the first replica measurement — run
// alone through the ring — publishes the RTP (eq. 2) every later replica
// follows (from its slot's anchor, when decode set one), so a replica
// batch is byte-identical at any jobs x inflight combination.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ate/fault_injector.hpp"
#include "ate/tester.hpp"
#include "core/multi_trip.hpp"
#include "core/replica_slab.hpp"
#include "testgen/test.hpp"
#include "util/rng.hpp"

namespace cichar::ate {
class AsyncTester;
}  // namespace cichar::ate

namespace cichar::core {

/// Replica evaluation for the hunt's GA fitness and the learning loop's
/// measurement batches. Each measurement runs through a TripSession on a
/// replica of the DUT leased from a warm ReplicaSlab of one slot per
/// in-flight search (observably a fresh DeviceUnderTest::clone_cold),
/// with a noise stream forked per test in submission order, so results
/// are byte-identical at any jobs x inflight combination. Off by default,
/// and ignored for a DUT without clone_cold: the in-situ path runs the
/// same pipeline on the live tester, one test at a time, which keeps the
/// device's heat/noise history flowing across tests (and so differs from
/// every replica configuration).
struct HuntParallelOptions {
    bool enabled = false;
    /// Worker threads of the hunt's NN seed scoring (0 = one per
    /// hardware thread), echoed as `WorstCaseReport::jobs`. Committee
    /// training runs on `LearnerOptions::committee.jobs` instead, and
    /// replica probes always run on the calling thread.
    std::size_t jobs = 1;
    /// Trip searches kept in flight per batch (min 1) in the replica
    /// ring: decoding, cache lookups and scoring overlap pending
    /// measurements, and under `TesterOptions::realtime_fraction` the
    /// emulated tester latency is carried by completion deadlines.
    /// Completions are reduced in submission order, so reports,
    /// checkpoints and caches are byte-identical at any depth, with or
    /// without fault injection and the measurement policy (each
    /// in-flight measurement is the TripMeasureTask TripSession::measure
    /// steps).
    std::size_t inflight = 1;
};

/// One slot of a batch: decode fills `test` (and optionally `anchor`),
/// the pipeline fills the measurement, reduce reads both.
struct Evaluation {
    testgen::Test test;
    /// Where the trip search's window starts (the hunt's predicted trip
    /// point); nullopt starts it at the RTP.
    std::optional<double> anchor;
    /// Decode answered the slot itself (e.g. a trip-cache hit, with
    /// `record` set): nothing is measured.
    bool cached = false;
    TripPointRecord record;
    bool functional_ran = false;
    device::FunctionalResult functional;
};

struct PipelineOptions {
    MultiTripOptions trip{};
    HuntParallelOptions parallel{};
    /// MeasurementLog phase of replica measurements (the caller scopes
    /// the live tester's own phase).
    std::string phase;
    /// Salt of the replica noise stream forked from the caller's rng.
    std::uint64_t noise_salt = 0;
    /// Runs the test's functional pattern after a measurement whose
    /// record it accepts. Empty = never.
    std::function<bool(const TripPointRecord&)> functional_after;
};

class EvaluationPipeline {
public:
    /// Decodes slot i (calling thread, submission order). Returns false
    /// when the slot needs no measurement (its `record` already set).
    using Decode = std::function<bool(std::size_t i, Evaluation& slot)>;
    /// Reduces slot i (calling thread, submission order).
    using Reduce = std::function<void(std::size_t i, Evaluation& slot)>;

    /// Borrows `tester` (the live one). A replica pipeline forks its
    /// noise stream from `rng` here — one draw — and the in-situ one
    /// leaves `rng` untouched.
    EvaluationPipeline(ate::Tester& tester, const ate::Parameter& parameter,
                       PipelineOptions options, util::Rng& rng);
    ~EvaluationPipeline();

    EvaluationPipeline(const EvaluationPipeline&) = delete;
    EvaluationPipeline& operator=(const EvaluationPipeline&) = delete;

    /// Decodes, measures and reduces `count` slots. The replica ring
    /// measures every slot, then reduces in submission order: the first
    /// slot whose measurement threw (a dead site, a quarantine) merges
    /// its replica's log and rethrows, and later slots are dropped. In
    /// situ an exception propagates at once, as from TripSession.
    void run(std::size_t count, const Decode& decode, const Reduce& reduce);

    /// True when tests measure on replicas (false in situ, including a
    /// DUT that cannot be cloned).
    [[nodiscard]] bool replicas() const noexcept { return replicas_; }
    /// `parallel.jobs` of a replica pipeline, 0 resolved to the hardware
    /// thread count (1 in situ).
    [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
    /// In-flight depth of the replica ring (1 in situ).
    [[nodiscard]] std::size_t inflight() const noexcept { return inflight_; }

    /// The in-situ session on the live tester (also the caller's for any
    /// measurement outside the pipeline).
    [[nodiscard]] TripSession& session() noexcept { return session_; }
    /// Policy activity: the session's plus every reduced replica's.
    [[nodiscard]] FaultCounters faults() const;
    [[nodiscard]] ReplicaSlabStats slab_stats() const;

    /// Checkpoint state of a replica pipeline: the policy activity
    /// reduced from replicas, the noise stream and the published RTP.
    [[nodiscard]] FaultCounters& replica_faults() noexcept {
        return replica_faults_;
    }
    [[nodiscard]] util::Rng& noise_rng() noexcept { return noise_rng_; }
    [[nodiscard]] std::optional<double>& rtp() noexcept { return rtp_; }

private:
    struct Slot {
        Evaluation eval;
        std::uint64_t noise_seed = 0;
        std::uint64_t policy_seed = 0;
        /// The replica's measurement log and policy activity.
        ate::MeasurementLog log;
        FaultCounters faults;
        /// Per-replica fault stream (empty when faults are off).
        std::optional<ate::FaultInjector> injector;
        /// What the replica's measurement threw, rethrown at reduce.
        std::exception_ptr error;
        /// While a replica measures the slot: its lease and session.
        ReplicaSlab::Lease lease;
        std::optional<TripSession> session;
        std::optional<TripMeasureTask> task;
    };

    bool decode_slot(std::size_t i, const Decode& decode);
    void open_replica(Slot& slot);
    void close_replica(Slot& slot);
    void reduce_slots(const Reduce& reduce);
    void run_ring(std::size_t count, const Decode& decode);

    ate::Tester* tester_;
    ate::Parameter parameter_;
    PipelineOptions options_;
    ate::FaultInjector* injector_;  ///< the live tester's; faults on only
    bool replicas_;
    std::size_t jobs_ = 1;
    std::size_t inflight_ = 1;
    TripSession session_;
    FaultCounters replica_faults_;
    util::Rng noise_rng_;
    std::optional<double> rtp_;
    // Destroyed bottom-up: the ring drops requests before the leases go
    // back, and the leases go back before the slab dies.
    std::optional<ReplicaSlab> slab_;
    std::vector<Slot> slots_;
    std::unique_ptr<ate::AsyncTester> queue_;
};

}  // namespace cichar::core
