#include "core/evaluation_pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ate/async_tester.hpp"
#include "util/log.hpp"

namespace cichar::core {

EvaluationPipeline::EvaluationPipeline(ate::Tester& tester,
                                       const ate::Parameter& parameter,
                                       PipelineOptions options,
                                       util::Rng& rng)
    : tester_(&tester),
      parameter_(parameter),
      options_(std::move(options)),
      injector_(tester.fault_injector() != nullptr &&
                        tester.fault_injector()->profile().any()
                    ? tester.fault_injector()
                    : nullptr),
      replicas_(options_.parallel.enabled),
      session_(tester, parameter, options_.trip) {
    // Replica evaluation needs a replicable DUT; fall back to the in-situ
    // path when the device cannot be cloned.
    if (replicas_ && tester.dut().clone_cold(1) == nullptr) {
        util::log_info(
            "pipeline: DUT does not support clone_cold; running in situ");
        replicas_ = false;
    }
    if (!replicas_) return;

    // Replica noise streams are forked from a dedicated stream on the
    // calling thread, in submission order — never by the workers — so
    // every replica measurement is a pure function of its own seed and
    // the shared RTP.
    noise_rng_ = rng.fork(options_.noise_salt);
    inflight_ = std::max<std::size_t>(1, options_.parallel.inflight);
    // The ring measures on the calling thread; `jobs` only sizes the
    // caller's other parallel work.
    jobs_ = options_.parallel.jobs != 0
                ? options_.parallel.jobs
                : std::max(1U, std::thread::hardware_concurrency());
    ate::AsyncTesterOptions queue_options;
    queue_options.queue_depth = inflight_;
    queue_options.latency = tester.latency_model();
    queue_ = std::make_unique<ate::AsyncTester>(queue_options);
    // Warm replica slab: clone_cold + Tester construction paid once per
    // slot, then recycled via reset_warm for every measurement. Sized by
    // the leases held at once: one per in-flight search.
    slab_.emplace(tester, inflight_);
}

EvaluationPipeline::~EvaluationPipeline() = default;

FaultCounters EvaluationPipeline::faults() const {
    FaultCounters faults = session_.policy().counters();
    faults.merge(replica_faults_);
    return faults;
}

ReplicaSlabStats EvaluationPipeline::slab_stats() const {
    return slab_ ? slab_->stats() : ReplicaSlabStats{};
}

void EvaluationPipeline::run(std::size_t count, const Decode& decode,
                             const Reduce& reduce) {
    if (!replicas_) {
        // In situ: batches of one on the live tester, so every slot's
        // decode sees the reduce of the slot before it.
        for (std::size_t i = 0; i < count; ++i) {
            Evaluation eval;
            if (decode(i, eval)) {
                eval.record = session_.measure(eval.test, eval.anchor);
                if (options_.functional_after &&
                    options_.functional_after(eval.record)) {
                    eval.functional = tester_->run_functional(eval.test);
                    eval.functional_ran = true;
                }
            } else {
                eval.cached = true;
            }
            reduce(i, eval);
        }
        return;
    }
    slots_.clear();
    slots_.resize(count);
    run_ring(count, decode);
    reduce_slots(reduce);
}

// Decodes one slot; returns false for slots with nothing to measure.
// Replica streams fork here on the calling thread in submission order, so
// a (seed, profile, jobs) triple replays the exact same fault sequence at
// any jobs count; the fault and policy draws happen only when enabled,
// keeping the disabled path's streams untouched.
bool EvaluationPipeline::decode_slot(std::size_t i, const Decode& decode) {
    Slot& slot = slots_[i];
    if (!decode(i, slot.eval)) {
        slot.eval.cached = true;
        return false;
    }
    slot.noise_seed = noise_rng_();
    if (injector_ != nullptr) slot.injector.emplace(injector_->fork(0));
    if (options_.trip.policy.enabled) slot.policy_seed = noise_rng_();
    return true;
}

// A replica slot measures on a leased replica of the DUT (a virtual
// re-insertion of the same die) through its own session, which follows
// the shared RTP and carries the slot's fault stream and policy seed.
void EvaluationPipeline::open_replica(Slot& slot) {
    slot.lease = slab_->acquire(slot.noise_seed);
    ate::Tester& replica = slot.lease.tester();
    if (slot.injector.has_value()) {
        replica.attach_fault_injector(&*slot.injector);
    }
    replica.log().set_phase(options_.phase);
    MultiTripOptions trip = options_.trip;
    trip.policy.seed = slot.policy_seed;
    slot.session.emplace(replica, parameter_, trip);
    if (rtp_.has_value()) slot.session->restore_reference(*rtp_);
}

// The first replica to finish a search with a reference publishes the
// RTP before its session goes.
void EvaluationPipeline::close_replica(Slot& slot) {
    slot.task.reset();
    if (!rtp_.has_value() && slot.session->has_reference()) {
        rtp_ = slot.session->reference_trip_point();
    }
    slot.faults = slot.session->policy().counters();
    slot.session.reset();
    slot.log = std::move(slot.lease.tester().log());
    slot.lease.reset();
}

// Ordering-stable reduction: ledger merges, policy counters, injector
// stats and the caller's reduce all happen in submission order —
// reduction order, not completion order, is what the byte-identity
// contract rests on.
void EvaluationPipeline::reduce_slots(const Reduce& reduce) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot& slot = slots_[i];
        if (!slot.eval.cached) {
            tester_->log().merge(slot.log);
            replica_faults_.merge(slot.faults);
            if (slot.injector.has_value()) {
                injector_->absorb_stats(slot.injector->stats());
            }
            if (slot.error) std::rethrow_exception(slot.error);
        }
        reduce(i, slot.eval);
    }
}

// The replica ring: each measuring slot runs its TripMeasureTask,
// whose readings ride the bounded submission/completion queue. Up to
// `inflight` measurements are pending at once, the calling thread decodes
// and admits new slots while measurements are in flight, and under
// emulated tester latency the completion deadlines — not worker sleeps —
// carry the hardware wait. Harvest order is whatever ripens first;
// reduce_slots puts everything back in submission order.
void EvaluationPipeline::run_ring(std::size_t count, const Decode& decode) {
    ate::AsyncTester& queue = *queue_;
    // A measuring slot keeps exactly one request in the ring — its task's
    // pending reading, then the functional run if the record asks for
    // one — and resubmits from inside the harvest (ring slot already
    // freed), so the ring is never full.
    std::function<void(std::size_t)> advance;
    const auto on_completion = [&](std::size_t i,
                                   const ate::AsyncCompletion& c) {
        Slot& slot = slots_[i];
        if (c.is_functional) {
            if (c.error) {
                slot.error = c.error;
            } else {
                slot.eval.functional = c.functional;
                slot.eval.functional_ran = true;
            }
            close_replica(slot);
            return;
        }
        // A timed-out reading goes back to the task, exactly as
        // TripSession::measure feeds it; anything else (a dead site, a
        // quarantine) ends the slot and is rethrown at reduce.
        try {
            try {
                if (c.error) std::rethrow_exception(c.error);
                slot.task->complete(c.pass);
            } catch (const ate::MeasurementTimeout&) {
                slot.task->complete_timeout();
            }
        } catch (...) {
            slot.error = std::current_exception();
            close_replica(slot);
            return;
        }
        advance(i);
    };
    advance = [&](std::size_t i) {
        Slot& slot = slots_[i];
        ate::Tester& replica = slot.lease.tester();
        const auto callback = [&, i](const ate::AsyncCompletion& c) {
            on_completion(i, c);
        };
        bool ok = true;
        if (!slot.task->done()) {
            ok = queue.submit(i, replica, slot.eval.test, parameter_,
                              slot.task->pending_setting(), callback);
        } else {
            slot.eval.record = slot.task->record();
            if (options_.functional_after &&
                options_.functional_after(slot.eval.record)) {
                ok = queue.submit_functional(i, replica, slot.eval.test,
                                             callback);
            } else {
                close_replica(slot);
            }
        }
        if (!ok) {
            throw std::logic_error("evaluation pipeline: ring overflow");
        }
    };

    // If a completion callback throws, pending requests still hold
    // callbacks into this frame — drop them before the frame unwinds.
    struct Quiesce {
        ate::AsyncTester* q;
        ~Quiesce() { q->quiesce(); }
    } quiesce_guard{&queue};

    // Every measuring slot keeps one request in the ring until done. Until
    // a replica has established the shared RTP, a slot is admitted only
    // into an empty ring, so it closes (publishing the RTP) before any
    // later slot opens.
    std::size_t next = 0;
    while (next < count || queue.in_flight() > 0) {
        // Admit new searches while the ring has room: decode, cache
        // lookup, and replica leasing all happen here, hidden under
        // whatever is already in flight.
        while (next < count &&
               (rtp_.has_value() || queue.in_flight() == 0) &&
               queue.can_submit()) {
            const std::size_t i = next++;
            if (decode_slot(i, decode)) {
                Slot& slot = slots_[i];
                open_replica(slot);
                slot.task.emplace(
                    slot.session->begin(slot.eval.test, slot.eval.anchor));
                advance(i);
            }
            // Greedy harvest: a completion that ripens instantly (inline
            // eval, zero emulated latency) runs its follow-up probe now,
            // so a search chain executes back-to-back on its hot replica
            // instead of round-robining `inflight` cold working sets
            // through the cache. Nothing ripens early when latency is
            // emulated, so the pipeline still fills.
            while (queue.poll() > 0) {
            }
        }
        if (queue.in_flight() > 0) (void)queue.wait();
    }
    // Fully drained: no request outlives its batch, so a checkpoint at a
    // batch boundary never snapshots with measurements pending.
}

}  // namespace cichar::core
