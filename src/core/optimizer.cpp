#include "core/optimizer.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "ate/async_tester.hpp"
#include "util/crash_point.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace cichar::core {

const char* to_string(Objective objective) noexcept {
    switch (objective) {
        case Objective::kDriftToMinimum: return "drift-to-minimum";
        case Objective::kDriftToMaximum: return "drift-to-maximum";
    }
    return "?";
}

Objective objective_for(const ate::Parameter& parameter) noexcept {
    return parameter.spec_type == ate::SpecType::kMinLimit
               ? Objective::kDriftToMinimum
               : Objective::kDriftToMaximum;
}

namespace {

double objective_wcr(Objective objective, double measured, double spec) {
    return objective == Objective::kDriftToMinimum
               ? ga::wcr_toward_min(measured, spec)
               : ga::wcr_toward_max(measured, spec);
}

ate::InjectionStats stats_delta(const ate::InjectionStats& now,
                                const ate::InjectionStats& before) {
    ate::InjectionStats delta;
    delta.measurements = now.measurements - before.measurements;
    delta.transients = now.transients - before.transients;
    delta.stuck_measurements = now.stuck_measurements - before.stuck_measurements;
    delta.stuck_episodes = now.stuck_episodes - before.stuck_episodes;
    delta.timeouts = now.timeouts - before.timeouts;
    delta.site_deaths = now.site_deaths - before.site_deaths;
    return delta;
}

/// Big blobs inside a checkpoint payload (cache/database/device state)
/// may exceed the default string cap.
constexpr std::uint64_t kMaxBlob = 1ULL << 28;

/// Fitness distribution + evaluation throughput for the hunt. Cached
/// references: one registry lookup per process.
void telem_hunt_evaluation(bool found, double wcr) {
    if (!util::telemetry::metrics_enabled()) return;
    namespace telem = util::telemetry;
    static constexpr double kWcrBounds[] = {0.0,  0.25, 0.5, 0.75, 0.9,
                                            1.0,  1.1,  1.25, 1.5, 2.0};
    static auto& evaluations = telem::Registry::instance().counter(
        "cichar_hunt_evaluations_total");
    static auto& fitness = telem::Registry::instance().histogram(
        "cichar_hunt_fitness_wcr", kWcrBounds);
    evaluations.add();
    if (found) fitness.observe(wcr);
}

}  // namespace

WorstCaseReport WorstCaseOptimizer::run(ate::Tester& tester,
                                        const ate::Parameter& parameter,
                                        const LearnedModel& model,
                                        Objective objective,
                                        util::Rng& rng) const {
    const NnTestGenerator nn_generator(model);
    // One pool serves both the NN seeding round and the replica fitness
    // evaluation, instead of paying spawn/teardown per phase.
    std::optional<util::ThreadPool> pool;
    if (options_.parallel.enabled) pool.emplace(options_.parallel.jobs);

    // A resumed hunt already holds fully dealt populations in its
    // checkpoint; NN seeding would only burn committee time (the rng it
    // would consume is restored from the blob regardless).
    std::vector<ga::TestChromosome> seeds;
    if (options_.checkpoint.resume_blob.empty()) {
        ScoringOptions scoring;
        scoring.jobs = options_.parallel.enabled ? options_.parallel.jobs : 1;
        scoring.batch = options_.nn_score_batch;
        scoring.pool = pool ? &*pool : nullptr;
        TELEM_SPAN("hunt.nn_seeding");
        seeds = nn_generator.suggest_chromosomes(
            options_.nn_candidates, options_.nn_seed_count, rng, scoring);
    }
    return drive(tester, parameter, model.generator_options(),
                 std::move(seeds), objective, rng, pool ? &*pool : nullptr);
}

WorstCaseReport WorstCaseOptimizer::run_unseeded(
    ate::Tester& tester, const ate::Parameter& parameter,
    const testgen::RandomGeneratorOptions& generator_options,
    Objective objective, util::Rng& rng) const {
    return drive(tester, parameter, generator_options, {}, objective, rng);
}

WorstCaseReport WorstCaseOptimizer::drive(
    ate::Tester& tester, const ate::Parameter& parameter,
    const testgen::RandomGeneratorOptions& generator_options,
    std::vector<ga::TestChromosome> seeds, Objective objective,
    util::Rng& rng, util::ThreadPool* shared_pool) const {
    TELEM_SPAN("hunt.drive");
    ate::PhaseScope phase(tester.log(), "ga-optimization");
    std::uint64_t applications_before = tester.log().total().applications;
    ate::FaultInjector* injector = tester.fault_injector();
    const bool faults_on = injector != nullptr && injector->profile().any();
    ate::InjectionStats injected_before =
        faults_on ? injector->stats() : ate::InjectionStats{};
    const bool policy_on = options_.trip.policy.enabled;
    FaultCounters replica_faults;  // merged from slots in submission order
    const bool resuming = !options_.checkpoint.resume_blob.empty();
    const bool checkpointing =
        static_cast<bool>(options_.checkpoint.save) ||
        options_.checkpoint.abort_after_generation > 0;

    const testgen::RandomTestGenerator generator(generator_options);
    TripSession session(tester, parameter, options_.trip);
    WorstCaseDatabase database(options_.database_capacity);
    const bool use_cache = options_.cache.enabled;
    TripPointCache cache(options_.cache.capacity > 0 ? options_.cache.capacity
                                                     : 1);
    const std::string cache_identity = options_.cache.identity.empty()
                                           ? parameter.name
                                           : options_.cache.identity;
    std::size_t cache_preloaded = 0;
    // A resume blob carries the cache contents itself; the warm-start file
    // would only be overwritten by the restore.
    if (use_cache && !options_.cache.file.empty() && !resuming) {
        std::ifstream in(options_.cache.file, std::ios::binary);
        if (in && cache.load(in, cache_identity)) {
            cache_preloaded = cache.size();
            util::log_info("optimizer: warm trip cache, ", cache_preloaded,
                           " entries from ", options_.cache.file);
        }
    }
    std::size_t eval_counter = 0;

    // Replica evaluation needs a replicable DUT; fall back to the in-situ
    // path when the device cannot be cloned.
    bool parallel = options_.parallel.enabled;
    if (parallel && tester.dut().clone_cold(1) == nullptr) {
        util::log_info(
            "optimizer: DUT does not support clone_cold; running serial");
        parallel = false;
    }

    std::size_t inflight = std::max<std::size_t>(1, options_.parallel.inflight);
    const bool use_async = parallel && inflight > 1;
    if (!use_async) inflight = 1;

    // Replica noise streams are forked from a dedicated stream on the
    // calling thread, in submission order — never by the workers — so
    // every replica evaluation is a pure function of its own seed and the
    // shared RTP, and the hunt is byte-identical at any jobs count. The
    // RTP (eq. 2) is published by the first replica measurement; in situ
    // the hunt's own session holds it instead.
    util::Rng noise_rng;
    if (parallel) noise_rng = rng.fork(0x7e57);
    std::optional<double> rtp;

    // ---- crash-safe checkpointing -----------------------------------
    // The payload snapshots every piece of dynamic state the hunt loop
    // depends on: rng streams, eval counter, session reference/policy,
    // the tester ledger and device state, injector state, cache and
    // database contents, the replica noise stream and RTP, and the GA
    // loop itself — so a resumed hunt is byte-identical to one that was
    // never interrupted.
    const auto serialize_state = [&](const ga::MultiPopulationCheckpoint& ck) {
        std::string out;
        util::put_rng(out, rng);
        util::put_u64(out, eval_counter);
        util::put_u64(out, applications_before);
        replica_faults.save(out);
        session.policy().save(out);
        util::put_bool(out, session.has_reference());
        util::put_double(out, session.has_reference()
                                  ? session.reference_trip_point()
                                  : 0.0);
        tester.log().save(out);
        std::string chip;
        const bool chip_ok = tester.dut().save_state(chip);
        util::put_bool(out, chip_ok);
        util::put_string(out, chip);
        util::put_bool(out, faults_on);
        if (faults_on) {
            injector->save(out);
            injected_before.save(out);
        }
        util::put_bool(out, use_cache);
        if (use_cache) {
            std::ostringstream cache_stream;
            (void)cache.save(cache_stream, cache_identity);
            util::put_string(out, cache_stream.str());
            util::put_u64(out, cache.stats().hits);
            util::put_u64(out, cache.stats().misses);
            util::put_u64(out, cache.stats().evictions);
            util::put_u64(out, cache_preloaded);
        }
        std::ostringstream db_stream;
        database.save(db_stream);
        util::put_string(out, db_stream.str());
        util::put_bool(out, parallel);
        if (parallel) util::put_rng(out, noise_rng);
        util::put_bool(out, rtp.has_value());
        util::put_double(out, rtp.value_or(0.0));
        ck.save(out);
        return out;
    };

    // Throws std::runtime_error when the blob disagrees with the current
    // configuration (fault profile / cache toggles / replica mode) or is
    // corrupt; the caller decides whether that aborts or falls back to a
    // cold start.
    const auto restore_state = [&](util::ByteReader& in) {
        rng = in.get_rng();
        eval_counter = static_cast<std::size_t>(in.get_u64());
        applications_before = in.get_u64();
        replica_faults = FaultCounters::load(in);
        session.policy().load(in);
        const bool has_reference = in.get_bool();
        const double session_rtp = in.get_double();
        if (has_reference) session.restore_reference(session_rtp);
        tester.log().load(in);
        const bool chip_ok = in.get_bool();
        const std::string chip = in.get_string(kMaxBlob);
        if (chip_ok) {
            util::ByteReader chip_in(chip);
            if (!tester.dut().load_state(chip_in)) {
                throw std::runtime_error(
                    "hunt resume: device state not restorable");
            }
        }
        const bool had_faults = in.get_bool();
        if (had_faults != faults_on) {
            throw std::runtime_error(
                "hunt resume: fault profile on/off mismatch");
        }
        if (faults_on) {
            injector->load(in);
            injected_before = ate::InjectionStats::load(in);
        }
        const bool had_cache = in.get_bool();
        if (had_cache != use_cache) {
            throw std::runtime_error("hunt resume: cache on/off mismatch");
        }
        if (use_cache) {
            const std::string cache_blob = in.get_string(kMaxBlob);
            std::istringstream cache_stream{cache_blob};
            if (!cache.load(cache_stream, cache_identity)) {
                throw std::runtime_error(
                    "hunt resume: trip cache blob rejected");
            }
            TripCacheStats cache_stats;
            cache_stats.hits = in.get_u64();
            cache_stats.misses = in.get_u64();
            cache_stats.evictions = in.get_u64();
            cache.set_stats(cache_stats);
            cache_preloaded = static_cast<std::size_t>(in.get_u64());
        }
        const std::string db_blob = in.get_string(kMaxBlob);
        std::istringstream db_stream{db_blob};
        database = WorstCaseDatabase::load(db_stream);
        if (in.get_bool() != parallel) {
            throw std::runtime_error(
                "hunt resume: parallel/serial mode mismatch");
        }
        if (parallel) noise_rng = in.get_rng();
        const bool has_rtp = in.get_bool();
        const double replica_rtp = in.get_double();
        if (has_rtp) rtp = replica_rtp;
        return ga::MultiPopulationCheckpoint::load(in,
                                                   options_.ga.population);
    };

    const ga::MultiPopulationGa driver(options_.ga);
    WorstCaseReport report;
    report.objective = objective;
    report.inflight = inflight;

    std::optional<util::ThreadPool> own_pool;
    util::ThreadPool* pool = nullptr;
    if (parallel) {
        pool = shared_pool != nullptr
                   ? shared_pool
                   : &own_pool.emplace(options_.parallel.jobs);
        report.jobs = pool->thread_count();
    }
    // Warm replica slab: clone_cold + Tester construction paid once per
    // slot at hunt start, then recycled via reset_warm for every fitness
    // measurement. Sized by the leases held at once: one per worker
    // (blocking engine) or one per in-flight search (async engine, whose
    // searches all run on this thread). A slab lease is observably
    // identical to a fresh cold clone, so reports/checkpoints/caches
    // don't move.
    std::optional<ReplicaSlab> slab;
    if (parallel) slab.emplace(tester, use_async ? inflight : report.jobs);

    // ---- one evaluation pipeline --------------------------------------
    // Every engine decodes slots on the calling thread in submission
    // order, measures them through a TripSession, and reduces them in
    // submission order. The in-situ path is the same pipeline on the live
    // tester, in batches of one.
    struct Slot {
        std::string name;
        testgen::PatternRecipe recipe;
        testgen::TestConditions conditions;
        TripCacheKey key;
        bool cached = false;
        std::uint64_t noise_seed = 0;
        std::uint64_t policy_seed = 0;
        testgen::Test test;
        TripPointRecord record;
        ate::MeasurementLog log;
        /// The replica session's policy activity.
        FaultCounters faults;
        bool functional_ran = false;
        device::FunctionalResult functional;
        /// Per-replica fault stream, forked on the calling thread in
        /// submission order (empty when disabled).
        std::optional<ate::FaultInjector> injector;
        /// While a replica measures the slot: its lease and session.
        ReplicaSlab::Lease lease;
        std::optional<TripSession> session;
        std::optional<TripMeasureTask> task;  ///< async engine only
    };

    // Per-batch scratch, hoisted so the outer buffers persist across
    // fitness batches and generations instead of being reallocated per
    // call (the big per-slot costs — DUT arrays, Tester, ledger — live in
    // the slab slots).
    std::vector<Slot> slots;
    std::vector<std::size_t> pending;

    // Decodes, names and consults the cache for one slot; returns false
    // for cache hits (nothing to measure). Replica streams fork here on
    // the calling thread in submission order, so a (seed, profile, jobs)
    // triple replays the exact same fault sequence at any jobs count;
    // the fault and policy draws happen only when enabled, keeping the
    // disabled path's rng stream untouched.
    const auto decode_slot = [&](const ga::TestChromosome& chromosome,
                                 Slot& slot) {
        slot.recipe = chromosome.decode_recipe(generator_options.min_cycles,
                                               generator_options.max_cycles);
        slot.conditions =
            chromosome.decode_conditions(generator_options.condition_bounds);
        slot.name = "ga-" + std::to_string(eval_counter++);
        slot.key = TripCacheKey{slot.recipe, slot.conditions};
        if (use_cache) {
            if (const TripPointRecord* hit = cache.lookup(slot.key)) {
                slot.cached = true;
                slot.record = *hit;
                slot.record.test_name = slot.name;
                return false;
            }
        }
        slot.test = generator.make_test(slot.recipe, slot.conditions,
                                        slot.name);
        if (!parallel) return true;
        slot.noise_seed = noise_rng();
        if (faults_on) slot.injector.emplace(injector->fork(0));
        if (policy_on) slot.policy_seed = noise_rng();
        return true;
    };

    // A measured trip past the fail boundary also runs the functional
    // pattern. Cache hits replay a known trip point without touching the
    // tester, so the functional pattern only ever follows a measurement.
    const auto crosses_fail = [&](const TripPointRecord& record) {
        return options_.check_functional_failures && record.found &&
               objective_wcr(objective, record.trip_point, parameter.spec) >
                   options_.thresholds.fail;
    };

    const auto measure_with = [&](TripSession& on, Slot& slot) {
        slot.record = on.measure(slot.test);
        if (crosses_fail(slot.record)) {
            slot.functional = on.tester().run_functional(slot.test);
            slot.functional_ran = true;
        }
    };

    // A replica slot measures on a leased replica of the DUT (a virtual
    // re-insertion of the same die) through its own session, which
    // follows the shared RTP and carries the slot's fault stream and
    // policy seed. Both replica engines open and close it alike.
    const auto open_replica = [&](Slot& slot, bool inline_latency) {
        slot.lease = slab->acquire(slot.noise_seed, inline_latency);
        ate::Tester& replica = slot.lease.tester();
        if (slot.injector.has_value()) {
            replica.attach_fault_injector(&*slot.injector);
        }
        replica.log().set_phase("ga-optimization");
        MultiTripOptions trip = options_.trip;
        trip.policy.seed = slot.policy_seed;
        slot.session.emplace(replica, parameter, trip);
        if (rtp.has_value()) slot.session->restore_reference(*rtp);
    };
    const auto close_replica = [](Slot& slot) {
        slot.task.reset();
        slot.faults = slot.session->policy().counters();
        slot.session.reset();
        slot.log = std::move(slot.lease.tester().log());
        slot.lease.reset();
    };

    // In situ the hunt's own session measures on the live tester. The
    // first replica measurement establishes and publishes the RTP, and
    // must run inline before any worker reads `rtp`.
    const auto measure_slot = [&](Slot& slot) {
        if (!parallel) {
            measure_with(session, slot);
            return;
        }
        // Inline latency emulation kept: the blocking engine sleeps it,
        // unlike the async path.
        open_replica(slot, /*inline_latency=*/true);
        measure_with(*slot.session, slot);
        if (!rtp.has_value()) rtp = slot.session->reference_trip_point();
        close_replica(slot);
    };

    // Ordering-stable reduction: ledger merges, database adds, and cache
    // inserts all happen in submission order — reduction order, not
    // harvest order, is what the byte-identity contract rests on. In situ
    // the live tester already logged the measurement.
    const auto reduce_slots = [&] {
        std::vector<double> values;
        values.reserve(slots.size());
        for (Slot& slot : slots) {
            if (!slot.cached) {
                if (parallel) {
                    tester.log().merge(slot.log);
                    replica_faults.merge(slot.faults);
                    if (slot.injector.has_value()) {
                        injector->absorb_stats(slot.injector->stats());
                    }
                }
                // A not-found record under the policy reflects an
                // environmental outage, not the chromosome: never memoize
                // it, or the outage would replay forever.
                if (use_cache && (slot.record.found || !policy_on)) {
                    cache.insert(slot.key, slot.record);
                }
            }
            if (!slot.record.found) {
                telem_hunt_evaluation(false, 0.0);
                values.push_back(0.0);  // no crossover: harmless
                continue;
            }
            const double wcr = objective_wcr(
                objective, slot.record.trip_point, parameter.spec);
            telem_hunt_evaluation(true, wcr);
            database.add(WorstCaseEntry{
                slot.name, slot.recipe, slot.conditions,
                slot.record.trip_point, wcr,
                ga::classify(wcr, options_.thresholds)});
            if (slot.functional_ran && !slot.functional.pass()) {
                database.add_functional_failure(FunctionalFailureRecord{
                    slot.name, slot.recipe, slot.conditions,
                    slot.functional.miscompares,
                    slot.functional.first_fail_cycle});
            }
            values.push_back(wcr);
        }
        return values;
    };

    // Blocking engine (and the in-situ path, which has no pool): the
    // first measurement runs inline, every later replica measurement on a
    // worker.
    const auto evaluate = [&](std::span<const ga::TestChromosome> batch) {
        slots.clear();
        slots.resize(batch.size());
        pending.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (decode_slot(batch[i], slots[i])) pending.push_back(i);
        }
        for (const std::size_t i : pending) {
            Slot* slot = &slots[i];
            if (pool == nullptr || !rtp.has_value()) {
                measure_slot(*slot);
            } else {
                pool->submit([&measure_slot, slot] { measure_slot(*slot); });
            }
        }
        if (pool != nullptr) pool->wait();
        return reduce_slots();
    };

    // ---- async queue-pair engine (--inflight > 1) ----------------------
    // Each non-cached slot runs its TripMeasureTask, whose readings ride
    // the bounded submission/completion queue: up to `inflight`
    // measurements are pending at once, the owner thread decodes/admits
    // new slots while measurements are in flight, and under emulated
    // tester latency the completion deadlines — not worker sleeps —
    // carry the hardware wait. Harvest order is whatever ripens first;
    // reduce_slots puts everything back in submission order.
    ate::AsyncTesterOptions queue_options;
    queue_options.queue_depth = inflight;
    queue_options.latency = tester.latency_model();
    // Lot-wide shared budget (when provided): this hunt's ring is one
    // ordering domain drawing depth from the shared pool beyond its
    // guaranteed floor. Purely a throttle — byte-identity holds at any
    // dynamic depth, exactly as it does across --inflight values.
    queue_options.shared_credits = options_.parallel.shared_credits;
    std::optional<ate::AsyncTester> queue;
    if (use_async) queue.emplace(queue_options);

    const auto evaluate_async = [&](std::span<const ga::TestChromosome> batch) {
        slots.clear();
        slots.resize(batch.size());

        // A measuring slot keeps exactly one request in the ring — its
        // task's pending reading, then the functional run if the trip
        // crosses the fail boundary — and resubmits from inside the
        // harvest (ring slot already freed), so the ring is never full.
        std::function<void(std::size_t)> advance;
        const auto on_completion = [&](std::size_t i,
                                       const ate::AsyncCompletion& c) {
            Slot& slot = slots[i];
            if (c.is_functional) {
                if (c.error) std::rethrow_exception(c.error);
                slot.functional = c.functional;
                slot.functional_ran = true;
                close_replica(slot);
                return;
            }
            // A timed-out reading goes back to the task, exactly as
            // TripSession::measure feeds it; anything else (a dead site)
            // ends the hunt.
            try {
                if (c.error) std::rethrow_exception(c.error);
                slot.task->complete(c.pass);
            } catch (const ate::MeasurementTimeout&) {
                slot.task->complete_timeout();
            }
            advance(i);
        };
        advance = [&](std::size_t i) {
            Slot& slot = slots[i];
            ate::Tester& replica = slot.lease.tester();
            const auto callback = [&, i](const ate::AsyncCompletion& c) {
                on_completion(i, c);
            };
            bool ok = true;
            if (!slot.task->done()) {
                ok = queue->submit(i, replica, slot.test, parameter,
                                   slot.task->pending_setting(), callback);
            } else {
                slot.record = slot.task->record();
                if (crosses_fail(slot.record)) {
                    ok = queue->submit_functional(i, replica, slot.test,
                                                  callback);
                } else {
                    close_replica(slot);
                }
            }
            if (!ok) {
                throw std::logic_error("async hunt: submission ring overflow");
            }
        };

        // If a completion callback throws, pending requests still hold
        // callbacks into this frame — drop them before the frame unwinds.
        struct Quiesce {
            ate::AsyncTester* q;
            ~Quiesce() { q->quiesce(); }
        } quiesce_guard{&*queue};

        // The very first measurement establishes the shared RTP, inline
        // and blocking, exactly like the blocking engine.
        std::size_t next = 0;
        while (!rtp.has_value() && next < slots.size()) {
            const std::size_t i = next++;
            if (decode_slot(batch[i], slots[i])) measure_slot(slots[i]);
        }
        // Every measuring slot keeps one request in the ring until done.
        while (next < slots.size() || queue->in_flight() > 0) {
            // Admit new searches while the ring has room: decode, cache
            // lookup, and replica leasing all happen here, hidden under
            // whatever is already in flight.
            while (next < slots.size() && queue->can_submit()) {
                const std::size_t i = next++;
                if (decode_slot(batch[i], slots[i])) {
                    open_replica(slots[i], /*inline_latency=*/false);
                    slots[i].task.emplace(slots[i].session->begin(slots[i].test));
                    advance(i);
                }
                // Greedy harvest: a completion that ripens instantly
                // (inline eval, zero emulated latency) runs its follow-up
                // probe now, so a search chain executes back-to-back on its
                // hot replica instead of round-robining `inflight` cold
                // working sets through the cache. Nothing ripens early when
                // latency is emulated, so the pipeline still fills.
                while (queue->poll() > 0) {
                }
            }
            if (queue->in_flight() > 0) (void)queue->wait();
        }
        // Fully drained: no request outlives its batch, so the
        // generation-boundary checkpoint never snapshots with measurements
        // pending (drain-before-snapshot).
        return reduce_slots();
    };

    // Armed right before driver.run: a resume restores every piece of
    // state declared above.
    ga::MultiPopulationResume hooks;
    ga::MultiPopulationCheckpoint resume_checkpoint;
    if (resuming) {
        util::ByteReader in(options_.checkpoint.resume_blob);
        resume_checkpoint = restore_state(in);
        hooks.resume = &resume_checkpoint;
        util::log_info("optimizer: resumed hunt at generation ",
                       resume_checkpoint.next_generation);
    }
    if (options_.on_generation) {
        // Observational only: sampled outside the fitness path, no
        // randomness drawn, nothing fed back into the GA. Rides the
        // copy-free observer hook so watching a hunt never pays the
        // per-generation population snapshot checkpointing needs.
        hooks.observer = [&](std::size_t next_generation,
                             const ga::MultiPopulationOutcome& outcome) {
            HuntProgress progress;
            progress.next_generation = next_generation;
            progress.max_generations = options_.ga.max_generations;
            progress.evaluations = outcome.evaluations;
            progress.restarts = outcome.restarts;
            progress.best_fitness = outcome.best_fitness;
            progress.cache = cache.stats();
            progress.ate_applications = static_cast<std::size_t>(
                tester.log().total().applications - applications_before);
            progress.inflight = inflight;
            options_.on_generation(progress);
        };
    }
    if (checkpointing) {
        hooks.on_generation = [&](const ga::MultiPopulationCheckpoint& ck) {
            const std::size_t every =
                std::max<std::size_t>(1, options_.checkpoint.every);
            const bool abort =
                options_.checkpoint.abort_after_generation > 0 &&
                ck.next_generation >= options_.checkpoint.abort_after_generation;
            if (options_.checkpoint.save &&
                (abort || ck.next_generation % every == 0)) {
                options_.checkpoint.save(serialize_state(ck));
                CICHAR_CRASH_POINT("core.optimizer.post_checkpoint");
            }
            if (abort) {
                // Deterministic stand-in for SIGKILL: stop mid-hunt with
                // the checkpoint written and the report marked partial.
                report.aborted = true;
                return false;
            }
            return true;
        };
    }

    ga::BatchFitnessFn fitness;
    if (!parallel) {
        // as_batch keeps the in-situ per-individual order of cache lookup,
        // measurement, insert and database add: batches of one.
        fitness = ga::as_batch([&](const ga::TestChromosome& chromosome) {
            return evaluate({&chromosome, 1}).front();
        });
    } else {
        fitness = [&](std::span<const ga::TestChromosome> batch) {
            TELEM_SPAN("hunt.fitness_batch");
            return use_async ? evaluate_async(batch) : evaluate(batch);
        };
    }
    report.outcome = driver.run(fitness, std::move(seeds), rng, hooks);
    if (slab.has_value()) report.slab = slab->stats();

    report.database = std::move(database);

    // Re-expand and re-measure the winner (the paper re-analyzes final
    // worst case tests in detail on the ATE). Always measured live on the
    // main tester, never answered from the cache. An aborted (simulated
    // crash) hunt skips this: its report is partial by definition and the
    // re-measurement belongs to the resumed run.
    if (!report.aborted) {
        TELEM_SPAN("hunt.worst_remeasure");
        const testgen::PatternRecipe best_recipe =
            report.outcome.best.decode_recipe(generator_options.min_cycles,
                                              generator_options.max_cycles);
        const testgen::TestConditions best_conditions =
            report.outcome.best.decode_conditions(
                generator_options.condition_bounds);
        report.worst_test =
            generator.make_test(best_recipe, best_conditions, "worst-case");
        report.worst_record = session.measure(report.worst_test);
        if (report.worst_record.found) {
            report.worst_record.wcr = objective_wcr(
                objective, report.worst_record.trip_point, parameter.spec);
            report.worst_record.wcr_class =
                ga::classify(report.worst_record.wcr, options_.thresholds);
        }
    }

    report.faults = session.policy().counters();
    report.faults.merge(replica_faults);
    if (faults_on) {
        report.injected = stats_delta(injector->stats(), injected_before);
    }

    report.cache_stats = cache.stats();
    report.cache_preloaded = cache_preloaded;
    if (use_cache && !options_.cache.file.empty()) {
        // Atomic temp-file + rename: a hunt killed mid-save leaves the
        // previous warm cache intact, never a torn file.
        std::ostringstream out;
        if (!cache.save(out, cache_identity) ||
            !util::atomic_write_file(options_.cache.file, out.str())) {
            util::log_info("optimizer: failed to save trip cache to ",
                           options_.cache.file);
        }
    }
    report.ate_measurements = static_cast<std::size_t>(
        tester.log().total().applications - applications_before);
    util::log_info("optimizer: best WCR ", report.outcome.best_fitness, " in ",
                   report.outcome.evaluations, " evaluations, ",
                   report.ate_measurements, " measurements (jobs ",
                   report.jobs, ", cache hits ", report.cache_stats.hits,
                   ")");
    return report;
}

}  // namespace cichar::core
