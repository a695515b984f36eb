#include "core/optimizer.hpp"

#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/crash_point.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

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

/// Big blobs inside a checkpoint payload (database/device state) may
/// exceed the default string cap.
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
    // A resumed hunt already holds fully dealt populations in its
    // checkpoint; NN seeding would only burn committee time (the rng it
    // would consume is restored from the blob regardless).
    std::vector<ga::TestChromosome> seeds;
    if (options_.checkpoint.resume_blob.empty()) {
        seeds = suggest_seeds(
            model, rng, options_.parallel.enabled ? options_.parallel.jobs : 1);
    }
    return run(tester, parameter, model, std::move(seeds), objective, rng);
}

WorstCaseReport WorstCaseOptimizer::run(ate::Tester& tester,
                                        const ate::Parameter& parameter,
                                        const LearnedModel& model,
                                        std::vector<ga::TestChromosome> seeds,
                                        Objective objective,
                                        util::Rng& rng) const {
    return drive(tester, parameter, model.generator_options(), &model,
                 std::move(seeds), objective, rng);
}

std::vector<ga::TestChromosome> WorstCaseOptimizer::suggest_seeds(
    const LearnedModel& model, util::Rng& rng, std::size_t jobs) const {
    ScoringOptions scoring;
    scoring.jobs = jobs;
    scoring.batch = options_.nn_score_batch;
    TELEM_SPAN("hunt.nn_seeding");
    return NnTestGenerator(model).suggest_chromosomes(
        options_.nn_candidates, options_.nn_seed_count, rng, scoring);
}

WorstCaseReport WorstCaseOptimizer::run_unseeded(
    ate::Tester& tester, const ate::Parameter& parameter,
    const testgen::RandomGeneratorOptions& generator_options,
    Objective objective, util::Rng& rng) const {
    return drive(tester, parameter, generator_options, nullptr, {},
                 objective, rng);
}

WorstCaseReport WorstCaseOptimizer::drive(
    ate::Tester& tester, const ate::Parameter& parameter,
    const testgen::RandomGeneratorOptions& generator_options,
    const LearnedModel* model, std::vector<ga::TestChromosome> seeds,
    Objective objective, util::Rng& rng) const {
    TELEM_SPAN("hunt.drive");
    ate::PhaseScope phase(tester.log(), "ga-optimization");
    std::uint64_t applications_before = tester.log().total().applications;
    ate::FaultInjector* injector = tester.fault_injector();
    const bool faults_on = injector != nullptr && injector->profile().any();
    ate::InjectionStats injected_before =
        faults_on ? injector->stats() : ate::InjectionStats{};
    const bool policy_on = options_.trip.policy.enabled;
    const bool resuming = !options_.checkpoint.resume_blob.empty();
    const bool checkpointing =
        static_cast<bool>(options_.checkpoint.save) ||
        options_.checkpoint.abort_after_generation > 0;

    const testgen::RandomTestGenerator generator(generator_options);
    WorstCaseDatabase database(options_.database_capacity);
    const bool use_cache = options_.cache.enabled;
    TripPointCache cache;
    // Empty without a model (run_unseeded): nothing reads or feeds it.
    ResidualMemory residuals;
    std::size_t eval_counter = 0;

    // The evaluation pipeline measures every fitness evaluation; in situ
    // its session on the live tester is the hunt's own. A measured trip
    // past the fail boundary also runs the functional pattern (cache hits
    // replay a known trip point without touching the tester, so the
    // functional pattern only ever follows a measurement).
    PipelineOptions pipeline_options;
    pipeline_options.trip = options_.trip;
    pipeline_options.parallel = options_.parallel;
    pipeline_options.phase = "ga-optimization";
    pipeline_options.noise_salt = 0x7e57;
    if (options_.check_functional_failures) {
        pipeline_options.functional_after = [&](const TripPointRecord& record) {
            return record.found &&
                   objective_wcr(objective, record.trip_point,
                                 parameter.spec) > options_.thresholds.fail;
        };
    }
    EvaluationPipeline pipeline(tester, parameter, std::move(pipeline_options),
                                rng);
    TripSession& session = pipeline.session();
    const bool parallel = pipeline.replicas();

    // ---- crash-safe checkpointing -----------------------------------
    // The payload snapshots every piece of dynamic state the hunt loop
    // depends on: rng streams, eval counter, session reference/policy,
    // the tester ledger and device state, injector state, cache and
    // database contents, the replica noise stream and RTP, the residual
    // memory, and the GA loop itself — so a resumed hunt is
    // byte-identical to one that was never interrupted. The cache body
    // goes in inline: the checkpoint envelope's checksum is its only seal.
    const auto serialize_state = [&](const ga::MultiPopulationCheckpoint& ck) {
        std::string out;
        util::put_rng(out, rng);
        util::put_u64(out, eval_counter);
        util::put_u64(out, applications_before);
        pipeline.replica_faults().save(out);
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
            cache.save_body(out, parameter.name);
            util::put_u64(out, cache.stats().hits);
            util::put_u64(out, cache.stats().misses);
            util::put_u64(out, cache.stats().evictions);
        }
        std::ostringstream db_stream;
        database.save(db_stream);
        util::put_string(out, db_stream.str());
        util::put_bool(out, parallel);
        if (parallel) util::put_rng(out, pipeline.noise_rng());
        util::put_bool(out, pipeline.rtp().has_value());
        util::put_double(out, pipeline.rtp().value_or(0.0));
        residuals.save(out);
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
        pipeline.replica_faults() = FaultCounters::load(in);
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
            if (!cache.load_body(in, parameter.name)) {
                throw std::runtime_error(
                    "hunt resume: trip cache body rejected");
            }
            TripCacheStats cache_stats;
            cache_stats.hits = in.get_u64();
            cache_stats.misses = in.get_u64();
            cache_stats.evictions = in.get_u64();
            cache.set_stats(cache_stats);
        }
        const std::string db_blob = in.get_string(kMaxBlob);
        std::istringstream db_stream{db_blob};
        database = WorstCaseDatabase::load(db_stream);
        if (in.get_bool() != parallel) {
            throw std::runtime_error(
                "hunt resume: parallel/serial mode mismatch");
        }
        if (parallel) pipeline.noise_rng() = in.get_rng();
        const bool has_rtp = in.get_bool();
        const double replica_rtp = in.get_double();
        if (has_rtp) pipeline.rtp() = replica_rtp;
        if (!residuals.load(in)) {
            throw std::runtime_error("hunt resume: residual memory rejected");
        }
        return ga::MultiPopulationCheckpoint::load(in,
                                                   options_.ga.population);
    };

    const ga::MultiPopulationGa driver(options_.ga);
    WorstCaseReport report;
    report.objective = objective;
    report.inflight = pipeline.inflight();
    report.jobs = pipeline.jobs();

    // The hunt's side of the pipeline, all on the calling thread in
    // submission order. A batch is first prepared: each chromosome is
    // decoded, named and made into its test, and with a model one batched
    // committee pass predicts every test's trip point, which the residual
    // of the nearest measured test then corrects; the search window
    // starts there. The GA drives its population away from the RTP and
    // into regions the learning tests never sampled, where the committee
    // is biased and its neighbours' residuals carry that bias. A cache
    // hit wastes its test and anchor, but hits are rare and one pass over
    // the batch costs less per test than a pass per test. The pipeline's
    // decode then consults the cache (in situ the pipeline runs batches
    // of one, so each lookup sees the previous insert), and reduce feeds
    // the cache, the residual memory and the database. The memory is
    // read only here and written only in reduce, so a batch's anchors
    // depend on earlier batches alone, at any jobs x inflight.
    struct Decoded {
        std::string name;
        testgen::PatternRecipe recipe;
        testgen::TestConditions conditions;
        TripCacheKey key;
    };
    std::vector<Decoded> decoded;
    std::vector<testgen::Test> tests;
    std::vector<std::optional<double>> predictions;
    std::vector<std::optional<double>> anchors;
    std::vector<double> values;
    PredictScratch predict_scratch;
    // Row i of the batch's features, left by predicted_trip_points.
    const auto feature_row = [&](std::size_t i) {
        return std::span<const double>(predict_scratch.features)
            .subspan(i * ResidualMemory::kWidth, ResidualMemory::kWidth);
    };
    const auto fitness = [&](std::span<const ga::TestChromosome> batch) {
        // A replica batch is traced as one span, its preparation
        // included; an in-situ batch stays in its generation's self time.
        std::optional<util::telemetry::SpanScope> span;
        if (parallel) span.emplace("hunt.fitness_batch");
        decoded.resize(batch.size());
        tests.resize(batch.size());
        values.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Decoded& d = decoded[i];
            d.recipe = batch[i].decode_recipe(generator_options.min_cycles,
                                              generator_options.max_cycles);
            d.conditions =
                batch[i].decode_conditions(generator_options.condition_bounds);
            d.name = "ga-" + std::to_string(eval_counter++);
            d.key = TripCacheKey{d.recipe, d.conditions};
            tests[i] = generator.make_test(d.recipe, d.conditions, d.name);
        }
        if (model != nullptr) {
            model->predicted_trip_points(tests, predict_scratch, predictions);
            anchors.resize(batch.size());
            for (std::size_t i = 0; i < batch.size(); ++i) {
                anchors[i] = residuals.anchor(feature_row(i), predictions[i],
                                              parameter);
            }
        }
        const auto decode = [&](std::size_t i, Evaluation& slot) {
            const Decoded& d = decoded[i];
            if (use_cache) {
                if (const CachedTrip* hit = cache.lookup(d.key)) {
                    slot.record = hit->replay(d.name);
                    return false;
                }
            }
            slot.test = std::move(tests[i]);
            if (model != nullptr) slot.anchor = anchors[i];
            return true;
        };
        const auto reduce = [&](std::size_t i, Evaluation& slot) {
            const Decoded& d = decoded[i];
            // A not-found record under the policy reflects an
            // environmental outage, not the chromosome: never memoize it,
            // or the outage would replay forever.
            if (!slot.cached && use_cache && (slot.record.found || !policy_on)) {
                cache.insert(d.key, slot.record);
            }
            if (model != nullptr) {
                residuals.observe(slot, predictions[i], feature_row(i));
            }
            if (!slot.record.found) {
                telem_hunt_evaluation(false, 0.0);
                values.push_back(0.0);  // no crossover: harmless
                return;
            }
            const double wcr =
                objective_wcr(objective, slot.record.trip_point, parameter.spec);
            telem_hunt_evaluation(true, wcr);
            database.add(WorstCaseEntry{d.name, d.recipe, d.conditions,
                                        slot.record.trip_point, wcr,
                                        ga::classify(wcr, options_.thresholds)});
            if (slot.functional_ran && !slot.functional.pass()) {
                database.add_functional_failure(FunctionalFailureRecord{
                    d.name, d.recipe, d.conditions,
                    slot.functional.miscompares,
                    slot.functional.first_fail_cycle});
            }
            values.push_back(wcr);
        };
        pipeline.run(batch.size(), decode, reduce);
        return values;
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
            progress.inflight = pipeline.inflight();
            options_.on_generation(progress);
        };
    }
    if (checkpointing) {
        hooks.on_generation = [&](const ga::MultiPopulationCheckpoint& ck) {
            const bool abort =
                options_.checkpoint.abort_after_generation > 0 &&
                ck.next_generation >= options_.checkpoint.abort_after_generation;
            if (options_.checkpoint.save) {
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

    report.outcome = driver.run(fitness, std::move(seeds), rng, hooks);
    report.slab = pipeline.slab_stats();

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

    report.faults = pipeline.faults();
    if (faults_on) {
        report.injected = stats_delta(injector->stats(), injected_before);
    }

    report.cache_stats = cache.stats();
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
