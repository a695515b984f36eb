// The telemetry determinism contract: with the registry and tracing
// enabled, hunt and lot results (rendered reports and ledgers) are
// byte-identical to a telemetry-off run at any jobs count. Timestamps
// and counters live only in the out-of-band stream.
#include <string>

#include <gtest/gtest.h>

#include "../core/small_model.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "device/memory_chip.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"
#include "util/telemetry.hpp"

namespace cichar {
namespace {

namespace telem = util::telemetry;

/// Runs `body()` with both telemetry switches in the given state,
/// restoring the default-off state (and clearing trace/metric values)
/// afterwards so tests never leak into each other.
std::string with_telemetry(bool enabled, const auto& body) {
    telem::set_metrics_enabled(enabled);
    telem::set_tracing_enabled(enabled);
    const std::string rendered = body();
    telem::set_metrics_enabled(false);
    telem::set_tracing_enabled(false);
    telem::Registry::instance().reset_values();
    telem::Trace::instance().clear();
    return rendered;
}

/// `anchored` hunts with core::small_learned_model() (NN seeding, and
/// trip searches anchored at the committee's predicted trip point).
std::string run_hunt(std::size_t jobs, std::size_t inflight = 1,
                     bool anchored = false) {
    device::MemoryChipOptions chip_options;
    chip_options.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, chip_options);
    ate::Tester tester(chip);
    util::Rng rng(2005);
    testgen::RandomGeneratorOptions generator;
    generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();

    core::OptimizerOptions opts;
    opts.ga.population.size = 8;
    opts.ga.populations = 2;
    opts.ga.max_generations = 6;
    opts.parallel.enabled = jobs != 1 || inflight > 1;
    opts.parallel.jobs = jobs;
    opts.parallel.inflight = inflight;
    opts.cache.enabled = true;
    core::use_small_seeding(opts);
    const core::WorstCaseOptimizer optimizer(opts);

    const ate::Parameter param = ate::Parameter::data_valid_time();
    const core::WorstCaseReport report =
        anchored ? optimizer.run(tester, param, core::small_learned_model(),
                                 core::Objective::kDriftToMinimum, rng)
                 : optimizer.run_unseeded(tester, param, generator,
                                          core::Objective::kDriftToMinimum,
                                          rng);
    core::ReportInputs inputs;
    inputs.seed = 2005;
    inputs.hunt = &report;
    inputs.ledger = &tester.log();
    return core::render_report(inputs);
}

std::string run_lot(std::size_t jobs) {
    lot::LotOptions options;
    options.sites = 3;
    options.jobs = jobs;
    options.seed = 77;
    options.characterizer.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.characterizer.learner.training_tests = 24;
    options.characterizer.learner.max_rounds = 1;
    options.characterizer.learner.committee.members = 2;
    options.characterizer.learner.committee.hidden_layers = {8};
    options.characterizer.learner.committee.train.max_epochs = 40;
    options.characterizer.optimizer.ga.population.size = 8;
    options.characterizer.optimizer.ga.populations = 2;
    options.characterizer.optimizer.ga.max_generations = 4;
    options.characterizer.optimizer.nn_candidates = 80;
    options.characterizer.optimizer.nn_seed_count = 4;
    const lot::LotResult result = lot::LotRunner(options).run();
    return lot::LotReport::build(result).render() +
           result.merged_log.report();
}

TEST(TelemetryIdentityTest, HuntReportIdenticalTelemetryOnVsOff) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        const std::string off = with_telemetry(false, [&] {
            return run_hunt(jobs);
        });
        const std::string on = with_telemetry(true, [&] {
            return run_hunt(jobs);
        });
        EXPECT_EQ(off, on) << "jobs=" << jobs;
    }
}

TEST(TelemetryIdentityTest, AsyncHuntReportIdenticalTelemetryOnVsOff) {
    // The async pipeline's queue metrics (in-flight gauge, wait histogram,
    // reorder counter) must be as contractually invisible as the rest of
    // the registry.
    const std::string off = with_telemetry(false, [&] {
        return run_hunt(4, 8);
    });
    const std::string on = with_telemetry(true, [&] {
        return run_hunt(4, 8);
    });
    EXPECT_EQ(off, on);
}

TEST(TelemetryIdentityTest, AnchoredHuntReportIdenticalTelemetryOnVsOff) {
    // The model is learned once, outside the telemetry switch.
    (void)core::small_learned_model();
    for (const std::size_t inflight : {std::size_t{1}, std::size_t{8}}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            const std::string off = with_telemetry(false, [&] {
                return run_hunt(jobs, inflight, /*anchored=*/true);
            });
            const std::string on = with_telemetry(true, [&] {
                return run_hunt(jobs, inflight, /*anchored=*/true);
            });
            EXPECT_EQ(off, on) << "jobs=" << jobs << " inflight=" << inflight;
        }
    }
}

TEST(TelemetryIdentityTest, LotReportIdenticalTelemetryOnVsOff) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        const std::string off = with_telemetry(false, [&] {
            return run_lot(jobs);
        });
        const std::string on = with_telemetry(true, [&] {
            return run_lot(jobs);
        });
        EXPECT_EQ(off, on) << "jobs=" << jobs;
    }
}

TEST(TelemetryIdentityTest, TelemetryOnActuallyRecords) {
    // Guard against the identity tests passing vacuously: the enabled run
    // must populate counters and spans.
    telem::set_metrics_enabled(true);
    telem::set_tracing_enabled(true);
    (void)run_hunt(2);
    telem::set_metrics_enabled(false);
    telem::set_tracing_enabled(false);

    EXPECT_GT(telem::Registry::instance()
                  .counter("cichar_ate_measurements_total")
                  .value(),
              0u);
    EXPECT_GT(telem::Registry::instance()
                  .counter("cichar_hunt_evaluations_total")
                  .value(),
              0u);
    EXPECT_GT(telem::Trace::instance().event_count(), 0u);
    telem::Registry::instance().reset_values();
    telem::Trace::instance().clear();
}

TEST(TelemetryIdentityTest, AsyncQueueMetricsActuallyRecord) {
    // Guard the async identity test against passing vacuously: an enabled
    // inflight>1 hunt must populate the queue-wait histogram.
    telem::set_metrics_enabled(true);
    (void)run_hunt(2, 8);
    telem::set_metrics_enabled(false);

    EXPECT_GT(telem::Registry::instance()
                  .histogram("cichar_ate_async_queue_wait_ns", {})
                  .snapshot()
                  .count,
              0u);
    telem::Registry::instance().reset_values();
}

}  // namespace
}  // namespace cichar
