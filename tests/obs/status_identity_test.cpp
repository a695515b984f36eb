// The invisibility contract, proven at the library level: running the
// exact same hunt or lot with the status feed enabled (board posts on
// every GA generation + a background snapshot writer racing the run)
// must produce byte-identical reports and ledgers to a run with the
// feed off, at any thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/optimizer.hpp"
#include "device/memory_chip.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"
#include "obs/status_board.hpp"
#include "obs/status_writer.hpp"

namespace cichar::obs {
namespace {

namespace fs = std::filesystem;

lot::LotOptions fast_lot(std::size_t sites, std::size_t jobs) {
    lot::LotOptions options;
    options.sites = sites;
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
    return options;
}

struct LotArtifacts {
    std::string report;
    std::string ledger;
};

LotArtifacts run_lot(std::size_t jobs, bool with_feed) {
    StatusBoard::instance().reset_for_test();
    set_status_enabled(with_feed);
    LotArtifacts artifacts;
    if (with_feed) {
        // Named after the test: ctest runs each test in its own process,
        // in parallel, so a shared directory would collide.
        const fs::path dir =
            std::string("obs_identity_feed_dir_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        fs::remove_all(dir);
        StatusWriterOptions writer_options;
        writer_options.directory = dir.string();
        writer_options.name = "lot";
        writer_options.interval_seconds = 0.005;  // hammer the board
        StatusWriter writer(std::move(writer_options));
        const lot::LotResult result =
            lot::LotRunner(fast_lot(3, jobs)).run();
        artifacts.report = lot::LotReport::build(result).render();
        artifacts.ledger = result.merged_log.report();
        writer.stop();
        fs::remove_all(dir);
    } else {
        const lot::LotResult result =
            lot::LotRunner(fast_lot(3, jobs)).run();
        artifacts.report = lot::LotReport::build(result).render();
        artifacts.ledger = result.merged_log.report();
    }
    set_status_enabled(false);
    StatusBoard::instance().reset_for_test();
    return artifacts;
}

TEST(ObsIdentityTest, LotReportIsByteIdenticalWithFeedOnSerial) {
    const LotArtifacts off = run_lot(1, /*with_feed=*/false);
    const LotArtifacts on = run_lot(1, /*with_feed=*/true);
    EXPECT_EQ(off.report, on.report);
    EXPECT_EQ(off.ledger, on.ledger);
}

TEST(ObsIdentityTest, LotReportIsByteIdenticalWithFeedOnParallel) {
    const LotArtifacts off = run_lot(4, /*with_feed=*/false);
    const LotArtifacts on = run_lot(4, /*with_feed=*/true);
    EXPECT_EQ(off.report, on.report);
    EXPECT_EQ(off.ledger, on.ledger);
}

core::OptimizerOptions fast_hunt(bool parallel) {
    core::OptimizerOptions options;
    options.ga.population.size = 10;
    options.ga.populations = 2;
    options.ga.max_generations = 6;
    options.ga.max_restarts = 1;
    options.parallel.enabled = parallel;
    options.parallel.jobs = 4;
    return options;
}

core::WorstCaseReport run_hunt(bool parallel, bool with_feed) {
    StatusBoard::instance().reset_for_test();
    set_status_enabled(with_feed);
    device::MemoryChipOptions chip_options;
    chip_options.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, chip_options);
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    util::Rng rng(2005);
    core::OptimizerOptions options = fast_hunt(parallel);
    if (with_feed) {
        StatusBoard::instance().begin_campaign("hunt", "fp-id", 2005, 1);
        options.on_generation = [](const core::HuntProgress& hunt) {
            GenerationPost post;
            post.generation = hunt.next_generation;
            post.generations_total = hunt.max_generations;
            post.evaluations = hunt.evaluations;
            post.best_wcr = hunt.best_fitness;
            post.ate_applications = hunt.ate_applications;
            post.cache_hits = hunt.cache.hits;
            post.cache_misses = hunt.cache.misses;
            post.inflight = hunt.inflight;
            StatusBoard::instance().post_generation(0, post);
        };
    }
    testgen::RandomGeneratorOptions generator;
    generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    const core::WorstCaseReport report = core::WorstCaseOptimizer(options)
        .run_unseeded(tester, param, generator,
                      core::objective_for(param), rng);
    set_status_enabled(false);
    StatusBoard::instance().reset_for_test();
    return report;
}

void expect_same_hunt(const core::WorstCaseReport& a,
                      const core::WorstCaseReport& b) {
    EXPECT_DOUBLE_EQ(a.worst_record.trip_point, b.worst_record.trip_point);
    EXPECT_DOUBLE_EQ(a.worst_record.wcr, b.worst_record.wcr);
    EXPECT_EQ(a.worst_record.found, b.worst_record.found);
    EXPECT_EQ(a.outcome.evaluations, b.outcome.evaluations);
    EXPECT_DOUBLE_EQ(a.outcome.best_fitness, b.outcome.best_fitness);
    EXPECT_EQ(a.ate_measurements, b.ate_measurements);
}

TEST(ObsIdentityTest, HuntIsUnchangedByProgressHookSerial) {
    expect_same_hunt(run_hunt(/*parallel=*/false, /*with_feed=*/false),
                     run_hunt(/*parallel=*/false, /*with_feed=*/true));
}

TEST(ObsIdentityTest, HuntIsUnchangedByProgressHookParallel) {
    expect_same_hunt(run_hunt(/*parallel=*/true, /*with_feed=*/false),
                     run_hunt(/*parallel=*/true, /*with_feed=*/true));
}

}  // namespace
}  // namespace cichar::obs
