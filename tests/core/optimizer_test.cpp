#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include "device/memory_chip.hpp"

namespace cichar::core {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

LearnerOptions fast_learner() {
    LearnerOptions opts;
    opts.training_tests = 60;
    opts.committee.members = 3;
    opts.committee.hidden_layers = {12};
    opts.committee.train.max_epochs = 120;
    return opts;
}

OptimizerOptions fast_optimizer() {
    OptimizerOptions opts;
    opts.ga.population.size = 12;
    opts.ga.populations = 2;
    opts.ga.max_generations = 14;
    opts.ga.max_restarts = 2;
    opts.nn_candidates = 300;
    opts.nn_seed_count = 8;
    return opts;
}

testgen::RandomGeneratorOptions nominal_generator() {
    testgen::RandomGeneratorOptions g;
    g.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    return g;
}

struct OptimizerFixture : ::testing::Test {
    OptimizerFixture()
        : chip({}, noiseless()),
          tester(chip),
          parameter(ate::Parameter::data_valid_time()) {}

    LearnResult learn() {
        util::Rng rng(42);
        const CharacterizationLearner learner(fast_learner());
        const testgen::RandomTestGenerator generator(nominal_generator());
        return learner.run(tester, parameter, generator, rng);
    }

    device::MemoryTestChip chip;
    ate::Tester tester;
    ate::Parameter parameter;
};

TEST_F(OptimizerFixture, FindsWorseTestsThanRandomLearning) {
    const LearnResult learned = learn();
    const double learned_worst = learned.dsv.worst().wcr;

    util::Rng rng(7);
    const WorstCaseOptimizer optimizer(fast_optimizer());
    const WorstCaseReport report = optimizer.run(
        tester, parameter, learned.model, Objective::kDriftToMinimum, rng);

    EXPECT_GT(report.outcome.best_fitness, learned_worst + 0.05);
    EXPECT_GT(report.outcome.best_fitness, 0.8);  // weakness band reached
    ASSERT_TRUE(report.worst_record.found);
    EXPECT_LT(report.worst_record.trip_point, 25.0);
}

TEST_F(OptimizerFixture, DatabasePopulatedAndSorted) {
    const LearnResult learned = learn();
    util::Rng rng(8);
    const WorstCaseOptimizer optimizer(fast_optimizer());
    const WorstCaseReport report = optimizer.run(
        tester, parameter, learned.model, Objective::kDriftToMinimum, rng);
    ASSERT_FALSE(report.database.empty());
    const auto& entries = report.database.entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
        EXPECT_GE(entries[i - 1].wcr, entries[i].wcr);
    }
    EXPECT_NEAR(report.database.worst().wcr, report.outcome.best_fitness,
                0.05);
}

TEST_F(OptimizerFixture, WorstTestReproducible) {
    const LearnResult learned = learn();
    util::Rng rng(9);
    const WorstCaseOptimizer optimizer(fast_optimizer());
    const WorstCaseReport report = optimizer.run(
        tester, parameter, learned.model, Objective::kDriftToMinimum, rng);

    // The stored recipe re-expands to the identical pattern.
    const testgen::RandomTestGenerator generator(
        learned.model.generator_options());
    const auto& opts = learned.model.generator_options();
    const testgen::PatternRecipe recipe =
        report.outcome.best.decode_recipe(opts.min_cycles, opts.max_cycles);
    const testgen::TestPattern again = generator.expand(recipe, "worst-case");
    EXPECT_EQ(again, report.worst_test.pattern);
}

TEST_F(OptimizerFixture, MeasurementsAccounted) {
    const LearnResult learned = learn();
    util::Rng rng(10);
    const WorstCaseOptimizer optimizer(fast_optimizer());
    const WorstCaseReport report = optimizer.run(
        tester, parameter, learned.model, Objective::kDriftToMinimum, rng);
    EXPECT_GT(report.ate_measurements, report.outcome.evaluations);
    EXPECT_GT(tester.log().phase_counters("ga-optimization").applications, 0u);
}

TEST_F(OptimizerFixture, UnseededRunWorks) {
    util::Rng rng(11);
    const WorstCaseOptimizer optimizer(fast_optimizer());
    const WorstCaseReport report = optimizer.run_unseeded(
        tester, parameter, nominal_generator(), Objective::kDriftToMinimum,
        rng);
    EXPECT_GT(report.outcome.best_fitness, 0.7);
    ASSERT_TRUE(report.worst_record.found);
}

TEST_F(OptimizerFixture, TargetFitnessStops) {
    const LearnResult learned = learn();
    util::Rng rng(12);
    OptimizerOptions opts = fast_optimizer();
    opts.ga.target_fitness = 0.75;  // easily reached
    const WorstCaseOptimizer optimizer(opts);
    const WorstCaseReport report = optimizer.run(
        tester, parameter, learned.model, Objective::kDriftToMinimum, rng);
    EXPECT_TRUE(report.outcome.target_reached);
}

TEST_F(OptimizerFixture, BatchKnobDoesNotChangeTheHunt) {
    const LearnResult learned = learn();
    OptimizerOptions small = fast_optimizer();
    small.nn_score_batch = 1;
    OptimizerOptions large = fast_optimizer();
    large.nn_score_batch = 128;

    util::Rng rng_a(31);
    const WorstCaseReport a = WorstCaseOptimizer(small).run(
        tester, parameter, learned.model, Objective::kDriftToMinimum, rng_a);
    util::Rng rng_b(31);
    const WorstCaseReport b = WorstCaseOptimizer(large).run(
        tester, parameter, learned.model, Objective::kDriftToMinimum, rng_b);

    EXPECT_EQ(a.outcome.best_fitness, b.outcome.best_fitness);
    EXPECT_EQ(a.outcome.evaluations, b.outcome.evaluations);
    EXPECT_EQ(a.worst_record.trip_point, b.worst_record.trip_point);
}

TEST(ObjectiveTest, NamesAndDefaults) {
    EXPECT_STREQ(to_string(Objective::kDriftToMinimum), "drift-to-minimum");
    EXPECT_STREQ(to_string(Objective::kDriftToMaximum), "drift-to-maximum");
    EXPECT_EQ(objective_for(ate::Parameter::data_valid_time()),
              Objective::kDriftToMinimum);
    EXPECT_EQ(objective_for(ate::Parameter::min_vdd()),
              Objective::kDriftToMaximum);
}

TEST(ObjectiveTest, MaximizationObjectiveOnVmin) {
    // Hunting the *maximum* Vmin (worst supply sensitivity) exercises
    // eq. (5) and the reversed search direction together.
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    util::Rng rng(13);
    OptimizerOptions opts;
    opts.ga.population.size = 10;
    opts.ga.populations = 1;
    opts.ga.max_generations = 5;
    const WorstCaseOptimizer optimizer(opts);
    testgen::RandomGeneratorOptions gen;
    gen.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    const WorstCaseReport report = optimizer.run_unseeded(
        tester, ate::Parameter::min_vdd(), gen, Objective::kDriftToMaximum,
        rng);
    ASSERT_TRUE(report.worst_record.found);
    // Vmin worst case: the GA pushes vmin upward (toward the 1.6 V spec).
    EXPECT_GT(report.outcome.best_fitness, 0.75);
    EXPECT_LT(report.outcome.best_fitness, 1.1);
}

}  // namespace
}  // namespace cichar::core
