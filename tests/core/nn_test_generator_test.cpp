#include "core/nn_test_generator.hpp"

#include <gtest/gtest.h>

#include "device/presets.hpp"
#include "util/statistics.hpp"

namespace cichar::core {
namespace {

struct GeneratorFixture : ::testing::Test {
    GeneratorFixture() : chip(device::presets::noiseless()), tester(chip) {}

    LearnResult learn() {
        LearnerOptions opts;
        opts.training_tests = 70;
        opts.committee.members = 3;
        opts.committee.hidden_layers = {12};
        opts.committee.train.max_epochs = 100;
        const CharacterizationLearner learner(opts);
        testgen::RandomGeneratorOptions gen;
        gen.condition_bounds = testgen::ConditionBounds::fixed_nominal();
        util::Rng rng(42);
        return learner.run(tester, ate::Parameter::data_valid_time(),
                           testgen::RandomTestGenerator(gen), rng);
    }

    device::MemoryTestChip chip;
    ate::Tester tester;
};

TEST_F(GeneratorFixture, SuggestionsSortedWorstFirst) {
    const LearnResult learned = learn();
    const NnTestGenerator generator(learned.model);
    util::Rng rng(1);
    const auto suggestions = generator.suggest(400, 10, rng, {});
    ASSERT_EQ(suggestions.size(), 10u);
    for (std::size_t i = 1; i < suggestions.size(); ++i) {
        EXPECT_GE(suggestions[i - 1].predicted_wcr,
                  suggestions[i].predicted_wcr);
    }
}

TEST_F(GeneratorFixture, TopKClampedToCandidates) {
    const LearnResult learned = learn();
    const NnTestGenerator generator(learned.model);
    util::Rng rng(2);
    EXPECT_EQ(generator.suggest(5, 10, rng, {}).size(), 5u);
}

TEST_F(GeneratorFixture, SuggestionsStressDeviceMoreThanAverage) {
    const LearnResult learned = learn();
    const NnTestGenerator generator(learned.model);
    util::Rng rng(3);
    const auto suggestions = generator.suggest(600, 10, rng, {});

    // Ground-truth WCR of the suggested tests vs a random baseline.
    const testgen::RandomTestGenerator expand(
        learned.model.generator_options());
    util::RunningStats suggested;
    for (const TestSuggestion& s : suggestions) {
        const testgen::Test t = expand.make_test(s.recipe, s.conditions);
        suggested.add(20.0 / chip.true_parameter(
                                 t, device::ParameterKind::kDataValidTime));
    }
    util::Rng base_rng(4);
    util::RunningStats baseline;
    for (int i = 0; i < 100; ++i) {
        const testgen::Test t = expand.random_test(base_rng);
        baseline.add(20.0 / chip.true_parameter(
                                t, device::ParameterKind::kDataValidTime));
    }
    EXPECT_GT(suggested.mean(), baseline.mean() + 0.01);
}

TEST_F(GeneratorFixture, PredictionsTrackTruthOnSuggestions) {
    const LearnResult learned = learn();
    const NnTestGenerator generator(learned.model);
    util::Rng rng(5);
    const auto suggestions = generator.suggest(300, 15, rng, {});
    const testgen::RandomTestGenerator expand(
        learned.model.generator_options());
    for (const TestSuggestion& s : suggestions) {
        const testgen::Test t = expand.make_test(s.recipe, s.conditions);
        const double truth = 20.0 / chip.true_parameter(
                                        t, device::ParameterKind::kDataValidTime);
        EXPECT_NEAR(s.predicted_wcr, truth, 0.15);
        EXPECT_GE(s.vote_agreement, 1.0 / 3.0);
        EXPECT_LE(s.vote_agreement, 1.0);
    }
}

TEST_F(GeneratorFixture, ChromosomesRoundTripSuggestions) {
    const LearnResult learned = learn();
    const NnTestGenerator generator(learned.model);
    util::Rng rng_a(6);
    util::Rng rng_b(6);
    const auto suggestions = generator.suggest(200, 5, rng_a, {});
    const auto chromosomes = generator.suggest_chromosomes(200, 5, rng_b, {});
    ASSERT_EQ(chromosomes.size(), suggestions.size());
    const auto& opts = learned.model.generator_options();
    for (std::size_t i = 0; i < chromosomes.size(); ++i) {
        const testgen::PatternRecipe decoded =
            chromosomes[i].decode_recipe(opts.min_cycles, opts.max_cycles);
        EXPECT_EQ(decoded.seed, suggestions[i].recipe.seed);
        EXPECT_EQ(decoded.cycles, suggestions[i].recipe.cycles);
        EXPECT_NEAR(decoded.bank_conflict_bias,
                    suggestions[i].recipe.bank_conflict_bias, 1e-6);
    }
}

TEST_F(GeneratorFixture, TopKIdenticalAtEveryBatchAndJobsCombination) {
    const LearnResult learned = learn();
    const NnTestGenerator generator(learned.model);

    // Reference: serial scoring one candidate per batch.
    ScoringOptions reference_options;
    reference_options.jobs = 1;
    reference_options.batch = 1;
    util::Rng reference_rng(11);
    const auto reference =
        generator.suggest(300, 12, reference_rng, reference_options);
    ASSERT_EQ(reference.size(), 12u);

    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            ScoringOptions options;
            options.jobs = jobs;
            options.batch = batch;
            util::Rng rng(11);
            const auto got = generator.suggest(300, 12, rng, options);
            ASSERT_EQ(got.size(), reference.size())
                << "batch " << batch << " jobs " << jobs;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].recipe, reference[i].recipe);
                EXPECT_EQ(got[i].conditions, reference[i].conditions);
                EXPECT_EQ(got[i].predicted_wcr, reference[i].predicted_wcr)
                    << "batch " << batch << " jobs " << jobs << " rank " << i;
                EXPECT_EQ(got[i].vote_agreement, reference[i].vote_agreement);
            }
        }
    }
}

TEST_F(GeneratorFixture, SoftwareOnlyNoAteMeasurements) {
    const LearnResult learned = learn();
    const std::uint64_t before = tester.log().total().applications;
    const NnTestGenerator generator(learned.model);
    util::Rng rng(7);
    (void)generator.suggest(500, 10, rng, {});
    EXPECT_EQ(tester.log().total().applications, before)
        << "NN test generation must cost zero ATE measurements";
}

}  // namespace
}  // namespace cichar::core
