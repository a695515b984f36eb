#include "core/learner.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "device/memory_chip.hpp"
#include "nn/weights_io.hpp"
#include "util/binio.hpp"
#include "util/statistics.hpp"

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
    opts.additional_tests_per_round = 30;
    opts.max_rounds = 2;
    opts.committee.members = 3;
    opts.committee.hidden_layers = {12};
    opts.committee.train.max_epochs = 120;
    return opts;
}

testgen::RandomGeneratorOptions nominal_generator() {
    testgen::RandomGeneratorOptions g;
    g.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    return g;
}

struct LearnFixture : ::testing::Test {
    LearnFixture()
        : chip({}, noiseless()),
          tester(chip),
          parameter(ate::Parameter::data_valid_time()),
          generator(nominal_generator()) {}

    LearnResult run(LearnerOptions opts = fast_learner()) {
        util::Rng rng(42);
        const CharacterizationLearner learner(opts);
        return learner.run(tester, parameter, generator, rng);
    }

    device::MemoryTestChip chip;
    ate::Tester tester;
    ate::Parameter parameter;
    testgen::RandomTestGenerator generator;
};

TEST_F(LearnFixture, ConvergesOnLearnableDevice) {
    const LearnResult result = run();
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.rounds, 1u);
    EXPECT_EQ(result.tests_measured, 60u);
    EXPECT_EQ(result.dsv.size(), 60u);
    EXPECT_LT(result.mean_validation_error, 0.04);
    EXPECT_EQ(result.model.committee().member_count(), 3u);
}

TEST_F(LearnFixture, PredictionCorrelatesWithTruth) {
    const LearnResult result = run();
    util::Rng rng(99);
    std::vector<double> predicted;
    std::vector<double> truth;
    for (int i = 0; i < 120; ++i) {
        const testgen::Test t = generator.random_test(rng);
        predicted.push_back(result.model.predict_wcr(t));
        truth.push_back(20.0 / chip.true_parameter(
                                  t, device::ParameterKind::kDataValidTime));
    }
    EXPECT_GT(util::correlation(predicted, truth), 0.8);
}

TEST_F(LearnFixture, PredictedTripPointsInvertPredictedWcr) {
    const LearnResult result = run();
    util::Rng rng(99);
    std::vector<testgen::Test> tests;
    for (int i = 0; i < 120; ++i) tests.push_back(generator.random_test(rng));
    PredictScratch scratch;
    std::vector<std::optional<double>> trips;
    result.model.predicted_trip_points(tests, scratch, trips);
    ASSERT_EQ(trips.size(), tests.size());
    std::vector<double> predicted;
    std::vector<double> truth;
    for (std::size_t i = 0; i < tests.size(); ++i) {
        ASSERT_TRUE(trips[i].has_value());
        // T_DQ is a min-limit spec: WCR = spec / T_DQ, clamped to CR, and
        // the batched committee pass is bit-identical to predict_wcr().
        EXPECT_EQ(*trips[i],
                  parameter.clamp(parameter.spec /
                                  result.model.predict_wcr(tests[i])));
        predicted.push_back(*trips[i]);
        truth.push_back(chip.true_parameter(
            tests[i], device::ParameterKind::kDataValidTime));
    }
    EXPECT_GT(util::correlation(predicted, truth), 0.8);

    // Any batch size gives the same trip points, the scratch reused.
    std::vector<std::optional<double>> part;
    for (const std::size_t size :
         {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
        result.model.predicted_trip_points(
            std::span<const testgen::Test>(tests).subspan(0, size), scratch,
            part);
        ASSERT_EQ(part.size(), size);
        for (std::size_t i = 0; i < size; ++i) {
            EXPECT_EQ(part[i], trips[i]) << "batch " << size << " test " << i;
        }
    }
}

TEST_F(LearnFixture, NumericCodingAlsoWorks) {
    LearnerOptions opts = fast_learner();
    opts.coding = fuzzy::CodingScheme::kNumeric;
    const LearnResult result = run(opts);
    EXPECT_EQ(result.model.coder().scheme(), fuzzy::CodingScheme::kNumeric);
    EXPECT_EQ(result.model.coder().output_count(), 1u);
    util::Rng rng(7);
    const testgen::Test t = generator.random_test(rng);
    const double wcr = result.model.predict_wcr(t);
    EXPECT_GT(wcr, 0.3);
    EXPECT_LT(wcr, 1.1);
}

TEST_F(LearnFixture, LedgerUsesLearningPhase) {
    (void)run();
    EXPECT_GT(tester.log().phase_counters("learning").applications, 100u);
}

TEST_F(LearnFixture, VoteExposesAgreement) {
    const LearnResult result = run();
    util::Rng rng(3);
    const testgen::Test t = generator.random_test(rng);
    const nn::VoteResult vote = result.model.vote(t);
    EXPECT_GE(vote.agreement, 1.0 / 3.0);
    EXPECT_LE(vote.agreement, 1.0);
    EXPECT_EQ(vote.mean_output.size(), result.model.coder().output_count());
}

TEST_F(LearnFixture, FeaturesHaveExpectedWidth) {
    const LearnResult result = run();
    util::Rng rng(4);
    const testgen::Test t = generator.random_test(rng);
    EXPECT_EQ(result.model.features_of(t).size(), testgen::kFeatureCount);
}

TEST_F(LearnFixture, WeightFileRoundTripKeepsPredictions) {
    const LearnResult result = run();
    std::stringstream stream;
    nn::save_committee(stream, result.model.committee());
    const nn::VotingCommittee loaded = nn::load_committee(stream);

    const LearnedModel restored(loaded, result.model.coder(),
                                result.model.generator_options(),
                                result.model.parameter());
    util::Rng rng(5);
    for (int i = 0; i < 10; ++i) {
        const testgen::Test t = generator.random_test(rng);
        EXPECT_DOUBLE_EQ(result.model.predict_wcr(t),
                         restored.predict_wcr(t));
    }
}

TEST_F(LearnFixture, UnlearnableTargetsTriggerRetryRounds) {
    // A committee that is far too small to learn, with strict thresholds:
    // every round fails the learnability/generalization check and the
    // learner keeps measuring more tests (Fig. 4's go-back-to-step-1).
    LearnerOptions opts = fast_learner();
    opts.committee.hidden_layers = {1};
    opts.committee.train.max_epochs = 2;
    opts.committee.train.learnability_mse = 1e-9;
    opts.committee.train.generalization_mse = 1e-9;
    opts.max_rounds = 2;
    const LearnResult result = run(opts);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.rounds, 2u);
    EXPECT_EQ(result.tests_measured, 60u + 30u);
}

// The in-situ default pinned byte for byte: the committee weight file
// plus every DSV record of a noisy learn with a random first round and an
// uncertainty-acquired second one. Learning's measurements go through the
// shared evaluation pipeline; in situ it must keep today's draws, names
// and measurement order exactly.
std::uint64_t in_situ_learning_digest(std::uint64_t seed) {
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    LearnerOptions opts = fast_learner();
    opts.min_rounds = 2;
    opts.acquisition = Acquisition::kUncertainty;
    opts.acquisition_pool = 200;
    util::Rng rng(seed);
    const LearnResult result = CharacterizationLearner(opts).run(
        tester, ate::Parameter::data_valid_time(),
        testgen::RandomTestGenerator(), rng);
    EXPECT_EQ(result.tests_measured, 60u + 30u);
    std::ostringstream committee;
    nn::save_committee(committee, result.model.committee());
    std::string bytes = committee.str();
    for (const TripPointRecord& record : result.dsv.records()) {
        record.save(bytes);
    }
    return util::checksum64(bytes);
}

TEST(LearnerTest, InSituLearningGoldenDigest) {
    EXPECT_EQ(in_situ_learning_digest(2005), 0xa2369cab73eb2df8ULL);
    EXPECT_EQ(in_situ_learning_digest(7), 0xdb77f057252792f4ULL);
}

}  // namespace
}  // namespace cichar::core
