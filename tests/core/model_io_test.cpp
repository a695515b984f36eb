#include "core/model_io.hpp"

#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "device/memory_chip.hpp"

namespace cichar::core {
namespace {

LearnResult trained_model(fuzzy::CodingScheme coding,
                          ate::Tester& tester) {
    LearnerOptions opts;
    opts.training_tests = 50;
    opts.coding = coding;
    opts.committee.members = 2;
    opts.committee.hidden_layers = {8};
    opts.committee.train.max_epochs = 60;
    const CharacterizationLearner learner(opts);
    testgen::RandomGeneratorOptions gen;
    gen.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    util::Rng rng(42);
    return learner.run(tester, ate::Parameter::data_valid_time(),
                       testgen::RandomTestGenerator(gen), rng);
}

TEST(ModelIoTest, RoundTripPreservesPredictions) {
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, chip_opts);
    ate::Tester tester(chip);
    const LearnResult learned =
        trained_model(fuzzy::CodingScheme::kFuzzy, tester);

    std::stringstream stream;
    save_model(stream, learned.model);
    const LearnedModel loaded = load_model(stream);

    EXPECT_EQ(loaded.parameter().name, "T_DQ");
    EXPECT_EQ(loaded.coder().scheme(), fuzzy::CodingScheme::kFuzzy);
    EXPECT_EQ(loaded.committee().member_count(), 2u);

    const testgen::RandomTestGenerator gen(loaded.generator_options());
    util::Rng rng(9);
    for (int i = 0; i < 10; ++i) {
        const testgen::Test t = gen.random_test(rng);
        EXPECT_DOUBLE_EQ(learned.model.predict_wcr(t), loaded.predict_wcr(t));
    }
}

TEST(ModelIoTest, NumericCodingRoundTrip) {
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, chip_opts);
    ate::Tester tester(chip);
    const LearnResult learned =
        trained_model(fuzzy::CodingScheme::kNumeric, tester);
    std::stringstream stream;
    save_model(stream, learned.model);
    const LearnedModel loaded = load_model(stream);
    EXPECT_EQ(loaded.coder().scheme(), fuzzy::CodingScheme::kNumeric);
    EXPECT_EQ(loaded.coder().output_count(), 1u);
}

TEST(ModelIoTest, GeneratorContextPreserved) {
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, chip_opts);
    ate::Tester tester(chip);
    const LearnResult learned =
        trained_model(fuzzy::CodingScheme::kFuzzy, tester);
    std::stringstream stream;
    save_model(stream, learned.model);
    const LearnedModel loaded = load_model(stream);
    const auto& b = loaded.generator_options().condition_bounds;
    EXPECT_DOUBLE_EQ(b.vdd_min, 1.8);  // fixed_nominal collapsed bounds
    EXPECT_DOUBLE_EQ(b.vdd_max, 1.8);
    EXPECT_EQ(loaded.generator_options().min_cycles, 100u);
    EXPECT_EQ(loaded.generator_options().max_cycles, 1000u);
}

TEST(ModelIoTest, MalformedInputsThrow) {
    std::stringstream bad("nope");
    EXPECT_THROW((void)load_model(bad), std::runtime_error);
    std::stringstream bad_coding(
        "cichar-learned-model 1\n"
        "parameter T_DQ ns 0 20 0 1 15 45 0.1\n"
        "coding hexagonal\n");
    EXPECT_THROW((void)load_model(bad_coding), std::runtime_error);
    std::stringstream truncated(
        "cichar-learned-model 1\n"
        "parameter T_DQ ns 0 20 0 1 15 45 0.1\n"
        "coding fuzzy\ngenerator 100 1000\n");
    EXPECT_THROW((void)load_model(truncated), std::runtime_error);
}

// A model's generator bounds reach RandomTestGenerator, which expands
// patterns of up to max_cycles: a stored bound past the paper's 1000
// cycles is a corrupt file, not a longer pattern.
TEST(ModelIoTest, LoadRejectsOutOfRangeCycleBounds) {
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, chip_opts);
    ate::Tester tester(chip);
    const LearnResult learned =
        trained_model(fuzzy::CodingScheme::kNumeric, tester);
    std::stringstream saved;
    save_model(saved, learned.model);
    const auto load_with_bounds = [&](const std::string& bounds) {
        std::string text = saved.str();
        const std::string field = "generator 100 1000";
        const std::size_t at = text.find(field);
        EXPECT_NE(at, std::string::npos);
        text.replace(at + 10, field.size() - 10, bounds);
        std::stringstream stream(text);
        return load_model(stream);
    };
    EXPECT_NO_THROW((void)load_with_bounds("100 1000"));
    EXPECT_NO_THROW((void)load_with_bounds("1 1"));
    EXPECT_THROW((void)load_with_bounds("100 1001"), std::runtime_error);
    EXPECT_THROW((void)load_with_bounds("100 -1"), std::runtime_error);
    EXPECT_THROW((void)load_with_bounds("0 1000"), std::runtime_error);
}

TEST(ModelIoTest, FileRoundTrip) {
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, chip_opts);
    ate::Tester tester(chip);
    const LearnResult learned =
        trained_model(fuzzy::CodingScheme::kFuzzy, tester);
    const std::string path = ::testing::TempDir() + "/cichar_model_test.model";
    save_model_file(path, learned.model);
    const LearnedModel loaded = load_model_file(path);
    EXPECT_EQ(loaded.parameter().spec, 20.0);
    std::remove(path.c_str());
}

TEST(ModelIoTest, LoadedModelDrivesOptimizer) {
    // The paper's split-session flow: persist after learning, reload, and
    // run the optimization phase from the file alone.
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, chip_opts);
    ate::Tester tester(chip);
    const LearnResult learned =
        trained_model(fuzzy::CodingScheme::kFuzzy, tester);
    std::stringstream stream;
    save_model(stream, learned.model);
    const LearnedModel loaded = load_model(stream);

    OptimizerOptions opts;
    opts.ga.population.size = 10;
    opts.ga.populations = 1;
    opts.ga.max_generations = 4;
    opts.nn_candidates = 100;
    opts.nn_seed_count = 4;
    const WorstCaseOptimizer optimizer(opts);
    util::Rng rng(5);
    const WorstCaseReport report =
        optimizer.run(tester, loaded.parameter(), loaded,
                      Objective::kDriftToMinimum, rng);
    EXPECT_TRUE(report.worst_record.found);
    EXPECT_GT(report.outcome.best_fitness, 0.6);
}

}  // namespace
}  // namespace cichar::core
