// A small committee learned once per test process on a noiseless chip
// under nominal conditions, so hunt tests can run the model-driven path
// (NN seeding, and every trip search anchored at the committee's
// predicted trip point) without paying for learning in every row.
#pragma once

#include "core/learner.hpp"
#include "core/optimizer.hpp"
#include "device/memory_chip.hpp"

namespace cichar::core {

/// Options of the hunts that use small_learned_model(): few NN candidates
/// so seeding stays cheap.
inline void use_small_seeding(OptimizerOptions& options) {
    options.nn_candidates = 100;
    options.nn_seed_count = 4;
}

inline const LearnedModel& small_learned_model() {
    static const LearnedModel model = [] {
        device::MemoryChipOptions chip_options;
        chip_options.noise_sigma_ns = 0.0;
        device::MemoryTestChip chip({}, chip_options);
        ate::Tester tester(chip);
        LearnerOptions options;
        options.training_tests = 40;
        options.max_rounds = 1;
        options.committee.members = 2;
        options.committee.hidden_layers = {8};
        options.committee.train.max_epochs = 40;
        testgen::RandomGeneratorOptions generator_options;
        generator_options.condition_bounds =
            testgen::ConditionBounds::fixed_nominal();
        const testgen::RandomTestGenerator generator(generator_options);
        util::Rng rng(2005);
        return CharacterizationLearner(options)
            .run(tester, ate::Parameter::data_valid_time(), generator, rng)
            .model;
    }();
    return model;
}

}  // namespace cichar::core
