#include "core/characterizer.hpp"

namespace cichar::core {

DeviceCharacterizer::DeviceCharacterizer(ate::Tester& tester,
                                         ate::Parameter parameter,
                                         CharacterizerOptions options)
    : tester_(&tester),
      parameter_(std::move(parameter)),
      options_(std::move(options)) {}

TripPointRecord DeviceCharacterizer::single_trip(
    const testgen::Test& test) const {
    ate::PhaseScope phase(tester_->log(), "single-trip");
    TripSession session(*tester_, parameter_, options_.learner.trip);
    return session.measure(test);
}

DesignSpecVariation DeviceCharacterizer::characterize(
    std::span<const testgen::Test> tests) const {
    const MultiTripCharacterizer characterizer(options_.learner.trip);
    return characterizer.characterize(*tester_, parameter_, tests);
}

DesignSpecVariation DeviceCharacterizer::characterize_random(
    std::size_t n, util::Rng& rng) const {
    const testgen::RandomTestGenerator generator(options_.generator);
    std::vector<testgen::Test> tests;
    tests.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        tests.push_back(generator.random_test(rng, "rand-" + std::to_string(i)));
    }
    return characterize(tests);
}

LearnResult DeviceCharacterizer::learn(util::Rng& rng) const {
    const CharacterizationLearner learner(options_.learner);
    const testgen::RandomTestGenerator generator(options_.generator);
    return learner.run(*tester_, parameter_, generator, rng,
                       options_.optimizer.parallel);
}

WorstCaseReport DeviceCharacterizer::optimize(const LearnedModel& model,
                                              util::Rng& rng) const {
    return optimize(model, objective_for(parameter_), rng);
}

WorstCaseReport DeviceCharacterizer::optimize(const LearnedModel& model,
                                              Objective objective,
                                              util::Rng& rng) const {
    const WorstCaseOptimizer optimizer(options_.optimizer);
    return optimizer.run(*tester_, parameter_, model, objective, rng);
}

WorstCaseReport DeviceCharacterizer::run_full(util::Rng& rng) const {
    const LearnResult learned = learn(rng);
    return optimize(learned.model, rng);
}

}  // namespace cichar::core
