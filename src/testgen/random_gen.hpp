// Non-deterministic random test generator (paper section 3: "random test
// generator based on [9-10]"): emits short bus-traffic patterns (100-1000
// vector cycles, bus control signal disturbances) whose statistics are
// controlled by a PatternRecipe.
#pragma once

#include <cstdint>
#include <string>

#include "testgen/conditions.hpp"
#include "testgen/recipe.hpp"
#include "testgen/test.hpp"
#include "util/rng.hpp"

namespace cichar::testgen {

/// Longest pattern the generator emits, and the bound loaders check a
/// stored `cycles` or `max_cycles` against: the paper's 100-1000 vector
/// cycles per trip-point measurement.
inline constexpr std::uint32_t kMaxPatternCycles = 1000;

/// Configuration of the random test generator.
struct RandomGeneratorOptions {
    std::uint32_t min_cycles = 100;   ///< paper: 100-1000 vector cycles
    std::uint32_t max_cycles = kMaxPatternCycles;
    ConditionBounds condition_bounds; ///< sampled per test
};

/// Generates random tests and expands recipes into concrete patterns.
///
/// Expansion is deterministic given the recipe (including its seed), so an
/// evolved GA chromosome always reproduces the identical pattern on
/// re-measurement or re-simulation.
class RandomTestGenerator {
public:
    explicit RandomTestGenerator(RandomGeneratorOptions options = {});

    [[nodiscard]] const RandomGeneratorOptions& options() const noexcept {
        return options_;
    }

    /// Samples a uniformly random recipe (seed drawn from `rng`).
    [[nodiscard]] PatternRecipe random_recipe(util::Rng& rng) const;

    /// Samples random conditions within the configured bounds.
    [[nodiscard]] TestConditions random_conditions(util::Rng& rng) const;

    /// Deterministically expands a recipe into a vector pattern.
    [[nodiscard]] TestPattern expand(const PatternRecipe& recipe,
                                     std::string name = {}) const;

    /// The statistics of `expand(recipe)`, from the same cycle stream,
    /// without storing a cycle: for callers that read only features
    /// (`extract_features` over stats, cycle count `recipe.cycles`).
    [[nodiscard]] PatternStats expand_stats(const PatternRecipe& recipe) const;

    /// Full random test: random recipe + random conditions.
    [[nodiscard]] Test random_test(util::Rng& rng, std::string name = {}) const;

    /// Test from an explicit recipe + conditions (GA decode path).
    [[nodiscard]] Test make_test(const PatternRecipe& recipe,
                                 const TestConditions& conditions,
                                 std::string name = {}) const;

private:
    RandomGeneratorOptions options_;
};

}  // namespace cichar::testgen
