// Fuzzy-neural-network test generator (paper Fig. 5 step 1): using only
// the trained weight file — no ATE measurements — it samples many random
// candidate tests, predicts their WCR with the committee, and returns the
// predicted-worst ones as "sub-optimal" worst-case tests that seed the GA.
#pragma once

#include <vector>

#include "core/learner.hpp"
#include "ga/chromosome.hpp"

namespace cichar::core {

/// One suggested (predicted-worst) test.
struct TestSuggestion {
    testgen::PatternRecipe recipe;
    testgen::TestConditions conditions;
    double predicted_wcr = 0.0;
    double vote_agreement = 0.0;  ///< committee consensus on the class
};

/// How candidate scoring fans out. Candidates are encoded into a feature
/// matrix and scored through the committee's batched forward in tiles of
/// `batch`; tiles are distributed over `jobs` workers. Scoring is pure, so
/// results are identical at every batch/jobs combination.
struct ScoringOptions {
    /// Worker threads: 1 = serial, 0 = one per hardware thread.
    std::size_t jobs = 1;
    /// Candidates per batched committee pass (min 1).
    std::size_t batch = 64;
};

class NnTestGenerator {
public:
    explicit NnTestGenerator(const LearnedModel& model);

    /// Samples `candidates` random tests, scores them in software, and
    /// returns the `top_k` with the highest predicted WCR (descending).
    /// Candidates are drawn from `rng` serially; the (pure, rng-free)
    /// committee scoring runs per `options` with identical results at any
    /// batch size and jobs count.
    [[nodiscard]] std::vector<TestSuggestion> suggest(
        std::size_t candidates, std::size_t top_k, util::Rng& rng,
        const ScoringOptions& options) const;

    /// Same, already encoded as GA chromosomes.
    [[nodiscard]] std::vector<ga::TestChromosome> suggest_chromosomes(
        std::size_t candidates, std::size_t top_k, util::Rng& rng,
        const ScoringOptions& options) const;

    [[nodiscard]] const LearnedModel& model() const noexcept { return *model_; }

private:
    const LearnedModel* model_;  ///< borrowed; must outlive the generator
    testgen::RandomTestGenerator generator_;
};

}  // namespace cichar::core
