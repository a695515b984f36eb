#include "core/nn_test_generator.hpp"

#include <algorithm>

#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace cichar::core {

NnTestGenerator::NnTestGenerator(const LearnedModel& model)
    : model_(&model), generator_(model.generator_options()) {}

std::vector<TestSuggestion> NnTestGenerator::suggest(
    std::size_t candidates, std::size_t top_k, util::Rng& rng,
    const ScoringOptions& options) const {
    TELEM_SPAN("nn.committee_score");
    // Draw every candidate from `rng` up front on the calling thread: the
    // draw sequence (and thus the candidate set) is independent of how
    // scoring fans out.
    std::vector<TestSuggestion> scored;
    scored.reserve(candidates);
    for (std::size_t i = 0; i < candidates; ++i) {
        TestSuggestion s;
        s.recipe = generator_.random_recipe(rng);
        s.conditions = generator_.random_conditions(rng);
        scored.push_back(std::move(s));
    }

    // Committee scoring is pure (const model, no rng): each tile encodes
    // its candidates' features (stats-only expansion, no pattern is
    // stored) into a feature matrix and runs one batched committee
    // pass, writing results into disjoint slots. A vote's mean_output is
    // accumulated exactly like predict()'s mean, so the predicted WCR and
    // agreement match the old two-pass scalar scoring bit for bit.
    const std::size_t batch = std::max<std::size_t>(1, options.batch);
    const auto score_tile = [&](std::size_t first, std::size_t count,
                                std::vector<double>& features,
                                nn::BatchVoteScratch& scratch,
                                std::vector<nn::VoteResult>& results) {
        features.resize(count * testgen::kFeatureCount);
        for (std::size_t i = 0; i < count; ++i) {
            const TestSuggestion& s = scored[first + i];
            const testgen::FeatureVector fv = testgen::extract_features(
                generator_.expand_stats(s.recipe), s.recipe.cycles,
                s.conditions, generator_.options().condition_bounds);
            std::copy(fv.values.begin(), fv.values.end(),
                      features.begin() + static_cast<std::ptrdiff_t>(
                                             i * testgen::kFeatureCount));
        }
        model_->committee().vote_batch(features, count, scratch, results);
        for (std::size_t i = 0; i < count; ++i) {
            scored[first + i].predicted_wcr =
                model_->coder().decode(results[i].mean_output);
            scored[first + i].vote_agreement = results[i].agreement;
        }
    };

    if (options.jobs == 1 || scored.size() <= batch) {
        std::vector<double> features;
        nn::BatchVoteScratch scratch;
        std::vector<nn::VoteResult> results;
        for (std::size_t first = 0; first < scored.size(); first += batch) {
            score_tile(first, std::min(batch, scored.size() - first),
                       features, scratch, results);
        }
    } else {
        util::ThreadPool pool(options.jobs);
        for (std::size_t first = 0; first < scored.size(); first += batch) {
            const std::size_t count = std::min(batch, scored.size() - first);
            pool.submit([&score_tile, first, count] {
                std::vector<double> features;
                nn::BatchVoteScratch scratch;
                std::vector<nn::VoteResult> results;
                score_tile(first, count, features, scratch, results);
            });
        }
        pool.wait();
    }

    if (util::telemetry::metrics_enabled()) {
        namespace telem = util::telemetry;
        static auto& scored_total = telem::Registry::instance().counter(
            "cichar_nn_candidates_scored_total");
        scored_total.add(scored.size());
    }

    const std::size_t keep = std::min(top_k, scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<std::ptrdiff_t>(keep),
                      scored.end(),
                      [](const TestSuggestion& a, const TestSuggestion& b) {
                          return a.predicted_wcr > b.predicted_wcr;
                      });
    scored.resize(keep);
    return scored;
}

std::vector<ga::TestChromosome> NnTestGenerator::suggest_chromosomes(
    std::size_t candidates, std::size_t top_k, util::Rng& rng,
    const ScoringOptions& options) const {
    const std::vector<TestSuggestion> suggestions =
        suggest(candidates, top_k, rng, options);
    const auto& opts = generator_.options();
    std::vector<ga::TestChromosome> chromosomes;
    chromosomes.reserve(suggestions.size());
    for (const TestSuggestion& s : suggestions) {
        chromosomes.push_back(ga::TestChromosome::encode(
            s.recipe, s.conditions, opts.condition_bounds, opts.min_cycles,
            opts.max_cycles));
    }
    return chromosomes;
}

}  // namespace cichar::core
