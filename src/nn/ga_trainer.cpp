#include "nn/ga_trainer.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cichar::nn {

std::vector<double> flatten_weights(const Mlp& net) {
    std::vector<double> flat;
    flat.reserve(net.parameter_count());
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
        const Layer& layer = net.layer(l);
        flat.insert(flat.end(), layer.weights.begin(), layer.weights.end());
        flat.insert(flat.end(), layer.biases.begin(), layer.biases.end());
    }
    return flat;
}

void restore_weights(Mlp& net, std::span<const double> flat) {
    assert(flat.size() == net.parameter_count());
    std::size_t offset = 0;
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
        Layer& layer = net.layer(l);
        std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                    layer.weights.size(), layer.weights.begin());
        offset += layer.weights.size();
        std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                    layer.biases.size(), layer.biases.begin());
        offset += layer.biases.size();
    }
}

namespace {

struct WeightIndividual {
    std::vector<double> genes;
    double mse = std::numeric_limits<double>::infinity();
};

}  // namespace

TrainReport GaTrainer::train(Mlp& net, const Dataset& train_set,
                             const Dataset& validation_set,
                             util::Rng& rng) const {
    assert(!train_set.empty());
    assert(options_.population >= 2);
    assert(options_.elite < options_.population);

    const std::size_t genome = net.parameter_count();
    Mlp scratch = net;  // evaluation workspace
    BatchScratch eval_scratch;

    const auto evaluate = [&](WeightIndividual& individual) {
        restore_weights(scratch, individual.genes);
        individual.mse = evaluate_mse(scratch, train_set, eval_scratch);
    };

    // Initial population: the incoming net plus random perturbations.
    std::vector<WeightIndividual> population(options_.population);
    population[0].genes = flatten_weights(net);
    for (std::size_t i = 1; i < population.size(); ++i) {
        population[i].genes.resize(genome);
        for (double& g : population[i].genes) {
            g = rng.uniform(-options_.weight_limit, options_.weight_limit);
        }
    }
    for (WeightIndividual& individual : population) evaluate(individual);

    const auto by_mse = [](const WeightIndividual& a,
                           const WeightIndividual& b) {
        return a.mse < b.mse;
    };
    const auto tournament_pick = [&]() -> const WeightIndividual& {
        const WeightIndividual* best = nullptr;
        for (std::size_t t = 0; t < options_.tournament; ++t) {
            const WeightIndividual& c = population[rng.index(population.size())];
            if (best == nullptr || c.mse < best->mse) best = &c;
        }
        return *best;
    };

    TrainReport report;
    for (std::size_t gen = 0; gen < options_.generations; ++gen) {
        std::sort(population.begin(), population.end(), by_mse);
        EpochStats stats;
        stats.train_mse = population.front().mse;
        restore_weights(scratch, population.front().genes);
        stats.validation_mse =
            evaluate_mse(scratch, validation_set, eval_scratch);
        report.history.push_back(stats);
        ++report.epochs_run;
        if (stats.train_mse < options_.target_train_mse) break;

        std::vector<WeightIndividual> next;
        next.reserve(population.size());
        for (std::size_t e = 0; e < options_.elite; ++e) {
            next.push_back(population[e]);
        }
        while (next.size() < population.size()) {
            WeightIndividual child;
            if (rng.bernoulli(options_.crossover_rate)) {
                const WeightIndividual& a = tournament_pick();
                const WeightIndividual& b = tournament_pick();
                child.genes.resize(genome);
                // Blend crossover: child weight = convex mix of parents,
                // standard for real-coded weight evolution.
                for (std::size_t g = 0; g < genome; ++g) {
                    const double alpha = rng.uniform();
                    child.genes[g] =
                        alpha * a.genes[g] + (1.0 - alpha) * b.genes[g];
                }
            } else {
                child.genes = tournament_pick().genes;
            }
            for (double& g : child.genes) {
                if (rng.bernoulli(options_.mutation_rate)) {
                    g = std::clamp(g + rng.normal(0.0, options_.mutation_sigma),
                                   -options_.weight_limit,
                                   options_.weight_limit);
                }
            }
            evaluate(child);
            next.push_back(std::move(child));
        }
        population = std::move(next);
    }

    std::sort(population.begin(), population.end(), by_mse);
    restore_weights(net, population.front().genes);
    report.final_train_mse = evaluate_mse(net, train_set, eval_scratch);
    report.final_validation_mse =
        evaluate_mse(net, validation_set, eval_scratch);
    report.learned = report.final_train_mse <= options_.learnability_mse;
    report.generalizes =
        validation_set.empty()
            ? report.learned
            : report.final_validation_mse <= options_.generalization_mse;
    return report;
}

}  // namespace cichar::nn
