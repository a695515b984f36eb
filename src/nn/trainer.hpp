// Online SGD backprop trainer with the paper's "iterative network
// learnability and generalization check" (Fig. 4 step 4): after training,
// the report says whether the net learned the training set and whether it
// generalizes to held-out tests; if not, the caller gathers more data and
// goes back to step 1.
#pragma once

#include <vector>

#include "nn/dataset.hpp"
#include "nn/mlp.hpp"

namespace cichar::nn {

struct TrainOptions {
    std::size_t max_epochs = 400;
    double learning_rate = 0.1;
    double momentum = 0.9;
    /// Multiplies the learning rate each epoch (1.0 = constant).
    double lr_decay = 0.995;
    /// Stop early when training MSE falls below this.
    double target_train_mse = 1e-4;
    /// Early-stop patience: epochs without validation improvement
    /// (0 disables validation-based early stopping).
    std::size_t patience = 40;
    /// Learnability threshold: training MSE must end below this.
    double learnability_mse = 0.02;
    /// Generalization threshold: validation MSE must end below this.
    double generalization_mse = 0.04;
};

/// Per-epoch history entry.
struct EpochStats {
    double train_mse = 0.0;
    double validation_mse = 0.0;
};

/// Outcome of one training run.
struct TrainReport {
    std::size_t epochs_run = 0;
    double final_train_mse = 0.0;
    double final_validation_mse = 0.0;
    bool learned = false;      ///< train MSE below learnability threshold
    bool generalizes = false;  ///< validation MSE below threshold
    std::vector<EpochStats> history;
};

/// Mean squared error of `net` over `data` (0 for an empty set).
[[nodiscard]] double evaluate_mse(const Mlp& net, const Dataset& data);

/// Same, reusing `scratch` across calls (one per thread), so a training
/// loop that evaluates every epoch stays off the allocator.
[[nodiscard]] double evaluate_mse(const Mlp& net, const Dataset& data,
                                  BatchScratch& scratch);

/// Fraction of samples whose argmax output matches the argmax target
/// (classification view of fuzzy-coded targets). 0 for an empty set.
[[nodiscard]] double evaluate_class_accuracy(const Mlp& net,
                                             const Dataset& data);

class Trainer {
public:
    explicit Trainer(TrainOptions options = TrainOptions{})
        : options_(options) {}

    [[nodiscard]] const TrainOptions& options() const noexcept {
        return options_;
    }

    /// Trains in place with per-sample SGD (shuffled each epoch). The best
    /// validation-MSE weights are restored at the end when a validation
    /// set is provided.
    TrainReport train(Mlp& net, const Dataset& train_set,
                      const Dataset& validation_set, util::Rng& rng) const;

private:
    TrainOptions options_;
};

}  // namespace cichar::nn
