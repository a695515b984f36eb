#include "nn/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cichar::nn {

namespace {

/// Samples per batched-evaluation tile. Dataset rows are individually
/// allocated, so evaluation packs each tile feature-major right before
/// the batched forward.
constexpr std::size_t kEvalTile = 64;

void pack_dataset_tile(const Dataset& data, std::size_t first,
                       std::size_t count, std::vector<double>& packed) {
    packed.resize(data.input_width() * count);
    for (std::size_t b = 0; b < count; ++b) {
        const std::span<const double> in = data.input(first + b);
        for (std::size_t f = 0; f < in.size(); ++f) {
            packed[f * count + b] = in[f];
        }
    }
}

}  // namespace

double evaluate_mse(const Mlp& net, const Dataset& data) {
    BatchScratch scratch;
    return evaluate_mse(net, data, scratch);
}

double evaluate_mse(const Mlp& net, const Dataset& data,
                    BatchScratch& scratch) {
    if (data.empty()) return 0.0;
    const std::size_t width = net.output_size();
    double total = 0.0;
    // The error sum still runs sample-ascending, output-ascending — the
    // same order as the scalar loop — so the MSE is bit-identical.
    for (std::size_t s0 = 0; s0 < data.size(); s0 += kEvalTile) {
        const std::size_t tile = std::min(kEvalTile, data.size() - s0);
        pack_dataset_tile(data, s0, tile, scratch.packed);
        const std::span<const double> out =
            net.forward_batch_packed(scratch.packed, tile, scratch);
        for (std::size_t b = 0; b < tile; ++b) {
            const auto target = data.target(s0 + b);
            for (std::size_t o = 0; o < width; ++o) {
                const double e = out[o * tile + b] - target[o];
                total += e * e;
            }
        }
    }
    return total / (static_cast<double>(data.size()) *
                    static_cast<double>(net.output_size()));
}

double evaluate_class_accuracy(const Mlp& net, const Dataset& data) {
    if (data.empty()) return 0.0;
    BatchScratch scratch;
    const std::size_t width = net.output_size();
    std::size_t correct = 0;
    for (std::size_t s0 = 0; s0 < data.size(); s0 += kEvalTile) {
        const std::size_t tile = std::min(kEvalTile, data.size() - s0);
        pack_dataset_tile(data, s0, tile, scratch.packed);
        const std::span<const double> out =
            net.forward_batch_packed(scratch.packed, tile, scratch);
        for (std::size_t b = 0; b < tile; ++b) {
            const auto target = data.target(s0 + b);
            std::size_t best = 0;
            for (std::size_t o = 1; o < width; ++o) {
                if (out[o * tile + b] > out[best * tile + b]) best = o;
            }
            const auto target_argmax = static_cast<std::size_t>(
                std::max_element(target.begin(), target.end()) -
                target.begin());
            if (best == target_argmax) ++correct;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(data.size());
}

namespace {

/// Momentum buffers matching the MLP weight layout.
struct Velocity {
    std::vector<std::vector<double>> weights;
    std::vector<std::vector<double>> biases;

    explicit Velocity(const Mlp& net) {
        weights.reserve(net.layer_count());
        biases.reserve(net.layer_count());
        for (std::size_t l = 0; l < net.layer_count(); ++l) {
            weights.emplace_back(net.layer(l).weights.size(), 0.0);
            biases.emplace_back(net.layer(l).biases.size(), 0.0);
        }
    }
};

/// Every buffer one SGD pass needs, allocated once per train() call so
/// the per-sample step stays off the allocator.
struct SgdScratch {
    explicit SgdScratch(const Mlp& net) : velocity(net) {}

    Velocity velocity;
    std::vector<std::vector<double>> trace;
    std::vector<double> delta;
    std::vector<double> prev_delta;
};

/// One backprop step on a single sample; returns the sample's SSE.
double sgd_step(Mlp& net, std::span<const double> input,
                std::span<const double> target, double lr, double momentum,
                SgdScratch& scratch) {
    net.forward_trace(input, scratch.trace);
    const std::vector<double>& output = scratch.trace.back();

    // Output deltas for MSE loss: delta = (y - t) * act'(y).
    std::vector<double>& delta = scratch.delta;
    delta.resize(output.size());
    double sse = 0.0;
    {
        const Layer& last = net.layer(net.layer_count() - 1);
        for (std::size_t o = 0; o < output.size(); ++o) {
            const double err = output[o] - target[o];
            sse += err * err;
            delta[o] = err;
        }
        scale_by_activation_derivative(last.activation, output, delta);
    }

    // Backward pass layer by layer.
    for (std::size_t li = net.layer_count(); li-- > 0;) {
        Layer& layer = net.layer(li);
        const std::vector<double>& layer_in = scratch.trace[li];
        const bool propagate = li > 0;
        std::vector<double>& prev_delta = scratch.prev_delta;
        if (propagate) prev_delta.assign(layer.in, 0.0);

        sgd_layer_update(layer, layer_in.data(), delta.data(),
                         scratch.velocity.weights[li].data(),
                         scratch.velocity.biases[li].data(),
                         propagate ? prev_delta.data() : nullptr, lr,
                         momentum);
        if (propagate) {
            const Layer& below = net.layer(li - 1);
            scale_by_activation_derivative(below.activation, layer_in,
                                           prev_delta);
            delta.swap(prev_delta);
        }
    }
    return sse;
}

}  // namespace

TrainReport Trainer::train(Mlp& net, const Dataset& train_set,
                           const Dataset& validation_set,
                           util::Rng& rng) const {
    assert(!train_set.empty());
    assert(train_set.input_width() == net.input_size());
    assert(train_set.target_width() == net.output_size());

    TrainReport report;
    SgdScratch scratch(net);
    BatchScratch eval_scratch;
    std::vector<std::size_t> order(train_set.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    double lr = options_.learning_rate;
    double best_val = std::numeric_limits<double>::infinity();
    Mlp best_net = net;
    std::size_t stale_epochs = 0;

    const double denom = static_cast<double>(train_set.size()) *
                         static_cast<double>(net.output_size());

    for (std::size_t epoch = 0; epoch < options_.max_epochs; ++epoch) {
        rng.shuffle(std::span<std::size_t>(order));
        double sse = 0.0;
        for (const std::size_t s : order) {
            sse += sgd_step(net, train_set.input(s), train_set.target(s), lr,
                            options_.momentum, scratch);
        }
        lr *= options_.lr_decay;

        EpochStats stats;
        stats.train_mse = sse / denom;
        stats.validation_mse = evaluate_mse(net, validation_set, eval_scratch);
        report.history.push_back(stats);
        ++report.epochs_run;

        if (!validation_set.empty()) {
            if (stats.validation_mse < best_val) {
                best_val = stats.validation_mse;
                best_net = net;
                stale_epochs = 0;
            } else {
                ++stale_epochs;
                if (options_.patience != 0 && stale_epochs >= options_.patience) {
                    break;
                }
            }
        }
        if (stats.train_mse < options_.target_train_mse) break;
    }

    if (!validation_set.empty() &&
        best_val < std::numeric_limits<double>::infinity()) {
        net = best_net;
    }
    report.final_train_mse = evaluate_mse(net, train_set, eval_scratch);
    report.final_validation_mse =
        evaluate_mse(net, validation_set, eval_scratch);
    report.learned = report.final_train_mse <= options_.learnability_mse;
    report.generalizes = validation_set.empty()
                             ? report.learned
                             : report.final_validation_mse <=
                                   options_.generalization_mse;
    return report;
}

}  // namespace cichar::nn
