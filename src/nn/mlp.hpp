// Multilayer perceptron, hand-rolled in the spirit of the paper's era
// (Masters, "Practical Neural Network Recipes in C++" [14]). Dense layers,
// per-layer activation, double precision. Training lives in trainer.hpp.
//
// The forward/backprop hot path is allocation-free: callers thread a
// ForwardScratch (or a caller-owned trace buffer) through the inference
// entry points, so committee voting, MSE evaluation and SGD touch the
// allocator only on the first call. The allocating overloads remain for
// convenience and are implemented on top of the scratch versions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace cichar::nn {

enum class Activation : std::uint8_t { kSigmoid, kTanh, kRelu, kLinear };

[[nodiscard]] const char* to_string(Activation a) noexcept;
[[nodiscard]] double activate(Activation a, double x) noexcept;
/// Derivative expressed in terms of the *activated* output y.
[[nodiscard]] double activate_derivative(Activation a, double y) noexcept;

/// Applies the activation to a whole span. The switch on the activation
/// kind is dispatched once per call, not once per element, which is what
/// the inner loops of forward/backprop want.
void activate_span(Activation a, std::span<double> values) noexcept;

/// delta[i] *= act'(y[i]) for a whole span (backprop through a layer
/// boundary), again with a single activation dispatch.
void scale_by_activation_derivative(Activation a, std::span<const double> y,
                                    std::span<double> delta) noexcept;

/// One dense layer: out = act(W x + b), W stored row-major [out][in].
struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    Activation activation = Activation::kSigmoid;
    std::vector<double> weights;  ///< out * in
    std::vector<double> biases;   ///< out

    [[nodiscard]] double weight(std::size_t o, std::size_t i) const noexcept {
        return weights[o * in + i];
    }
    [[nodiscard]] double& weight(std::size_t o, std::size_t i) noexcept {
        return weights[o * in + i];
    }

    [[nodiscard]] bool operator==(const Layer&) const = default;
};

/// Reusable ping-pong buffers for allocation-free inference. One scratch
/// serves any number of sequential forward() calls on any nets; it grows
/// to the widest layer seen and then stops allocating. Not thread-safe:
/// use one scratch per thread.
struct ForwardScratch {
    std::vector<double> current;
    std::vector<double> next;
};

/// Buffers for batch-major inference. Activations are stored
/// feature-major — row o holds sample values [o * batch, o * batch +
/// batch) — so the layer kernel's inner loop runs contiguously over the
/// batch dimension. Grows to the widest layer seen, then stops
/// allocating. Not thread-safe: one scratch per thread.
struct BatchScratch {
    std::size_t batch = 0;  ///< samples in the last forward_batch call
    std::size_t width = 0;  ///< output rows after the last call
    std::vector<double> packed;   ///< feature-major staging for pack_batch
    std::vector<double> current;  ///< final activations (see layout above)
    std::vector<double> next;     ///< ping-pong partner of `current`
};

/// One layer's step of per-sample SGD with momentum (backprop). For each
/// output o in ascending order, with error term delta[o], and each input
/// i:
///   prev_delta[i] += w[o][i] * delta[o]   (with the weight before update)
///   v[o][i] = momentum * v[o][i] - lr * (delta[o] * in[i])
///   w[o][i] += v[o][i]
/// and the same update for bias o. `weight_velocity` is laid out like
/// `layer.weights`, `bias_velocity` like `layer.biases`. `prev_delta`
/// (layer.in wide, zeroed by the caller) is skipped when null, as for the
/// first layer. No buffer may alias another. Each element sees exactly
/// the operation sequence above, so the result is bit-identical on every
/// dispatch path.
void sgd_layer_update(Layer& layer, const double* in, const double* delta,
                      double* weight_velocity, double* bias_velocity,
                      double* prev_delta, double lr, double momentum) noexcept;

/// Transposes `batch` row-major sample vectors of `width` features
/// (sample after sample in `xs`) into feature-major storage: after the
/// call, packed[f * batch + b] == xs[b * width + f].
void pack_batch(std::span<const double> xs, std::size_t batch,
                std::size_t width, std::vector<double>& packed);

class Mlp {
public:
    Mlp() = default;

    /// `sizes` = {inputs, hidden..., outputs}; at least two entries.
    /// Hidden layers use `hidden`, the final layer uses `output`.
    Mlp(std::span<const std::size_t> sizes, Activation hidden,
        Activation output);

    /// Xavier/Glorot-uniform weight initialization.
    void init_weights(util::Rng& rng);

    [[nodiscard]] std::size_t input_size() const noexcept;
    [[nodiscard]] std::size_t output_size() const noexcept;
    [[nodiscard]] std::size_t layer_count() const noexcept {
        return layers_.size();
    }
    [[nodiscard]] const Layer& layer(std::size_t i) const noexcept {
        return layers_[i];
    }
    [[nodiscard]] Layer& layer(std::size_t i) noexcept { return layers_[i]; }

    /// Total trainable parameter count.
    [[nodiscard]] std::size_t parameter_count() const noexcept;

    /// Plain inference.
    [[nodiscard]] std::vector<double> forward(std::span<const double> x) const;

    /// Allocation-free inference; the returned span points into `scratch`
    /// and stays valid until the scratch is used again.
    [[nodiscard]] std::span<const double> forward(std::span<const double> x,
                                                  ForwardScratch& scratch) const;

    /// Batch-major inference over `batch` row-major sample vectors
    /// (sample after sample in `xs`, each input_size() wide). Returns the
    /// feature-major output matrix — output o of sample b lives at
    /// [o * batch + b] — pointing into `scratch`. Every sample's
    /// accumulation visits weights in the same order as forward(), so the
    /// result is bit-identical to the scalar path at any batch size.
    [[nodiscard]] std::span<const double> forward_batch(
        std::span<const double> xs, std::size_t batch,
        BatchScratch& scratch) const;

    /// Same, from an already feature-major packed input ([input][batch],
    /// as produced by pack_batch). Lets callers pack one feature matrix
    /// and reuse it across many nets (committee scoring).
    [[nodiscard]] std::span<const double> forward_batch_packed(
        std::span<const double> packed, std::size_t batch,
        BatchScratch& scratch) const;

    /// Inference keeping every layer's activated output (index 0 = input
    /// copy); used by backprop.
    [[nodiscard]] std::vector<std::vector<double>> forward_trace(
        std::span<const double> x) const;

    /// Allocation-free trace into a caller-owned buffer (reused across
    /// calls; resized to layer_count() + 1 levels).
    void forward_trace(std::span<const double> x,
                       std::vector<std::vector<double>>& trace) const;

    [[nodiscard]] bool operator==(const Mlp&) const = default;

private:
    std::vector<Layer> layers_;
};

}  // namespace cichar::nn
