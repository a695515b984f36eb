#include "nn/mlp.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

// Explicit SIMD microkernel for the batch-major layer loops. Enabled on
// x86-64 GCC/Clang unless CICHAR_NO_BATCH_SIMD is defined; the AVX2 body
// is selected at runtime only when the CPU reports AVX2, so the default
// (baseline-arch) build stays portable. The microkernel uses separate
// multiply and add — never FMA — so each lane executes the exact
// operation sequence of the scalar path and results stay bit-identical.
// When the whole build enables FMA contraction (-march with __FMA__), the
// microkernel is skipped: the generic kernel then contracts under the
// same flags as the scalar path, keeping the two paths consistent.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__FMA__) && !defined(CICHAR_NO_BATCH_SIMD)
#define CICHAR_BATCH_AVX2 1
#include <immintrin.h>
#endif

namespace cichar::nn {

namespace {

// ---------------------------------------------------------------------
// Deterministic transcendental activations. libm's tanh/exp are scalar
// entry points the batch engine cannot vectorize, and their results are
// not reproducible across libm versions. These replacements use plain
// IEEE-754 arithmetic only (mul/add/sub/div plus exponent bit assembly),
// so the *identical* operation sequence runs either in scalar code or in
// one SIMD lane — which is what keeps the batched forward bit-identical
// to the scalar forward. Accuracy is ~1e-13 relative (degree-11 Taylor
// core on |r| <= ln2/2), far below any trained committee's noise floor.
// Inputs are assumed finite (activations of finite weights and features).

constexpr double kExpLog2e = 1.4426950408889634;          // log2(e)
constexpr double kExpLn2Hi = 6.93147180369123816490e-01;  // ln2 head, 33 bits
constexpr double kExpLn2Lo = 1.90821492927058770002e-10;  // ln2 - head
constexpr double kExpShift = 6755399441055744.0;          // 1.5 * 2^52
/// |x| clamp: exp(±708) stays comfortably inside normal double range.
constexpr double kExpMax = 708.0;

inline double det_exp(double x) noexcept {
    double cl = x < -kExpMax ? -kExpMax : x;
    cl = cl > kExpMax ? kExpMax : cl;
    // Round k = cl * log2(e) to nearest-even by pushing it into the
    // 2^52 mantissa window; the low bits of the raw pattern are the
    // integer k, and subtracting the shift recovers it as a double.
    const double kd = cl * kExpLog2e + kExpShift;
    const std::int64_t ki = std::bit_cast<std::int64_t>(kd);
    const double k = kd - kExpShift;
    // Cody–Waite: r = cl - k*ln2, |r| <= ln2/2; k*head is exact.
    double r = cl - k * kExpLn2Hi;
    r -= k * kExpLn2Lo;
    // exp(r) Taylor core, Horner, coefficients 1/n!.
    double p = 2.505210838544172e-8;
    p = p * r + 2.755731922398589e-7;
    p = p * r + 2.7557319223985893e-6;
    p = p * r + 2.48015873015873e-5;
    p = p * r + 1.984126984126984e-4;
    p = p * r + 1.3888888888888889e-3;
    p = p * r + 8.333333333333333e-3;
    p = p * r + 4.1666666666666664e-2;
    p = p * r + 1.6666666666666666e-1;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^k assembled directly into the exponent field.
    const double scale = std::bit_cast<double>((ki + 1023) << 52);
    return p * scale;
}

inline double det_tanh(double x) noexcept {
    const double e2 = det_exp(2.0 * x);
    return (e2 - 1.0) / (e2 + 1.0);
}

inline double det_sigmoid(double x) noexcept {
    return 1.0 / (1.0 + det_exp(-x));
}

#if defined(CICHAR_BATCH_AVX2)
// SIMD lanes run the exact det_exp operation sequence: max/min clamps
// mirror the scalar ternaries value-for-value on finite input, and every
// arithmetic step is the same IEEE operation, so each lane's result is
// bit-identical to the scalar call.
__attribute__((target("avx2"))) inline __m256d det_exp_avx2(
    __m256d x) noexcept {
    const __m256d shift = _mm256_set1_pd(kExpShift);
    __m256d cl = _mm256_max_pd(x, _mm256_set1_pd(-kExpMax));
    cl = _mm256_min_pd(cl, _mm256_set1_pd(kExpMax));
    const __m256d kd =
        _mm256_add_pd(_mm256_mul_pd(cl, _mm256_set1_pd(kExpLog2e)), shift);
    const __m256i ki = _mm256_castpd_si256(kd);
    const __m256d k = _mm256_sub_pd(kd, shift);
    __m256d r =
        _mm256_sub_pd(cl, _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Hi)));
    r = _mm256_sub_pd(r, _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Lo)));
    // Same Horner ladder as det_exp (a lambda would lose the target
    // attribute, hence the macro).
#define CICHAR_DET_EXP_STEP(c) \
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(c))
    __m256d p = _mm256_set1_pd(2.505210838544172e-8);
    CICHAR_DET_EXP_STEP(2.755731922398589e-7);
    CICHAR_DET_EXP_STEP(2.7557319223985893e-6);
    CICHAR_DET_EXP_STEP(2.48015873015873e-5);
    CICHAR_DET_EXP_STEP(1.984126984126984e-4);
    CICHAR_DET_EXP_STEP(1.3888888888888889e-3);
    CICHAR_DET_EXP_STEP(8.333333333333333e-3);
    CICHAR_DET_EXP_STEP(4.1666666666666664e-2);
    CICHAR_DET_EXP_STEP(1.6666666666666666e-1);
    CICHAR_DET_EXP_STEP(0.5);
    CICHAR_DET_EXP_STEP(1.0);
    CICHAR_DET_EXP_STEP(1.0);
#undef CICHAR_DET_EXP_STEP
    const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(ki, _mm256_set1_epi64x(1023)), 52));
    return _mm256_mul_pd(p, scale);
}

__attribute__((target("avx2"))) void tanh_span_avx2(double* v,
                                                    std::size_t n) noexcept {
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d two = _mm256_set1_pd(2.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d e2 =
            det_exp_avx2(_mm256_mul_pd(two, _mm256_loadu_pd(v + i)));
        _mm256_storeu_pd(v + i, _mm256_div_pd(_mm256_sub_pd(e2, one),
                                              _mm256_add_pd(e2, one)));
    }
    for (; i < n; ++i) v[i] = det_tanh(v[i]);
}

__attribute__((target("avx2"))) void sigmoid_span_avx2(
    double* v, std::size_t n) noexcept {
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d sign = _mm256_set1_pd(-0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d e =
            det_exp_avx2(_mm256_xor_pd(_mm256_loadu_pd(v + i), sign));
        _mm256_storeu_pd(v + i, _mm256_div_pd(one, _mm256_add_pd(one, e)));
    }
    for (; i < n; ++i) v[i] = det_sigmoid(v[i]);
}
#endif

void tanh_span_generic(double* v, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) v[i] = det_tanh(v[i]);
}

void sigmoid_span_generic(double* v, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) v[i] = det_sigmoid(v[i]);
}

using ActSpanKernel = void (*)(double*, std::size_t) noexcept;

/// Resolved once at startup, like the affine kernel below: both bodies
/// are bit-identical, the choice only affects speed.
const ActSpanKernel g_tanh_span =
#if defined(CICHAR_BATCH_AVX2)
    __builtin_cpu_supports("avx2") ? tanh_span_avx2 :
#endif
                                   tanh_span_generic;

const ActSpanKernel g_sigmoid_span =
#if defined(CICHAR_BATCH_AVX2)
    __builtin_cpu_supports("avx2") ? sigmoid_span_avx2 :
#endif
                                   sigmoid_span_generic;

}  // namespace

const char* to_string(Activation a) noexcept {
    switch (a) {
        case Activation::kSigmoid: return "sigmoid";
        case Activation::kTanh: return "tanh";
        case Activation::kRelu: return "relu";
        case Activation::kLinear: return "linear";
    }
    return "?";
}

double activate(Activation a, double x) noexcept {
    switch (a) {
        case Activation::kSigmoid: return det_sigmoid(x);
        case Activation::kTanh: return det_tanh(x);
        case Activation::kRelu: return x > 0.0 ? x : 0.0;
        case Activation::kLinear: return x;
    }
    return x;
}

double activate_derivative(Activation a, double y) noexcept {
    switch (a) {
        case Activation::kSigmoid: return y * (1.0 - y);
        case Activation::kTanh: return 1.0 - y * y;
        case Activation::kRelu: return y > 0.0 ? 1.0 : 0.0;
        case Activation::kLinear: return 1.0;
    }
    return 1.0;
}

void activate_span(Activation a, std::span<double> values) noexcept {
    switch (a) {
        case Activation::kSigmoid:
            g_sigmoid_span(values.data(), values.size());
            return;
        case Activation::kTanh:
            g_tanh_span(values.data(), values.size());
            return;
        case Activation::kRelu:
            for (double& v : values) v = v > 0.0 ? v : 0.0;
            return;
        case Activation::kLinear: return;
    }
}

void scale_by_activation_derivative(Activation a, std::span<const double> y,
                                    std::span<double> delta) noexcept {
    assert(y.size() == delta.size());
    switch (a) {
        case Activation::kSigmoid:
            for (std::size_t i = 0; i < delta.size(); ++i) {
                delta[i] *= y[i] * (1.0 - y[i]);
            }
            return;
        case Activation::kTanh:
            for (std::size_t i = 0; i < delta.size(); ++i) {
                delta[i] *= 1.0 - y[i] * y[i];
            }
            return;
        case Activation::kRelu:
            for (std::size_t i = 0; i < delta.size(); ++i) {
                if (!(y[i] > 0.0)) delta[i] = 0.0;
            }
            return;
        case Activation::kLinear: return;
    }
}

namespace {

/// out = act(W in + b) for one layer; `in`/`out` must not alias. Four
/// outputs share one pass over the input, each in its own accumulator:
/// every dot product still starts at the bias and adds w[o][i] * in[i] in
/// ascending i, but four independent FP chains now overlap instead of
/// one serial chain per output.
void layer_forward(const Layer& layer, const double* in, double* out) noexcept {
    const std::size_t n = layer.in;
    const double* w = layer.weights.data();
    std::size_t o = 0;
    for (; o + 4 <= layer.out; o += 4) {
        const double* r0 = w + o * n;
        const double* r1 = r0 + n;
        const double* r2 = r1 + n;
        const double* r3 = r2 + n;
        double s0 = layer.biases[o];
        double s1 = layer.biases[o + 1];
        double s2 = layer.biases[o + 2];
        double s3 = layer.biases[o + 3];
        for (std::size_t i = 0; i < n; ++i) {
            const double x = in[i];
            s0 += r0[i] * x;
            s1 += r1[i] * x;
            s2 += r2[i] * x;
            s3 += r3[i] * x;
        }
        out[o] = s0;
        out[o + 1] = s1;
        out[o + 2] = s2;
        out[o + 3] = s3;
    }
    for (; o < layer.out; ++o) {
        double sum = layer.biases[o];
        const double* row = w + o * n;
        for (std::size_t i = 0; i < n; ++i) sum += row[i] * in[i];
        out[o] = sum;
    }
    activate_span(layer.activation, std::span<double>(out, layer.out));
}

// ---------------------------------------------------------------------
// SGD row update (see sgd_layer_update in mlp.hpp). Lanes are inputs i:
// the weight and velocity updates are elementwise, and prev_delta[i]
// still accumulates over o in ascending order because rows are visited
// in order. Multiply, add and subtract stay separate — never FMA — so
// every lane runs the scalar operation sequence and both bodies are
// bit-identical. Whether to propagate is a template parameter, so the
// first layer's rows carry no per-element test.

/// One weight row; the row spans never alias (restrict lets the generic
/// body vectorize under the baseline flags too).
template <bool Propagate>
inline void sgd_row_generic(double* __restrict w, double* __restrict v,
                            double* __restrict prev_delta,
                            const double* __restrict in, std::size_t n,
                            double d, double lr, double momentum) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        if constexpr (Propagate) prev_delta[i] += w[i] * d;
        const double grad = d * in[i];
        v[i] = momentum * v[i] - lr * grad;
        w[i] += v[i];
    }
}

template <bool Propagate>
void sgd_update_generic(Layer& layer, const double* in, const double* delta,
                        double* weight_velocity, double* bias_velocity,
                        double* prev_delta, double lr,
                        double momentum) noexcept {
    const std::size_t n = layer.in;
    double* const weights = layer.weights.data();
    double* const biases = layer.biases.data();
    for (std::size_t o = 0; o < layer.out; ++o) {
        const double d = delta[o];
        sgd_row_generic<Propagate>(weights + o * n, weight_velocity + o * n,
                                   prev_delta, in, n, d, lr, momentum);
        bias_velocity[o] = momentum * bias_velocity[o] - lr * d;
        biases[o] += bias_velocity[o];
    }
}

#if defined(CICHAR_BATCH_AVX2)
template <bool Propagate>
__attribute__((target("avx2"))) void sgd_update_avx2(
    Layer& layer, const double* in, const double* delta,
    double* weight_velocity, double* bias_velocity, double* prev_delta,
    double lr, double momentum) noexcept {
    const std::size_t n = layer.in;
    const __m256d lr4 = _mm256_set1_pd(lr);
    const __m256d momentum4 = _mm256_set1_pd(momentum);
    double* const weights = layer.weights.data();
    double* const biases = layer.biases.data();
    for (std::size_t o = 0; o < layer.out; ++o) {
        const double d = delta[o];
        const __m256d d4 = _mm256_set1_pd(d);
        double* w = weights + o * n;
        double* v = weight_velocity + o * n;
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            const __m256d wi = _mm256_loadu_pd(w + i);
            if constexpr (Propagate) {
                _mm256_storeu_pd(
                    prev_delta + i,
                    _mm256_add_pd(_mm256_loadu_pd(prev_delta + i),
                                  _mm256_mul_pd(wi, d4)));
            }
            const __m256d grad = _mm256_mul_pd(d4, _mm256_loadu_pd(in + i));
            const __m256d vi =
                _mm256_sub_pd(_mm256_mul_pd(momentum4, _mm256_loadu_pd(v + i)),
                              _mm256_mul_pd(lr4, grad));
            _mm256_storeu_pd(v + i, vi);
            _mm256_storeu_pd(w + i, _mm256_add_pd(wi, vi));
        }
        // A row's last in % 4 inputs: one 128-bit step, then one scalar
        // step. A scalar pair per row cost the 14-wide first layer as much
        // as its whole 4-lane loop.
        if (i + 2 <= n) {
            const __m128d d2 = _mm256_castpd256_pd128(d4);
            const __m128d wi = _mm_loadu_pd(w + i);
            if constexpr (Propagate) {
                _mm_storeu_pd(prev_delta + i,
                              _mm_add_pd(_mm_loadu_pd(prev_delta + i),
                                         _mm_mul_pd(wi, d2)));
            }
            const __m128d grad = _mm_mul_pd(d2, _mm_loadu_pd(in + i));
            const __m128d vi = _mm_sub_pd(
                _mm_mul_pd(_mm256_castpd256_pd128(momentum4),
                           _mm_loadu_pd(v + i)),
                _mm_mul_pd(_mm256_castpd256_pd128(lr4), grad));
            _mm_storeu_pd(v + i, vi);
            _mm_storeu_pd(w + i, _mm_add_pd(wi, vi));
            i += 2;
        }
        if (i < n) {
            if constexpr (Propagate) prev_delta[i] += w[i] * d;
            const double grad = d * in[i];
            v[i] = momentum * v[i] - lr * grad;
            w[i] += v[i];
        }
        bias_velocity[o] = momentum * bias_velocity[o] - lr * d;
        biases[o] += bias_velocity[o];
    }
}
#endif

// ---------------------------------------------------------------------
// Batch-major layer kernel: affine part of out[o][b] = b_o + sum_i
// w[o][i] * in[i][b] over a tile of `cols` sample columns. Row r of a
// matrix starts at base + r * stride. The inner loop runs over the
// contiguous column (sample) dimension, so it vectorizes — and because
// lanes are whole samples, SIMD never reorders any single sample's
// accumulation: sample b still starts at the bias and adds w_i * x_i in
// ascending i, exactly like the scalar layer_forward. That is the whole
// bit-identity argument. It is also why the batch path is much faster
// than the per-sample dot product even without SIMD: the scalar
// accumulator is a serial FP dependency chain (IEEE addition cannot be
// reassociated), while the batch columns are independent accumulators.

void layer_affine_batch_generic(const Layer& layer, const double* in,
                                double* out, std::size_t stride,
                                std::size_t cols) noexcept {
    for (std::size_t o = 0; o < layer.out; ++o) {
        double* row_out = out + o * stride;
        std::fill(row_out, row_out + cols, layer.biases[o]);
        const double* wrow = &layer.weights[o * layer.in];
        for (std::size_t i = 0; i < layer.in; ++i) {
            const double w = wrow[i];
            const double* xin = in + i * stride;
            for (std::size_t b = 0; b < cols; ++b) row_out[b] += w * xin[b];
        }
    }
}

#if defined(CICHAR_BATCH_AVX2)
// Register-blocked: 16 columns (4 vectors) of output row `o` live in
// registers across the whole ascending-i weight loop and are stored
// exactly once, instead of reloading the accumulator row from memory for
// every weight. Each column still computes bias + sum_i w_i * x_i in
// ascending i with separate mul and add, so the kernel stays
// bit-identical to the generic body and to the scalar layer_forward.
__attribute__((target("avx2"))) void layer_affine_batch_avx2(
    const Layer& layer, const double* in, double* out, std::size_t stride,
    std::size_t cols) noexcept {
    for (std::size_t o = 0; o < layer.out; ++o) {
        double* row_out = out + o * stride;
        const double* wrow = &layer.weights[o * layer.in];
        const __m256d bias = _mm256_set1_pd(layer.biases[o]);
        std::size_t b = 0;
        for (; b + 16 <= cols; b += 16) {
            __m256d a0 = bias;
            __m256d a1 = bias;
            __m256d a2 = bias;
            __m256d a3 = bias;
            const double* col = in + b;
            for (std::size_t i = 0; i < layer.in; ++i) {
                const __m256d w = _mm256_set1_pd(wrow[i]);
                const double* xin = col + i * stride;
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(w, _mm256_loadu_pd(xin)));
                a1 = _mm256_add_pd(a1,
                                   _mm256_mul_pd(w, _mm256_loadu_pd(xin + 4)));
                a2 = _mm256_add_pd(a2,
                                   _mm256_mul_pd(w, _mm256_loadu_pd(xin + 8)));
                a3 = _mm256_add_pd(a3,
                                   _mm256_mul_pd(w, _mm256_loadu_pd(xin + 12)));
            }
            _mm256_storeu_pd(row_out + b, a0);
            _mm256_storeu_pd(row_out + b + 4, a1);
            _mm256_storeu_pd(row_out + b + 8, a2);
            _mm256_storeu_pd(row_out + b + 12, a3);
        }
        for (; b + 4 <= cols; b += 4) {
            __m256d acc = bias;
            const double* col = in + b;
            for (std::size_t i = 0; i < layer.in; ++i) {
                acc = _mm256_add_pd(
                    acc, _mm256_mul_pd(_mm256_set1_pd(wrow[i]),
                                       _mm256_loadu_pd(col + i * stride)));
            }
            _mm256_storeu_pd(row_out + b, acc);
        }
        for (; b < cols; ++b) {
            double sum = layer.biases[o];
            for (std::size_t i = 0; i < layer.in; ++i) {
                sum += wrow[i] * in[b + i * stride];
            }
            row_out[b] = sum;
        }
    }
}
#endif

using LayerAffineKernel = void (*)(const Layer&, const double*, double*,
                                   std::size_t, std::size_t) noexcept;

LayerAffineKernel select_layer_kernel() noexcept {
#if defined(CICHAR_BATCH_AVX2)
    if (__builtin_cpu_supports("avx2")) return layer_affine_batch_avx2;
#endif
    return layer_affine_batch_generic;
}

/// Resolved once at startup; both bodies are bit-identical, so the
/// choice only affects speed.
const LayerAffineKernel g_layer_affine_batch = select_layer_kernel();

using SgdUpdateKernel = void (*)(Layer&, const double*, const double*,
                                 double*, double*, double*, double,
                                 double) noexcept;

template <bool Propagate>
SgdUpdateKernel select_sgd_kernel() noexcept {
#if defined(CICHAR_BATCH_AVX2)
    if (__builtin_cpu_supports("avx2")) return sgd_update_avx2<Propagate>;
#endif
    return sgd_update_generic<Propagate>;
}

/// Resolved once at startup like the affine kernel: the last layer's
/// update (nothing to propagate) and a hidden layer's.
const SgdUpdateKernel g_sgd_update = select_sgd_kernel<false>();
const SgdUpdateKernel g_sgd_update_propagate = select_sgd_kernel<true>();

/// Columns per tile of the batch forward: a tile's activations for the
/// widest layers stay L1-resident across the whole layer stack.
constexpr std::size_t kBatchTileCols = 128;

}  // namespace

void sgd_layer_update(Layer& layer, const double* in, const double* delta,
                      double* weight_velocity, double* bias_velocity,
                      double* prev_delta, double lr, double momentum) noexcept {
    (prev_delta != nullptr ? g_sgd_update_propagate : g_sgd_update)(
        layer, in, delta, weight_velocity, bias_velocity, prev_delta, lr,
        momentum);
}

void pack_batch(std::span<const double> xs, std::size_t batch,
                std::size_t width, std::vector<double>& packed) {
    assert(xs.size() == batch * width);
    packed.resize(batch * width);
    for (std::size_t b = 0; b < batch; ++b) {
        const double* row = xs.data() + b * width;
        for (std::size_t f = 0; f < width; ++f) {
            packed[f * batch + b] = row[f];
        }
    }
}

Mlp::Mlp(std::span<const std::size_t> sizes, Activation hidden,
         Activation output) {
    assert(sizes.size() >= 2);
    layers_.reserve(sizes.size() - 1);
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
        Layer layer;
        layer.in = sizes[i];
        layer.out = sizes[i + 1];
        layer.activation = (i + 2 == sizes.size()) ? output : hidden;
        layer.weights.assign(layer.in * layer.out, 0.0);
        layer.biases.assign(layer.out, 0.0);
        layers_.push_back(std::move(layer));
    }
}

void Mlp::init_weights(util::Rng& rng) {
    for (Layer& layer : layers_) {
        const double limit =
            std::sqrt(6.0 / static_cast<double>(layer.in + layer.out));
        for (double& w : layer.weights) w = rng.uniform(-limit, limit);
        for (double& b : layer.biases) b = 0.0;
    }
}

std::size_t Mlp::input_size() const noexcept {
    return layers_.empty() ? 0 : layers_.front().in;
}

std::size_t Mlp::output_size() const noexcept {
    return layers_.empty() ? 0 : layers_.back().out;
}

std::size_t Mlp::parameter_count() const noexcept {
    std::size_t count = 0;
    for (const Layer& layer : layers_) {
        count += layer.weights.size() + layer.biases.size();
    }
    return count;
}

std::span<const double> Mlp::forward(std::span<const double> x,
                                     ForwardScratch& scratch) const {
    assert(x.size() == input_size());
    scratch.current.assign(x.begin(), x.end());
    for (const Layer& layer : layers_) {
        scratch.next.resize(layer.out);
        layer_forward(layer, scratch.current.data(), scratch.next.data());
        scratch.current.swap(scratch.next);
    }
    return scratch.current;
}

std::vector<double> Mlp::forward(std::span<const double> x) const {
    ForwardScratch scratch;
    (void)forward(x, scratch);
    return std::move(scratch.current);
}

std::span<const double> Mlp::forward_batch_packed(
    std::span<const double> packed, std::size_t batch,
    BatchScratch& scratch) const {
    assert(packed.size() == input_size() * batch);
    scratch.batch = batch;
    scratch.width = output_size();
    if (layers_.empty() || batch == 0) {
        scratch.current.assign(packed.begin(), packed.end());
        scratch.width = batch == 0 ? output_size() : input_size();
        return scratch.current;
    }

    std::size_t widest = 0;
    for (const Layer& layer : layers_) widest = std::max(widest, layer.out);
    scratch.current.resize(widest * batch);
    scratch.next.resize(widest * batch);

    // Column tiles run the whole layer stack while a tile's activations
    // are cache-hot. The ping-pong parity is chosen so the final layer
    // always lands in `current` (rows are `batch`-strided, so tile
    // columns of consecutive rows line up across tiles).
    const std::size_t layer_count = layers_.size();
    for (std::size_t b0 = 0; b0 < batch; b0 += kBatchTileCols) {
        const std::size_t cols = std::min(kBatchTileCols, batch - b0);
        const double* in = packed.data() + b0;
        for (std::size_t li = 0; li < layer_count; ++li) {
            const Layer& layer = layers_[li];
            const bool into_current = (layer_count - 1 - li) % 2 == 0;
            double* out =
                (into_current ? scratch.current : scratch.next).data() + b0;
            g_layer_affine_batch(layer, in, out, batch, cols);
            for (std::size_t o = 0; o < layer.out; ++o) {
                activate_span(layer.activation,
                              std::span<double>(out + o * batch, cols));
            }
            in = out;
        }
    }
    return std::span<const double>(scratch.current.data(),
                                   output_size() * batch);
}

std::span<const double> Mlp::forward_batch(std::span<const double> xs,
                                           std::size_t batch,
                                           BatchScratch& scratch) const {
    pack_batch(xs, batch, input_size(), scratch.packed);
    return forward_batch_packed(scratch.packed, batch, scratch);
}

void Mlp::forward_trace(std::span<const double> x,
                        std::vector<std::vector<double>>& trace) const {
    assert(x.size() == input_size());
    trace.resize(layers_.size() + 1);
    trace[0].assign(x.begin(), x.end());
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        const Layer& layer = layers_[li];
        trace[li + 1].resize(layer.out);
        layer_forward(layer, trace[li].data(), trace[li + 1].data());
    }
}

std::vector<std::vector<double>> Mlp::forward_trace(
    std::span<const double> x) const {
    std::vector<std::vector<double>> trace;
    forward_trace(x, trace);
    return trace;
}

}  // namespace cichar::nn
