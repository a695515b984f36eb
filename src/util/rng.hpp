// Deterministic pseudo-random number generation for reproducible
// characterization runs.
//
// Every stochastic component in the library (random test generation,
// process-variation sampling, NN weight init, GA operators, measurement
// noise) draws from an explicitly seeded Rng so that a whole experiment is
// reproducible from a single seed printed in the bench output.
#pragma once

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace cichar::util {

/// xoshiro256** engine seeded via splitmix64.
///
/// Chosen over std::mt19937_64 for (a) guaranteed identical streams across
/// standard libraries and (b) cheap copyability for forked sub-streams.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four 64-bit state words by iterating splitmix64 on `seed`.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

    /// Raw 64-bit draw (UniformRandomBitGenerator interface).
    [[nodiscard]] std::uint64_t operator()() noexcept {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept {
        return std::numeric_limits<std::uint64_t>::max();
    }

    /// The draw's top 53 bits, uniform in [0, 2^53).
    [[nodiscard]] std::uint64_t unit_bits() noexcept { return (*this)() >> 11; }

    /// Uniform double in [0, 1): unit_bits() * 2^-53, exact.
    [[nodiscard]] double uniform() noexcept {
        return static_cast<double>(unit_bits()) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
        assert(lo <= hi);
        const auto span = static_cast<std::uint64_t>(hi - lo);
        if (span == max()) return static_cast<std::int64_t>((*this)());
        // Bitmask rejection: unbiased and branch-cheap (mask halves the
        // reject probability below 0.5 per draw).
        const std::uint64_t mask = ~std::uint64_t{0} >> std::countl_zero(span | 1);
        std::uint64_t draw = 0;
        do {
            draw = (*this)() & mask;
        } while (draw > span);
        return lo + static_cast<std::int64_t>(draw);
    }

    /// Uniform index in [0, n). Requires n > 0.
    [[nodiscard]] std::size_t index(std::size_t n) noexcept {
        assert(n > 0);
        return static_cast<std::size_t>(
            uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }

    /// Bernoulli draw with probability `p` of true.
    [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

    /// Integer form of a probability `p`: the count of unit_bits() values
    /// k with k * 2^-53 < p, i.e. ceil(p * 2^53) clamped to [0, 2^53].
    /// Scaling by 2^53 is exact and, for an integer k, k < x <=>
    /// k < ceil(x); so `unit_bits() < threshold(p)` is `uniform() < p`
    /// for every double p, NaN and infinities included.
    [[nodiscard]] static std::uint64_t threshold(double p) noexcept {
        if (!(p > 0.0)) return 0;
        if (p >= 1.0) return std::uint64_t{1} << 53;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /// bernoulli(p) against a precomputed `threshold(p)`: the same result
    /// from the same single draw, as one integer compare.
    [[nodiscard]] bool below(std::uint64_t threshold) noexcept {
        return unit_bits() < threshold;
    }

    /// Standard normal via Marsaglia polar method (cached spare).
    [[nodiscard]] double normal() noexcept;

    /// Normal with the given mean and standard deviation.
    [[nodiscard]] double normal(double mean, double stddev) noexcept;

    /// Fisher-Yates shuffle of a span.
    template <typename T>
    void shuffle(std::span<T> data) noexcept {
        if (data.size() < 2) return;
        for (std::size_t i = data.size() - 1; i > 0; --i) {
            const std::size_t j = index(i + 1);
            using std::swap;
            swap(data[i], data[j]);
        }
    }

    /// Picks one element uniformly. Requires non-empty.
    template <typename T>
    [[nodiscard]] const T& pick(std::span<const T> items) noexcept {
        return items[index(items.size())];
    }

    /// Derives an independent child stream; deterministic given the parent
    /// state and `salt`. The parent advances by one draw.
    [[nodiscard]] Rng fork(std::uint64_t salt = 0) noexcept;

    /// Draws `n` distinct indices from [0, pool) without replacement.
    /// Requires n <= pool.
    [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                                      std::size_t pool);

    /// Full generator snapshot: stream position plus the cached Marsaglia
    /// spare, so a restored Rng replays the exact remaining sequence.
    struct State {
        std::uint64_t words[4] = {0, 0, 0, 0};
        double spare_normal = 0.0;
        bool has_spare = false;

        [[nodiscard]] bool operator==(const State&) const = default;
    };

    [[nodiscard]] State state() const noexcept;
    void restore(const State& state) noexcept;

private:
    std::uint64_t state_[4];
    double spare_normal_ = 0.0;
    bool has_spare_ = false;
};

}  // namespace cichar::util
