#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numeric>

namespace cichar::util {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
    // A state of all zeros would be a fixed point; splitmix64 cannot
    // produce four zero outputs in a row, so no explicit guard is needed.
}

double Rng::normal() noexcept {
    if (has_spare_) {
        has_spare_ = false;
        return spare_normal_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_normal_ = v * factor;
    has_spare_ = true;
    return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
}

Rng Rng::fork(std::uint64_t salt) noexcept {
    return Rng((*this)() ^ (salt * 0xD1B54A32D192ED03ULL));
}

Rng::State Rng::state() const noexcept {
    State snapshot;
    for (std::size_t i = 0; i < 4; ++i) snapshot.words[i] = state_[i];
    snapshot.spare_normal = spare_normal_;
    snapshot.has_spare = has_spare_;
    return snapshot;
}

void Rng::restore(const State& state) noexcept {
    for (std::size_t i = 0; i < 4; ++i) state_[i] = state.words[i];
    spare_normal_ = state.spare_normal;
    has_spare_ = state.has_spare;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t pool) {
    assert(n <= pool);
    std::vector<std::size_t> all(pool);
    std::iota(all.begin(), all.end(), std::size_t{0});
    // Partial Fisher-Yates: only the first n slots need to be randomized.
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = i + index(pool - i);
        std::swap(all[i], all[j]);
    }
    all.resize(n);
    return all;
}

}  // namespace cichar::util
