#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

namespace cichar::util {
namespace {

TEST(RngTest, SameSeedSameStream) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a(), b());
    }
}

TEST(RngTest, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(RngTest, CopyForksIdenticalFuture) {
    Rng a(7);
    (void)a();
    Rng b = a;  // value semantics: copies the whole state
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(a(), b());
    }
}

TEST(RngTest, UniformInUnitInterval) {
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespectsBounds) {
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.5, 2.25);
        ASSERT_GE(u, -3.5);
        ASSERT_LT(u, 2.25);
    }
}

TEST(RngTest, UniformMeanNearHalf) {
    Rng rng(11);
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) sum += rng.uniform();
    EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, UniformIntInclusiveBounds) {
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.uniform_int(-2, 3);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u);  // all 6 values hit in 1000 draws
}

TEST(RngTest, UniformIntSingleValue) {
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rng.uniform_int(42, 42), 42);
    }
}

TEST(RngTest, IndexCoversRange) {
    Rng rng(1);
    std::array<int, 8> histogram{};
    for (int i = 0; i < 8000; ++i) ++histogram[rng.index(8)];
    for (const int count : histogram) {
        EXPECT_GT(count, 700);
        EXPECT_LT(count, 1300);
    }
}

TEST(RngTest, BernoulliExtremes) {
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(RngTest, BernoulliFrequency) {
    Rng rng(3);
    int hits = 0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i) {
        if (rng.bernoulli(0.3)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

// below(threshold(p)) replaces uniform() < p in the pattern generator, so
// the two must agree for every 53-bit draw k, not only on average: check
// the draws on either side of each threshold, edge probabilities included.
TEST(RngTest, ThresholdMatchesUniformCompare) {
    using limits = std::numeric_limits<double>;
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    const double tiny = 0x1.0p-53;
    const std::array<double, 16> probabilities = {
        -1.0, -0.0, 0.0, limits::denorm_min(),
        std::nextafter(tiny, 0.0), tiny, std::nextafter(tiny, 1.0),
        0.1, 0.5, std::nextafter(1.0, 0.0), 1.0, 1.5,
        limits::infinity(), -limits::infinity(), limits::quiet_NaN(), 0.3};
    for (const double p : probabilities) {
        const std::uint64_t t = Rng::threshold(p);
        EXPECT_LE(t, kDraws) << p;
        for (const std::uint64_t k : {t - 1, t, t + 1}) {
            if (k >= kDraws) continue;  // covers t == 0 (wraps) and t == 2^53
            EXPECT_EQ(k < t, static_cast<double>(k) * 0x1.0p-53 < p)
                << "p " << p << " k " << k;
        }
    }

    for (const double p : probabilities) {
        Rng a(17);
        Rng b = a;
        const std::uint64_t t = Rng::threshold(p);
        for (int i = 0; i < 100000; ++i) {
            ASSERT_EQ(a.below(t), b.bernoulli(p)) << "p " << p << " draw " << i;
        }
        EXPECT_EQ(a.state(), b.state());
    }
}

TEST(RngTest, NormalMoments) {
    Rng rng(4);
    constexpr int kN = 100000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    const double mean = sum / kN;
    const double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, NormalShiftScale) {
    Rng rng(4);
    constexpr int kN = 50000;
    double sum = 0.0;
    for (int i = 0; i < kN; ++i) sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
    Rng rng(8);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    rng.shuffle(std::span<int>(v));
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(RngTest, ShuffleActuallyMoves) {
    Rng rng(8);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    rng.shuffle(std::span<int>(v));
    int moved = 0;
    for (int i = 0; i < 100; ++i) {
        if (v[static_cast<size_t>(i)] != i) ++moved;
    }
    EXPECT_GT(moved, 50);
}

TEST(RngTest, ShuffleEmptyAndSingleAreNoops) {
    Rng rng(8);
    std::vector<int> empty;
    rng.shuffle(std::span<int>(empty));
    std::vector<int> one{42};
    rng.shuffle(std::span<int>(one));
    EXPECT_EQ(one[0], 42);
}

TEST(RngTest, ForkIndependentButDeterministic) {
    Rng a(77);
    Rng b(77);
    Rng fa = a.fork(1);
    Rng fb = b.fork(1);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(fa(), fb());

    Rng c(77);
    Rng f1 = c.fork(1);
    // Different salt would need the same parent state; rebuild.
    Rng d(77);
    Rng f2 = d.fork(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (f1() == f2()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
    Rng rng(10);
    const auto sample = rng.sample_without_replacement(20, 100);
    EXPECT_EQ(sample.size(), 20u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (const std::size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(RngTest, SampleWholePool) {
    Rng rng(10);
    const auto sample = rng.sample_without_replacement(10, 10);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, PickReturnsElement) {
    Rng rng(3);
    const std::vector<int> items{5, 6, 7};
    for (int i = 0; i < 50; ++i) {
        const int p = rng.pick(std::span<const int>(items));
        EXPECT_TRUE(p == 5 || p == 6 || p == 7);
    }
}

// Property sweep: bounded draws stay in bounds for many bound shapes.
class RngBoundsTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RngBoundsTest, UniformIntAlwaysInBounds) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
    const std::int64_t hi = GetParam();
    const std::int64_t lo = -hi / 2;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.uniform_int(lo, hi);
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
    }
}

TEST(RngStateTest, RestoreReplaysExactStream) {
    Rng rng(77);
    for (int i = 0; i < 37; ++i) (void)rng();
    (void)rng.normal();  // leaves a cached spare in the state
    const Rng::State snapshot = rng.state();

    std::vector<double> expected;
    for (int i = 0; i < 64; ++i) expected.push_back(rng.normal());

    Rng restored(1);  // deliberately different seed; restore overrides it
    restored.restore(snapshot);
    for (int i = 0; i < 64; ++i) {
        ASSERT_DOUBLE_EQ(restored.normal(), expected[static_cast<std::size_t>(i)]);
    }
}

TEST(RngStateTest, SnapshotDoesNotAdvanceStream) {
    Rng a(5);
    Rng b(5);
    (void)a.state();
    EXPECT_EQ(a(), b());
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundsTest,
                         ::testing::Values<std::int64_t>(1, 2, 3, 7, 15, 100,
                                                         1000, 1 << 20,
                                                         (1LL << 40) + 17));

}  // namespace
}  // namespace cichar::util
