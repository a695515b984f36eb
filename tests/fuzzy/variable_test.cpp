#include "fuzzy/variable.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "fuzzy/coding.hpp"
#include "util/rng.hpp"

namespace cichar::fuzzy {
namespace {

LinguisticVariable temperature() {
    LinguisticVariable v("temp", 0.0, 100.0);
    v.add_term("cold", MembershipFunction::shoulder_left(20.0, 40.0));
    v.add_term("warm", MembershipFunction::triangular(20.0, 50.0, 80.0));
    v.add_term("hot", MembershipFunction::shoulder_right(60.0, 80.0));
    return v;
}

TEST(VariableTest, TermLookup) {
    const LinguisticVariable v = temperature();
    EXPECT_EQ(v.term_count(), 3u);
    EXPECT_EQ(v.term_index("warm"), 1u);
    EXPECT_EQ(v.term_index("missing"), LinguisticVariable::npos);
    EXPECT_EQ(v.term(2).name, "hot");
}

TEST(VariableTest, FuzzifyDegrees) {
    const LinguisticVariable v = temperature();
    const auto degrees = v.fuzzify(30.0);
    ASSERT_EQ(degrees.size(), 3u);
    EXPECT_DOUBLE_EQ(degrees[0], 0.5);   // cold falling
    EXPECT_NEAR(degrees[1], 1.0 / 3.0, 1e-12);  // warm rising
    EXPECT_DOUBLE_EQ(degrees[2], 0.0);
}

TEST(VariableTest, BestTermAtExtremes) {
    const LinguisticVariable v = temperature();
    EXPECT_EQ(v.best_term(0.0), 0u);
    EXPECT_EQ(v.best_term(50.0), 1u);
    EXPECT_EQ(v.best_term(95.0), 2u);
}

TEST(VariableTest, DefuzzifySingleTermCentroid) {
    LinguisticVariable v("x", 0.0, 10.0);
    v.add_term("mid", MembershipFunction::triangular(4.0, 5.0, 6.0));
    const std::vector<double> act{1.0};
    EXPECT_NEAR(v.defuzzify(act, 1001), 5.0, 0.01);
}

TEST(VariableTest, DefuzzifyWeightsTerms) {
    LinguisticVariable v("x", 0.0, 10.0);
    v.add_term("low", MembershipFunction::triangular(1.0, 2.0, 3.0));
    v.add_term("high", MembershipFunction::triangular(7.0, 8.0, 9.0));
    const std::vector<double> low_only{1.0, 0.0};
    const std::vector<double> high_only{0.0, 1.0};
    const std::vector<double> both{1.0, 1.0};
    EXPECT_NEAR(v.defuzzify(low_only, 1001), 2.0, 0.05);
    EXPECT_NEAR(v.defuzzify(high_only, 1001), 8.0, 0.05);
    EXPECT_NEAR(v.defuzzify(both, 1001), 5.0, 0.05);
}

TEST(VariableTest, DefuzzifyPartialActivationPullsCentroid) {
    LinguisticVariable v("x", 0.0, 10.0);
    v.add_term("low", MembershipFunction::triangular(1.0, 2.0, 3.0));
    v.add_term("high", MembershipFunction::triangular(7.0, 8.0, 9.0));
    const std::vector<double> skewed{0.2, 1.0};
    EXPECT_GT(v.defuzzify(skewed, 1001), 6.0);
}

TEST(VariableTest, DefuzzifyZeroActivationsMidpoint) {
    LinguisticVariable v("x", 2.0, 8.0);
    v.add_term("t", MembershipFunction::triangular(3.0, 4.0, 5.0));
    const std::vector<double> none{0.0};
    EXPECT_DOUBLE_EQ(v.defuzzify(none), 5.0);
}

TEST(VariableTest, DefuzzifyClampsActivations) {
    LinguisticVariable v("x", 0.0, 10.0);
    v.add_term("t", MembershipFunction::triangular(4.0, 5.0, 6.0));
    const std::vector<double> overdriven{7.5};  // clamped to 1
    EXPECT_NEAR(v.defuzzify(overdriven, 1001), 5.0, 0.01);
}

// The uncached centroid loop, membership functions evaluated on the fly.
double reference_defuzzify(const LinguisticVariable& v,
                           const std::vector<double>& activations) {
    const std::size_t samples = LinguisticVariable::kDefaultDefuzzSamples;
    const double step =
        (v.domain_hi() - v.domain_lo()) / static_cast<double>(samples - 1);
    double weighted = 0.0;
    double total = 0.0;
    for (std::size_t s = 0; s < samples; ++s) {
        const double x = v.domain_lo() + step * static_cast<double>(s);
        double mu = 0.0;
        for (std::size_t i = 0; i < v.term_count(); ++i) {
            mu = std::max(mu, std::min(std::clamp(activations[i], 0.0, 1.0),
                                       v.term(i).membership(x)));
        }
        weighted += mu * x;
        total += mu;
    }
    if (total <= 0.0) return 0.5 * (v.domain_lo() + v.domain_hi());
    return weighted / total;
}

TEST(VariableTest, CachedDefuzzifyMatchesUncachedLoopBitForBit) {
    // The default resolution reads the membership grid and visits each
    // term's support only; every result must equal the plain loop's.
    const LinguisticVariable wcr = TripPointCoder::fuzzy_wcr_fine().variable();
    util::Rng rng(2005);
    std::vector<double> activations(wcr.term_count());
    for (int trial = 0; trial < 2000; ++trial) {
        for (double& a : activations) {
            const double u = rng.uniform();
            // Mostly sigmoid-range outputs, some exact zeros, some
            // out-of-range values the clamp must handle.
            a = trial % 7 == 0 ? 0.0 : trial % 11 == 0 ? 2.0 * u - 0.5 : u;
        }
        ASSERT_EQ(wcr.defuzzify(activations),
                  reference_defuzzify(wcr, activations))
            << "trial " << trial;
    }
    const LinguisticVariable temp = temperature();
    for (const std::vector<double>& levels :
         {std::vector<double>{1.0, 0.0, 0.0}, std::vector<double>{0.0, 0.3, 0.9},
          std::vector<double>{0.25, 0.5, 0.75}}) {
        EXPECT_EQ(temp.defuzzify(levels), reference_defuzzify(temp, levels));
    }
}

}  // namespace
}  // namespace cichar::fuzzy
