// Linguistic variables: a named domain partitioned into fuzzy terms
// ("pass", "weakness", "fail"). Fuzzification turns a crisp measurement
// into term degrees; centroid defuzzification inverts NN class outputs
// back into a crisp value.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fuzzy/membership.hpp"

namespace cichar::fuzzy {

/// One named term of a variable.
struct FuzzyTerm {
    std::string name;
    MembershipFunction membership;
};

class LinguisticVariable {
public:
    LinguisticVariable(std::string name, double domain_lo, double domain_hi);

    void add_term(std::string term_name, MembershipFunction membership);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] double domain_lo() const noexcept { return lo_; }
    [[nodiscard]] double domain_hi() const noexcept { return hi_; }
    [[nodiscard]] std::size_t term_count() const noexcept {
        return terms_.size();
    }
    [[nodiscard]] const FuzzyTerm& term(std::size_t i) const noexcept {
        return terms_[i];
    }
    /// Index of the named term, or npos.
    [[nodiscard]] std::size_t term_index(std::string_view term_name) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Membership degrees of `x` in every term (one per term).
    [[nodiscard]] std::vector<double> fuzzify(double x) const;

    /// Index of the term with the highest degree at `x`.
    [[nodiscard]] std::size_t best_term(double x) const;

    /// Grid resolution of the cached default defuzzification.
    static constexpr std::size_t kDefaultDefuzzSamples = 201;

    /// Centroid defuzzification: given per-term activation levels (clipped
    /// Mamdani aggregation, max-combined), integrates over the domain with
    /// `samples` points. Returns the domain midpoint when all activations
    /// are zero. At the default resolution the per-term membership values
    /// on the grid come from a cache built in add_term — the same
    /// function evaluated at the same points, so results are bit-identical
    /// to the uncached loop while skipping ~terms * samples membership
    /// calls per decode (the hot cost of committee candidate scoring).
    [[nodiscard]] double defuzzify(
        std::span<const double> activations,
        std::size_t samples = kDefaultDefuzzSamples) const;

private:
    std::string name_;
    double lo_;
    double hi_;
    std::vector<FuzzyTerm> terms_;
    /// terms x kDefaultDefuzzSamples membership values, term-major.
    std::vector<double> grid_;
    /// Per term, the grid samples [first, last) outside which its
    /// membership is zero: a zero clips to zero and never raises the
    /// max-aggregate, so defuzzify skips those samples.
    struct Support {
        std::size_t first = 0;
        std::size_t last = 0;
    };
    std::vector<Support> support_;
};

}  // namespace cichar::fuzzy
