#include "fuzzy/variable.hpp"

#include <algorithm>
#include <cassert>

namespace cichar::fuzzy {

LinguisticVariable::LinguisticVariable(std::string name, double domain_lo,
                                       double domain_hi)
    : name_(std::move(name)), lo_(domain_lo), hi_(domain_hi) {
    assert(domain_lo < domain_hi);
}

void LinguisticVariable::add_term(std::string term_name,
                                  MembershipFunction membership) {
    terms_.push_back(FuzzyTerm{std::move(term_name), membership});
    // Rebuild the default-resolution defuzzification grid. Grid x values
    // are computed exactly as in defuzzify's loop, so cached memberships
    // match on-the-fly evaluation bit for bit.
    const std::size_t samples = kDefaultDefuzzSamples;
    const double step = (hi_ - lo_) / static_cast<double>(samples - 1);
    grid_.resize(terms_.size() * samples);
    support_.assign(terms_.size(), Support{});
    for (std::size_t i = 0; i < terms_.size(); ++i) {
        Support& support = support_[i];
        for (std::size_t s = 0; s < samples; ++s) {
            const double x = lo_ + step * static_cast<double>(s);
            const double mu = terms_[i].membership(x);
            grid_[i * samples + s] = mu;
            if (mu == 0.0) continue;
            if (support.first == support.last) support.first = s;
            support.last = s + 1;
        }
    }
}

std::size_t LinguisticVariable::term_index(std::string_view term_name) const {
    for (std::size_t i = 0; i < terms_.size(); ++i) {
        if (terms_[i].name == term_name) return i;
    }
    return npos;
}

std::vector<double> LinguisticVariable::fuzzify(double x) const {
    std::vector<double> degrees;
    degrees.reserve(terms_.size());
    for (const FuzzyTerm& t : terms_) degrees.push_back(t.membership(x));
    return degrees;
}

std::size_t LinguisticVariable::best_term(double x) const {
    assert(!terms_.empty());
    std::size_t best = 0;
    double best_degree = -1.0;
    for (std::size_t i = 0; i < terms_.size(); ++i) {
        const double d = terms_[i].membership(x);
        if (d > best_degree) {
            best_degree = d;
            best = i;
        }
    }
    return best;
}

double LinguisticVariable::defuzzify(std::span<const double> activations,
                                     std::size_t samples) const {
    assert(activations.size() == terms_.size());
    assert(samples >= 2);
    double weighted = 0.0;
    double total = 0.0;
    const double step = (hi_ - lo_) / static_cast<double>(samples - 1);
    if (samples == kDefaultDefuzzSamples &&
        grid_.size() == terms_.size() * samples) {
        // Fast path: membership values come from the add_term cache, and
        // the aggregate mu[s] is built term-by-term over contiguous grid
        // rows (vectorizable min/max). Per grid point the max still folds
        // terms in ascending order, and the weighted/total accumulation
        // below runs in the same ascending-s order as the generic loop,
        // so the result is bit-identical — only the membership function
        // calls are gone. Clamping an activation is loop-invariant, so it
        // is hoisted per term, and each term visits only its support: a
        // zero membership clips to a zero that leaves mu[s] (>= 0) as is.
        double mu[kDefaultDefuzzSamples] = {};
        for (std::size_t i = 0; i < terms_.size(); ++i) {
            const double a = std::clamp(activations[i], 0.0, 1.0);
            const double* row = grid_.data() + i * samples;
            for (std::size_t s = support_[i].first; s < support_[i].last;
                 ++s) {
                mu[s] = std::max(mu[s], std::min(a, row[s]));
            }
        }
        for (std::size_t s = 0; s < samples; ++s) {
            const double x = lo_ + step * static_cast<double>(s);
            weighted += mu[s] * x;
            total += mu[s];
        }
    } else {
        for (std::size_t s = 0; s < samples; ++s) {
            const double x = lo_ + step * static_cast<double>(s);
            double mu = 0.0;
            for (std::size_t i = 0; i < terms_.size(); ++i) {
                const double clipped =
                    std::min(std::clamp(activations[i], 0.0, 1.0),
                             terms_[i].membership(x));
                mu = std::max(mu, clipped);
            }
            weighted += mu * x;
            total += mu;
        }
    }
    if (total <= 0.0) return 0.5 * (lo_ + hi_);
    return weighted / total;
}

}  // namespace cichar::fuzzy
