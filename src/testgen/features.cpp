#include "testgen/features.hpp"

#include "testgen/address_map.hpp"

namespace cichar::testgen {
namespace {

double safe_ratio(double num, double denom) {
    return denom > 0.0 ? num / denom : 0.0;
}

double normalized(double lo, double hi, double v) {
    if (hi == lo) return 0.5;
    const double t = (v - lo) / (hi - lo);
    return t < 0.0 ? 0.0 : (t > 1.0 ? 1.0 : t);
}

}  // namespace

std::string_view FeatureVector::name(std::size_t i) noexcept {
    switch (i) {
        case kToggleDensity: return "toggle_density";
        case kAddrTransition: return "addr_transition";
        case kBankConflictRate: return "bank_conflict_rate";
        case kRowLocality: return "row_locality";
        case kReadFraction: return "read_fraction";
        case kWriteFraction: return "write_fraction";
        case kRwSwitchRate: return "rw_switch_rate";
        case kBurstiness: return "burstiness";
        case kAlternatingData: return "alternating_data";
        case kControlActivity: return "control_activity";
        case kVddNorm: return "vdd_norm";
        case kTemperatureNorm: return "temperature_norm";
        case kClockPeriodNorm: return "clock_period_norm";
        case kOutputLoadNorm: return "output_load_norm";
        default: return "unknown";
    }
}

FeatureVector extract_pattern_features(const PatternStats& s, std::size_t cycles) {
    FeatureVector fv;
    if (cycles == 0) return fv;

    const double n = static_cast<double>(cycles);
    const auto d = [](std::uint64_t count) { return static_cast<double>(count); };

    auto& v = fv.values;
    v[kToggleDensity] = safe_ratio(d(s.toggle_bits), 16.0 * d(s.write_pairs));
    v[kAddrTransition] = safe_ratio(
        d(s.addr_bits), d(AddressMap::kAddressBits) * d(s.op_pairs));
    v[kBankConflictRate] = safe_ratio(d(s.bank_conflicts), d(s.op_pairs));
    v[kRowLocality] = safe_ratio(d(s.same_row), d(s.op_pairs));
    v[kReadFraction] = d(s.reads) / n;
    v[kWriteFraction] = d(s.writes) / n;
    v[kRwSwitchRate] = safe_ratio(d(s.rw_switches), d(s.op_pairs));
    v[kBurstiness] = d(s.bursts) / n;
    v[kAlternatingData] = safe_ratio(d(s.alternating_writes), d(s.writes));
    v[kControlActivity] = d(s.control_changes) / n;
    return fv;
}

FeatureVector extract_pattern_features(const TestPattern& pattern) {
    return extract_pattern_features(pattern.stats(), pattern.size());
}

FeatureVector extract_features(const PatternStats& stats, std::size_t cycles,
                               const TestConditions& c,
                               const ConditionBounds& bounds) {
    FeatureVector fv = extract_pattern_features(stats, cycles);
    auto& v = fv.values;
    v[kVddNorm] = normalized(bounds.vdd_min, bounds.vdd_max, c.vdd_volts);
    v[kTemperatureNorm] =
        normalized(bounds.temperature_min, bounds.temperature_max, c.temperature_c);
    v[kClockPeriodNorm] = normalized(bounds.clock_period_min_ns,
                                     bounds.clock_period_max_ns, c.clock_period_ns);
    v[kOutputLoadNorm] = normalized(bounds.output_load_min_pf,
                                    bounds.output_load_max_pf, c.output_load_pf);
    return fv;
}

FeatureVector extract_features(const Test& test, const ConditionBounds& bounds) {
    return extract_features(test.pattern.stats(), test.pattern.size(),
                            test.conditions, bounds);
}

}  // namespace cichar::testgen
