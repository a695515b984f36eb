#include "testgen/features.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "testgen/address_map.hpp"
#include "testgen/march.hpp"
#include "testgen/pattern_io.hpp"
#include "testgen/random_gen.hpp"
#include "util/rng.hpp"

namespace cichar::testgen {
namespace {

// The batch extractor that scanned every cycle, kept as the reference the
// incrementally maintained PatternStats must reproduce bit for bit.
std::array<double, kPatternFeatureCount> reference_features(
    std::span<const VectorCycle> pattern) {
    std::array<double, kPatternFeatureCount> v{};
    if (pattern.empty()) return v;
    const auto safe_ratio = [](double num, double denom) {
        return denom > 0.0 ? num / denom : 0.0;
    };

    const double cycles = static_cast<double>(pattern.size());

    double toggle_bits = 0.0;
    std::size_t write_pairs = 0;
    double addr_bits = 0.0;
    std::size_t addr_pairs = 0;
    std::size_t bank_conflicts = 0;
    std::size_t same_row = 0;
    std::size_t op_pairs = 0;
    std::size_t reads = 0;
    std::size_t writes = 0;
    std::size_t rw_switches = 0;
    std::size_t bursts = 0;
    std::size_t alternating_writes = 0;
    std::size_t control_changes = 0;

    bool have_prev_write = false;
    std::uint16_t prev_write_data = 0;
    bool have_prev_op = false;
    std::uint32_t prev_addr = 0;
    BusOp prev_op = BusOp::kNop;
    bool have_prev_cycle = false;
    bool prev_ce = true;
    bool prev_oe = false;

    for (const VectorCycle& vc : pattern) {
        if (have_prev_cycle &&
            (vc.chip_enable != prev_ce || vc.output_enable != prev_oe)) {
            ++control_changes;
        }
        prev_ce = vc.chip_enable;
        prev_oe = vc.output_enable;
        have_prev_cycle = true;

        if (vc.burst) ++bursts;

        if (vc.op == BusOp::kNop) continue;

        if (vc.op == BusOp::kRead) ++reads;
        if (vc.op == BusOp::kWrite) {
            ++writes;
            if (have_prev_write) {
                toggle_bits += std::popcount(
                    static_cast<std::uint16_t>(vc.data ^ prev_write_data));
                ++write_pairs;
            }
            prev_write_data = vc.data;
            have_prev_write = true;
            if (vc.data == 0x5555 || vc.data == 0xAAAA) ++alternating_writes;
        }

        if (have_prev_op) {
            addr_bits += std::popcount(vc.address ^ prev_addr);
            ++addr_pairs;
            ++op_pairs;
            const bool same_bank = AddressMap::bank_of(vc.address) ==
                                   AddressMap::bank_of(prev_addr);
            const bool row_match = AddressMap::row_of(vc.address) ==
                                   AddressMap::row_of(prev_addr);
            if (same_bank && !row_match) ++bank_conflicts;
            if (same_bank && row_match) ++same_row;
            if ((vc.op == BusOp::kRead) != (prev_op == BusOp::kRead)) {
                ++rw_switches;
            }
        }
        prev_addr = vc.address;
        prev_op = vc.op;
        have_prev_op = true;
    }

    v[kToggleDensity] = safe_ratio(toggle_bits, 16.0 * static_cast<double>(write_pairs));
    v[kAddrTransition] = safe_ratio(
        addr_bits, static_cast<double>(AddressMap::kAddressBits) *
                       static_cast<double>(addr_pairs));
    v[kBankConflictRate] =
        safe_ratio(static_cast<double>(bank_conflicts), static_cast<double>(op_pairs));
    v[kRowLocality] =
        safe_ratio(static_cast<double>(same_row), static_cast<double>(op_pairs));
    v[kReadFraction] = static_cast<double>(reads) / cycles;
    v[kWriteFraction] = static_cast<double>(writes) / cycles;
    v[kRwSwitchRate] =
        safe_ratio(static_cast<double>(rw_switches), static_cast<double>(op_pairs));
    v[kBurstiness] = static_cast<double>(bursts) / cycles;
    v[kAlternatingData] = safe_ratio(static_cast<double>(alternating_writes),
                                     static_cast<double>(writes));
    v[kControlActivity] = static_cast<double>(control_changes) / cycles;
    return v;
}

std::array<std::uint64_t, kPatternFeatureCount> bits_of(
    const std::array<double, kPatternFeatureCount>& values) {
    std::array<std::uint64_t, kPatternFeatureCount> bits{};
    for (std::size_t i = 0; i < kPatternFeatureCount; ++i) {
        bits[i] = std::bit_cast<std::uint64_t>(values[i]);
    }
    return bits;
}

std::array<std::uint64_t, kPatternFeatureCount> feature_bits(
    const TestPattern& pattern) {
    const FeatureVector fv = extract_pattern_features(pattern);
    std::array<double, kPatternFeatureCount> values{};
    std::copy_n(fv.values.begin(), kPatternFeatureCount, values.begin());
    return bits_of(values);
}

void expect_matches_reference(const TestPattern& pattern) {
    EXPECT_EQ(feature_bits(pattern), bits_of(reference_features(pattern.cycles())))
        << pattern.name() << " (" << pattern.size() << " cycles)";
}

TestPattern random_pattern(std::uint64_t seed, std::uint32_t cycles) {
    PatternRecipe recipe;
    recipe.cycles = cycles;
    recipe.nop_fraction = 0.2;
    recipe.control_activity = 0.3;
    recipe.seed = seed;
    return RandomTestGenerator{}.expand(recipe, "random");
}

std::vector<VectorCycle> cycles_of(const TestPattern& pattern) {
    return {pattern.cycles().begin(), pattern.cycles().end()};
}

TEST(FeaturesTest, EmptyPatternAllZero) {
    const FeatureVector fv = extract_pattern_features(TestPattern{});
    for (std::size_t i = 0; i < kPatternFeatureCount; ++i) {
        EXPECT_EQ(fv[i], 0.0) << FeatureVector::name(i);
    }
}

TEST(FeaturesTest, AllFeaturesInUnitInterval) {
    TestPattern p("mixed");
    for (std::uint32_t i = 0; i < 64; ++i) {
        if (i % 3 == 0) {
            p.write(i * 37 % AddressMap::kWords,
                    static_cast<std::uint16_t>(i * 0x1357));
        } else if (i % 3 == 1) {
            p.read(i * 91 % AddressMap::kWords, i % 2 == 0);
        } else {
            p.nop();
        }
    }
    const FeatureVector fv = extract_pattern_features(p);
    for (std::size_t i = 0; i < kPatternFeatureCount; ++i) {
        EXPECT_GE(fv[i], 0.0) << FeatureVector::name(i);
        EXPECT_LE(fv[i], 1.0) << FeatureVector::name(i);
    }
}

TEST(FeaturesTest, ToggleDensityFullForComplementWrites) {
    TestPattern p("toggle");
    for (int i = 0; i < 32; ++i) {
        p.write(0, i % 2 == 0 ? std::uint16_t{0x0000} : std::uint16_t{0xFFFF});
    }
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kToggleDensity], 1.0);
}

TEST(FeaturesTest, ToggleDensityZeroForConstantWrites) {
    TestPattern p("const");
    for (int i = 0; i < 32; ++i) p.write(0, 0x1234);
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kToggleDensity], 0.0);
}

TEST(FeaturesTest, AlternatingDataDetected) {
    TestPattern p("alt");
    for (int i = 0; i < 16; ++i) {
        p.write(0, i % 2 == 0 ? std::uint16_t{0x5555} : std::uint16_t{0xAAAA});
    }
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kAlternatingData], 1.0);
    // 0x5555 <-> 0xAAAA flips every bit: toggle density is also 1.
    EXPECT_DOUBLE_EQ(fv[kToggleDensity], 1.0);
}

TEST(FeaturesTest, BankConflictDetected) {
    TestPattern p("conflict");
    // Same bank (0), alternating rows: every transition is a conflict.
    for (std::uint32_t i = 0; i < 32; ++i) {
        p.read(AddressMap::compose(0, i % 2 == 0 ? 3 : 9, 0));
    }
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kBankConflictRate], 1.0);
    EXPECT_DOUBLE_EQ(fv[kRowLocality], 0.0);
}

TEST(FeaturesTest, RowLocalityDetected) {
    TestPattern p("local");
    // Same bank and row, hopping columns only.
    for (std::uint32_t i = 0; i < 32; ++i) {
        p.read(AddressMap::compose(1, 5, i % AddressMap::kColumns));
    }
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kRowLocality], 1.0);
    EXPECT_DOUBLE_EQ(fv[kBankConflictRate], 0.0);
}

TEST(FeaturesTest, ReadWriteFractions) {
    TestPattern p("rw");
    for (int i = 0; i < 10; ++i) p.read(0);
    for (int i = 0; i < 30; ++i) p.write(0, 0);
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kReadFraction], 0.25);
    EXPECT_DOUBLE_EQ(fv[kWriteFraction], 0.75);
}

TEST(FeaturesTest, RwSwitchRateAlternating) {
    TestPattern p("switch");
    for (int i = 0; i < 20; ++i) {
        if (i % 2 == 0) {
            p.write(0, 0);
        } else {
            p.read(0);
        }
    }
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kRwSwitchRate], 1.0);
}

TEST(FeaturesTest, NopsBreakNothingButCountInDenominator) {
    TestPattern p("nops");
    p.write(0, 0);
    p.nop();
    p.nop();
    p.write(0, 0);
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kWriteFraction], 0.5);
}

TEST(FeaturesTest, ControlActivityCountsToggles) {
    TestPattern p("ctl");
    // write() asserts CE and deasserts OE; read() asserts OE: the OE line
    // toggles on every write<->read boundary.
    p.write(0, 0);
    p.read(0);
    p.write(0, 0);
    p.read(0);
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_NEAR(fv[kControlActivity], 3.0 / 4.0, 1e-12);
}

TEST(FeaturesTest, BurstinessCountsBurstFlags) {
    TestPattern p("burst");
    p.read(0, false);
    p.read(1, true);
    p.read(2, true);
    p.read(3, false);
    const FeatureVector fv = extract_pattern_features(p);
    EXPECT_DOUBLE_EQ(fv[kBurstiness], 0.5);
}

TEST(FeaturesTest, ConditionNormalization) {
    cichar::testgen::Test t;
    t.pattern.write(0, 0);
    ConditionBounds bounds;  // vdd 1.4..2.2
    t.conditions.vdd_volts = 1.8;
    t.conditions.temperature_c = bounds.temperature_min;
    t.conditions.clock_period_ns = bounds.clock_period_max_ns;
    t.conditions.output_load_pf = 30.0;
    const FeatureVector fv = extract_features(t, bounds);
    EXPECT_NEAR(fv[kVddNorm], 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(fv[kTemperatureNorm], 0.0);
    EXPECT_DOUBLE_EQ(fv[kClockPeriodNorm], 1.0);
    EXPECT_NEAR(fv[kOutputLoadNorm], 0.5, 1e-12);
}

TEST(FeaturesTest, CollapsedBoundsMapToHalf) {
    cichar::testgen::Test t;
    t.pattern.write(0, 0);
    const FeatureVector fv =
        extract_features(t, ConditionBounds::fixed_nominal());
    EXPECT_DOUBLE_EQ(fv[kVddNorm], 0.5);
    EXPECT_DOUBLE_EQ(fv[kTemperatureNorm], 0.5);
}

TEST(FeaturesTest, NamesExist) {
    for (std::size_t i = 0; i < kFeatureCount; ++i) {
        EXPECT_NE(FeatureVector::name(i), "unknown");
    }
    EXPECT_EQ(FeatureVector::name(kFeatureCount), "unknown");
}

TEST(FeaturesTest, DeterministicForSamePattern) {
    TestPattern p("det");
    for (std::uint32_t i = 0; i < 100; ++i) {
        p.write(i * 7 % AddressMap::kWords,
                static_cast<std::uint16_t>(i * 31));
    }
    const FeatureVector a = extract_pattern_features(p);
    const FeatureVector b = extract_pattern_features(p);
    EXPECT_EQ(a.values, b.values);
}

TEST(FeaturesTest, StatsMatchReferenceForEveryMutator) {
    const TestPattern source = random_pattern(11, 600);
    const std::vector<VectorCycle> cycles = cycles_of(source);

    expect_matches_reference(TestPattern("ctor", cycles));

    TestPattern pushed("push_back");
    for (const VectorCycle& vc : cycles) pushed.push_back(vc);
    expect_matches_reference(pushed);

    TestPattern built("write_read_nop");
    for (std::uint32_t i = 0; i < 300; ++i) {
        if (i % 5 == 0) {
            built.nop();
        } else if (i % 2 == 0) {
            built.write(i * 37 % AddressMap::kWords,
                        i % 4 == 0 ? std::uint16_t{0x5555}
                                   : static_cast<std::uint16_t>(i * 0x1357),
                        i % 3 == 0);
        } else {
            built.read(i * 91 % AddressMap::kWords, i % 3 == 0);
        }
    }
    expect_matches_reference(built);

    // Append onto a non-empty pattern: the seam pairs the last cycle of
    // the head with the first cycle of the tail.
    const auto slice = [&](std::size_t from, std::size_t to) {
        return std::vector<VectorCycle>(cycles.data() + from, cycles.data() + to);
    };
    for (const std::size_t split : {std::size_t{1}, std::size_t{299}, cycles.size() - 1}) {
        TestPattern head("head", slice(0, split));
        head.append(TestPattern("tail", slice(split, cycles.size())));
        EXPECT_EQ(feature_bits(head), feature_bits(source)) << "split " << split;
        expect_matches_reference(head);
    }
    TestPattern mixed("mixed_append", cycles);
    mixed.append(built);
    mixed.append(TestPattern{});
    expect_matches_reference(mixed);

    TestPattern empty("empty");
    empty.append(source);
    EXPECT_EQ(feature_bits(empty), feature_bits(source));
    expect_matches_reference(empty);
}

// Hand-built sequences that reach every have_prev_* state of
// PatternStats::absorb: nothing before the first op or write, control
// flips with no op at all, an address wrap that changes bank and row, and
// append seams between any two of them.
TEST(FeaturesTest, StatsMatchReferenceForEdgeSequences) {
    const auto cycle = [](BusOp op, std::uint32_t address, std::uint16_t data,
                          bool ce, bool oe, bool burst) {
        return VectorCycle{.address = address,
                           .data = data,
                           .op = op,
                           .chip_enable = ce,
                           .output_enable = oe,
                           .burst = burst};
    };
    std::vector<TestPattern> cases;

    TestPattern leading_nops("leading_nops");
    for (int i = 0; i < 4; ++i) leading_nops.nop();
    leading_nops.write(0x123, 0x5555);
    leading_nops.read(0x124);
    cases.push_back(leading_nops);

    TestPattern all_nop("all_nop");
    for (int i = 0; i < 5; ++i) all_nop.nop();
    cases.push_back(all_nop);

    TestPattern nop_control("nop_control_flips");
    for (const auto& [ce, oe] : {std::pair{true, false}, std::pair{false, false},
                                 std::pair{false, true}, std::pair{true, true},
                                 std::pair{true, true}}) {
        nop_control.push_back(cycle(BusOp::kNop, 0, 0, ce, oe, false));
    }
    cases.push_back(nop_control);

    // 0xFFE -> 0xFFF -> 0x000 -> 0x001: the wrap leaves bank 3 row 63 for
    // bank 0 row 0, with every address bit flipping.
    TestPattern wrap("burst_wrap");
    wrap.read(0xFFE);
    wrap.read(0xFFF, true);
    wrap.write(0x000, 0xFFFF, true);
    wrap.read(0x001, true);
    cases.push_back(wrap);

    TestPattern alternating("alternating_with_gaps");
    alternating.write(0x010, 0x5555);
    alternating.read(0x011);
    alternating.write(0x012, 0xAAAA);
    alternating.nop();
    alternating.write(0x013, 0x5555);
    alternating.read(0x014);
    alternating.nop();
    alternating.write(0x015, 0xAAAA);
    cases.push_back(alternating);

    TestPattern reads_only("reads_only");
    for (std::uint32_t a : {0x000u, 0x00Fu, 0x010u, 0x400u, 0x401u}) {
        reads_only.read(a, a == 0x401u);
    }
    cases.push_back(reads_only);

    TestPattern single("single_cycle");
    single.write(0x7FF, 0xAAAA);
    cases.push_back(single);

    for (const TestPattern& c : cases) expect_matches_reference(c);
    for (const TestPattern& head : cases) {
        for (const TestPattern& tail : cases) {
            TestPattern joined(head.name() + "+" + tail.name(),
                               cycles_of(head));
            joined.append(tail);
            expect_matches_reference(joined);
        }
    }
}

TEST(FeaturesTest, StatsSurvivePatternIoRoundTrip) {
    const TestPattern original = random_pattern(23, 800);
    std::stringstream buffer;
    save_pattern(buffer, original);
    const TestPattern loaded = load_pattern(buffer);
    ASSERT_EQ(loaded, original);
    EXPECT_EQ(feature_bits(loaded), feature_bits(original));
    expect_matches_reference(loaded);
}

TEST(FeaturesTest, StatsMatchReferenceForMarchCMinus) {
    expect_matches_reference(march_c_minus().expand());
    expect_matches_reference(march_c_minus().expand(0x5555));
}

// The pattern sink and the features-only sink share one cycle stream:
// expand_stats must equal the expanded pattern's stats counter for counter,
// and the stats overload of extract_features must equal the Test one.
TEST(FeaturesTest, StatsMatchReferenceForRandomRecipes) {
    const RandomTestGenerator gen;
    const ConditionBounds& bounds = gen.options().condition_bounds;
    util::Rng rng(2005);
    for (int i = 0; i < 1000; ++i) {
        const PatternRecipe recipe = gen.random_recipe(rng);
        const testgen::Test test =
            gen.make_test(recipe, gen.random_conditions(rng));
        expect_matches_reference(test.pattern);

        const PatternStats stats = gen.expand_stats(recipe);
        EXPECT_EQ(stats, test.pattern.stats()) << "recipe " << i;
        const FeatureVector from_stats =
            extract_features(stats, recipe.cycles, test.conditions, bounds);
        const FeatureVector from_test = extract_features(test, bounds);
        for (std::size_t f = 0; f < kFeatureCount; ++f) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(from_stats[f]),
                      std::bit_cast<std::uint64_t>(from_test[f]))
                << "recipe " << i << ' ' << FeatureVector::name(f);
        }
    }
}

// Feature bits of two fixed recipes, pinned from the batch extractor.
TEST(FeaturesTest, GoldenBitsForFixedRecipes) {
    PatternRecipe nominal;
    nominal.seed = 2005;
    PatternRecipe stress;
    stress.cycles = 1000;
    stress.write_fraction = 0.7;
    stress.nop_fraction = 0.2;
    stress.burst_length = 9.0;
    stress.row_locality = 0.3;
    stress.bank_conflict_bias = 0.6;
    stress.alternating_data_bias = 0.5;
    stress.solid_data_bias = 0.1;
    stress.toggle_bias = 0.4;
    stress.control_activity = 0.3;
    stress.seed = 7;

    const std::array<std::uint64_t, kPatternFeatureCount> nominal_bits = {
        0x3fe35cfef481913eULL, 0x3fcd0d5273f02854ULL, 0x3fc4cb125ce4feebULL,
        0x3fe85f0e0acd3b69ULL, 0x3fdd4fdf3b645a1dULL, 0x3fdf7ced916872b0ULL,
        0x3fdfdd6f41e3ea66ULL, 0x3fe2f1a9fbe76c8bULL, 0x3fd0a6810a6810a7ULL,
        0x3fd16872b020c49cULL};
    const std::array<std::uint64_t, kPatternFeatureCount> stress_bits = {
        0x3fe8601d92f2231eULL, 0x3fcd7b425ed097b4ULL, 0x3fd052bf5a814afdULL,
        0x3fe6fd6a052bf5a8ULL, 0x3fce76c8b4395810ULL, 0x3fe1c28f5c28f5c3ULL,
        0x3fdc0a57eb502960ULL, 0x3fe126e978d4fdf4ULL, 0x3fe98ad6f29f98adULL,
        0x3fd9db22d0e56042ULL};

    const RandomTestGenerator gen;
    EXPECT_EQ(feature_bits(gen.expand(nominal)), nominal_bits);
    EXPECT_EQ(feature_bits(gen.expand(stress)), stress_bits);
}

}  // namespace
}  // namespace cichar::testgen
