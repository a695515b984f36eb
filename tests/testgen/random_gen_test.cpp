#include "testgen/random_gen.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "testgen/features.hpp"
#include "util/binio.hpp"

namespace cichar::testgen {
namespace {

TEST(RecipeTest, DecodeClampsAndRanges) {
    std::array<double, kSequenceGeneCount> genes{};
    genes.fill(0.0);
    const PatternRecipe lo = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(lo.cycles, 100u);
    EXPECT_DOUBLE_EQ(lo.write_fraction, 0.0);
    EXPECT_DOUBLE_EQ(lo.burst_length, 1.0);

    genes.fill(1.0);
    const PatternRecipe hi = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(hi.cycles, 1000u);
    EXPECT_DOUBLE_EQ(hi.burst_length, 16.0);
    // Data-mode shares renormalized to sum <= 1.
    EXPECT_LE(hi.alternating_data_bias + hi.solid_data_bias + hi.toggle_bias,
              1.0 + 1e-12);
}

TEST(RecipeTest, DecodeOutOfRangeGenesClamped) {
    std::array<double, kSequenceGeneCount> genes{};
    genes.fill(5.0);
    const PatternRecipe r = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(r.cycles, 1000u);
    genes.fill(-5.0);
    const PatternRecipe r2 = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(r2.cycles, 100u);
}

TEST(RecipeTest, EncodeDecodeRoundTrip) {
    PatternRecipe r;
    r.cycles = 500;
    r.write_fraction = 0.4;
    r.nop_fraction = 0.12;
    r.burst_length = 7.0;
    r.row_locality = 0.3;
    r.bank_conflict_bias = 0.25;
    r.alternating_data_bias = 0.2;
    r.solid_data_bias = 0.1;
    r.toggle_bias = 0.3;
    r.control_activity = 0.05;
    const auto genes = r.encode(100, 1000);
    const PatternRecipe back = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_NEAR(back.write_fraction, r.write_fraction, 1e-9);
    EXPECT_NEAR(back.nop_fraction, r.nop_fraction, 1e-9);
    EXPECT_NEAR(back.burst_length, r.burst_length, 1e-9);
    EXPECT_NEAR(back.toggle_bias, r.toggle_bias, 1e-9);
}

TEST(RecipeTest, DescribeMentionsFields) {
    PatternRecipe r;
    r.cycles = 321;
    const std::string d = r.describe();
    EXPECT_NE(d.find("cycles=321"), std::string::npos);
    EXPECT_NE(d.find("seed="), std::string::npos);
}

TEST(RandomGenTest, CycleCountWithinPaperBounds) {
    RandomTestGenerator gen;
    util::Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        const testgen::Test t = gen.random_test(rng);
        EXPECT_GE(t.pattern.size(), 100u);
        EXPECT_LE(t.pattern.size(), 1000u);
    }
}

TEST(RandomGenTest, ExpansionDeterministicForRecipe) {
    RandomTestGenerator gen;
    util::Rng rng(2);
    const PatternRecipe recipe = gen.random_recipe(rng);
    const TestPattern a = gen.expand(recipe);
    const TestPattern b = gen.expand(recipe);
    EXPECT_EQ(a, b);
}

TEST(RandomGenTest, DifferentSeedsDifferentPatterns) {
    RandomTestGenerator gen;
    util::Rng rng(3);
    PatternRecipe recipe = gen.random_recipe(rng);
    const TestPattern a = gen.expand(recipe);
    recipe.seed ^= 0xDEADBEEF;
    const TestPattern b = gen.expand(recipe);
    EXPECT_NE(a, b);
}

TEST(RandomGenTest, ConditionsWithinBounds) {
    RandomTestGenerator gen;
    util::Rng rng(4);
    const ConditionBounds& b = gen.options().condition_bounds;
    for (int i = 0; i < 100; ++i) {
        const TestConditions c = gen.random_conditions(rng);
        EXPECT_GE(c.vdd_volts, b.vdd_min);
        EXPECT_LE(c.vdd_volts, b.vdd_max);
        EXPECT_GE(c.temperature_c, b.temperature_min);
        EXPECT_LE(c.temperature_c, b.temperature_max);
    }
}

TEST(RandomGenTest, WriteFractionControlsWrites) {
    RandomGeneratorOptions opts;
    RandomTestGenerator gen(opts);
    PatternRecipe r;
    r.cycles = 1000;
    r.nop_fraction = 0.0;
    r.write_fraction = 1.0;
    r.seed = 5;
    const FeatureVector all_writes =
        extract_pattern_features(gen.expand(r));
    EXPECT_GT(all_writes[kWriteFraction], 0.99);

    r.write_fraction = 0.0;
    const FeatureVector all_reads = extract_pattern_features(gen.expand(r));
    EXPECT_GT(all_reads[kReadFraction], 0.99);
}

TEST(RandomGenTest, NopFractionRespected) {
    RandomTestGenerator gen;
    PatternRecipe r;
    r.cycles = 1000;
    r.nop_fraction = 0.3;
    r.seed = 6;
    const TestPattern p = gen.expand(r);
    std::size_t nops = 0;
    for (const VectorCycle& vc : p.cycles()) {
        if (vc.op == BusOp::kNop) ++nops;
    }
    EXPECT_NEAR(static_cast<double>(nops) / 1000.0, 0.3, 0.06);
}

TEST(RandomGenTest, BankConflictBiasRaisesConflicts) {
    RandomTestGenerator gen;
    PatternRecipe calm;
    calm.cycles = 1000;
    calm.bank_conflict_bias = 0.0;
    calm.row_locality = 0.0;
    calm.burst_length = 1.0;
    calm.seed = 7;
    PatternRecipe hot = calm;
    hot.bank_conflict_bias = 0.95;
    const double calm_rate =
        extract_pattern_features(gen.expand(calm))[kBankConflictRate];
    const double hot_rate =
        extract_pattern_features(gen.expand(hot))[kBankConflictRate];
    EXPECT_GT(hot_rate, calm_rate + 0.3);
}

TEST(RandomGenTest, RowLocalityRaisesLocality) {
    RandomTestGenerator gen;
    PatternRecipe base;
    base.cycles = 1000;
    base.row_locality = 0.0;
    base.burst_length = 1.0;
    base.seed = 8;
    PatternRecipe local = base;
    local.row_locality = 0.95;
    const double lo = extract_pattern_features(gen.expand(base))[kRowLocality];
    const double hi = extract_pattern_features(gen.expand(local))[kRowLocality];
    EXPECT_GT(hi, lo + 0.3);
}

TEST(RandomGenTest, BurstLengthRaisesBurstiness) {
    RandomTestGenerator gen;
    PatternRecipe base;
    base.cycles = 1000;
    base.burst_length = 1.0;
    base.seed = 9;
    PatternRecipe bursty = base;
    bursty.burst_length = 12.0;
    const double lo = extract_pattern_features(gen.expand(base))[kBurstiness];
    const double hi = extract_pattern_features(gen.expand(bursty))[kBurstiness];
    EXPECT_GT(hi, lo + 0.4);
}

TEST(RandomGenTest, ToggleChainLocksIntoAlternating) {
    // toggle_bias with occasional alternating writes locks the data chain
    // into {0x5555, 0xAAAA}: both toggle density and the alternating
    // fraction end up high (the worst-case pocket entrance).
    RandomTestGenerator gen;
    PatternRecipe r;
    r.cycles = 1000;
    r.write_fraction = 0.7;
    r.nop_fraction = 0.0;
    r.toggle_bias = 0.65;
    r.alternating_data_bias = 0.3;
    r.solid_data_bias = 0.0;
    r.seed = 10;
    const FeatureVector fv = extract_pattern_features(gen.expand(r));
    EXPECT_GT(fv[kToggleDensity], 0.7);
    EXPECT_GT(fv[kAlternatingData], 0.7);
}

TEST(RandomGenTest, MakeTestCarriesNameAndConditions) {
    RandomTestGenerator gen;
    PatternRecipe r;
    r.cycles = 200;
    r.seed = 11;
    TestConditions c;
    c.vdd_volts = 2.0;
    const testgen::Test t = gen.make_test(r, c, "my-test");
    EXPECT_EQ(t.name, "my-test");
    EXPECT_EQ(t.pattern.name(), "my-test");
    EXPECT_DOUBLE_EQ(t.conditions.vdd_volts, 2.0);
    EXPECT_EQ(t.pattern.size(), 200u);
}

TEST(RandomGenTest, CustomCycleBounds) {
    RandomGeneratorOptions opts;
    opts.min_cycles = 50;
    opts.max_cycles = 60;
    RandomTestGenerator gen(opts);
    util::Rng rng(12);
    for (int i = 0; i < 20; ++i) {
        const testgen::Test t = gen.random_test(rng);
        EXPECT_GE(t.pattern.size(), 50u);
        EXPECT_LE(t.pattern.size(), 60u);
    }
}

// Appends every field of every cycle, in order.
void put_cycles(std::string& bytes, const TestPattern& pattern) {
    for (const VectorCycle& vc : pattern.cycles()) {
        util::put_u32(bytes, vc.address);
        util::put_u32(bytes, vc.data);
        bytes.push_back(static_cast<char>(vc.op));
        util::put_bool(bytes, vc.chip_enable);
        util::put_bool(bytes, vc.output_enable);
        util::put_bool(bytes, vc.burst);
    }
}

// Appends every counter and every previous-cycle field of `stats`.
void put_stats(std::string& bytes, const PatternStats& stats) {
    for (const std::uint64_t counter :
         {stats.toggle_bits, stats.write_pairs, stats.addr_bits, stats.op_pairs,
          stats.bank_conflicts, stats.same_row, stats.reads, stats.writes,
          stats.rw_switches, stats.bursts, stats.alternating_writes,
          stats.control_changes}) {
        util::put_u64(bytes, counter);
    }
    util::put_bool(bytes, stats.have_prev_cycle);
    util::put_bool(bytes, stats.prev_ce);
    util::put_bool(bytes, stats.prev_oe);
    util::put_bool(bytes, stats.have_prev_write);
    util::put_u32(bytes, stats.prev_write_data);
    util::put_bool(bytes, stats.have_prev_op);
    bytes.push_back(static_cast<char>(stats.prev_op));
    util::put_u32(bytes, stats.prev_addr);
}

// checksum64 over every field of every cycle, in order.
std::uint64_t cycle_digest(const TestPattern& pattern) {
    std::string bytes;
    put_cycles(bytes, pattern);
    return util::checksum64(bytes);
}

PatternRecipe uniform_recipe(double p, std::uint64_t seed) {
    PatternRecipe r;
    r.cycles = 400;
    r.write_fraction = p;
    r.nop_fraction = p;
    r.burst_length = 1.0;
    r.row_locality = p;
    r.bank_conflict_bias = p;
    r.alternating_data_bias = p;
    r.solid_data_bias = p;
    r.toggle_bias = p;
    r.control_activity = p;
    r.seed = seed;
    return r;
}

// Pins the whole expansion stream of edge recipes, where a draw compared
// against a probability of exactly 0 or 1, or against a cumulative sum
// that lands on 1, decides the branch taken.
TEST(RandomGenTest, ExpansionStreamGoldenDigests) {
    struct Case {
        const char* label;
        PatternRecipe recipe;
        std::uint64_t digest;
    };
    std::vector<Case> cases;

    cases.push_back({"all zero", uniform_recipe(0.0, 31), 0x1fb11804e5a0eadbULL});
    cases.push_back({"all one", uniform_recipe(1.0, 32), 0xc170f24c074ff3f3ULL});
    PatternRecipe ones_but_nop = uniform_recipe(1.0, 33);
    ones_but_nop.nop_fraction = 0.0;
    ones_but_nop.burst_length = 16.0;
    cases.push_back({"all one but nop, burst 16", ones_but_nop, 0x977e12b2bf933421ULL});

    PatternRecipe burst1;
    burst1.burst_length = 1.0;
    burst1.seed = 34;
    cases.push_back({"burst 1", burst1, 0x720a174c58a075d7ULL});
    PatternRecipe burst16;
    burst16.burst_length = 16.0;
    burst16.seed = 35;
    cases.push_back({"burst 16", burst16, 0xdbdfd6c25bede295ULL});

    PatternRecipe exact_sum;
    exact_sum.write_fraction = 1.0;
    exact_sum.toggle_bias = 0.25;
    exact_sum.alternating_data_bias = 0.25;
    exact_sum.solid_data_bias = 0.5;
    exact_sum.row_locality = 0.75;
    exact_sum.bank_conflict_bias = 0.25;
    exact_sum.seed = 36;
    cases.push_back({"data modes sum to 1", exact_sum, 0x7a5dc1111e617bf9ULL});
    PatternRecipe inexact_sum = exact_sum;
    inexact_sum.toggle_bias = 0.1;
    inexact_sum.alternating_data_bias = 0.2;
    inexact_sum.solid_data_bias = 0.7;
    inexact_sum.row_locality = 0.3;
    inexact_sum.bank_conflict_bias = 0.7;
    inexact_sum.seed = 37;
    cases.push_back({"data modes 0.1 + 0.2 + 0.7", inexact_sum, 0xd0c7b82e987d2e1dULL});

    PatternRecipe one_cycle;
    one_cycle.cycles = 1;
    one_cycle.write_fraction = 1.0;
    one_cycle.seed = 38;
    cases.push_back({"one cycle", one_cycle, 0x2e16a188dd62f7daULL});

    const RandomTestGenerator gen;
    for (const Case& c : cases) {
        const TestPattern pattern = gen.expand(c.recipe);
        ASSERT_EQ(pattern.size(), c.recipe.cycles) << c.label;
        EXPECT_EQ(cycle_digest(pattern), c.digest)
            << c.label << ": 0x" << std::hex << cycle_digest(pattern);
    }
}

// Pins the expansion stream of the recipes a hunt draws, not only the
// hand-picked edges above: 512 random_recipe draws, then 512 recipes whose
// eight probabilities are each independently 0, 1 or as drawn, whose burst
// length is 1, 16 or as drawn, and of which every fifth has 1-3 cycles.
// One chained checksum64 covers every cycle of expand() and every field
// of expand_stats(). The value was taken from the generator before its
// cycle loop traded branches for selects.
TEST(RandomGenTest, RecipeMixStreamDigest) {
    const RandomTestGenerator gen;
    util::Rng rng(2005);
    std::vector<PatternRecipe> recipes;
    for (int i = 0; i < 512; ++i) recipes.push_back(gen.random_recipe(rng));
    for (int i = 0; i < 512; ++i) {
        PatternRecipe r = gen.random_recipe(rng);
        for (double* p : {&r.write_fraction, &r.nop_fraction, &r.row_locality,
                          &r.bank_conflict_bias, &r.alternating_data_bias,
                          &r.solid_data_bias, &r.toggle_bias,
                          &r.control_activity}) {
            const std::size_t pick = rng.index(3);
            if (pick < 2) *p = static_cast<double>(pick);
        }
        const std::size_t burst = rng.index(3);
        if (burst == 0) r.burst_length = 1.0;
        if (burst == 1) r.burst_length = 16.0;
        if (i % 5 == 0) r.cycles = static_cast<std::uint32_t>(1 + rng.index(3));
        recipes.push_back(r);
    }

    std::uint64_t digest = 0;
    for (const PatternRecipe& r : recipes) {
        std::string bytes;
        util::put_u64(bytes, digest);
        const TestPattern pattern = gen.expand(r);
        ASSERT_EQ(pattern.size(), r.cycles);
        put_cycles(bytes, pattern);
        put_stats(bytes, gen.expand_stats(r));
        digest = util::checksum64(bytes);
    }
    EXPECT_EQ(digest, 0xff9f290684db2426ULL) << "0x" << std::hex << digest;
}

}  // namespace
}  // namespace cichar::testgen
