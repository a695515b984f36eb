#include "testgen/pattern.hpp"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "testgen/address_map.hpp"
#include "testgen/conditions.hpp"
#include "testgen/test.hpp"

namespace cichar::testgen {
namespace {

TEST(VectorCycleTest, Equality) {
    VectorCycle a{.address = 1, .data = 2, .op = BusOp::kWrite};
    VectorCycle b = a;
    EXPECT_EQ(a, b);
    b.data = 3;
    EXPECT_NE(a, b);
}

TEST(BitCountTest, MatchesStdPopcount) {
    static_assert(bit_count(0U) == 0 && bit_count(0xFFFFFFFFU) == 32);
    for (const std::uint32_t x :
         {0x1U, 0x80000000U, 0x55555555U, 0xAAAAAAAAU, 0xFFFFU, 0xFFFF0000U}) {
        EXPECT_EQ(bit_count(x), static_cast<std::uint32_t>(std::popcount(x)));
    }
    std::uint32_t x = 2005;
    for (int i = 0; i < 100000; ++i) {
        x = x * 1664525U + 1013904223U;  // LCG sweep over 32-bit words
        ASSERT_EQ(bit_count(x), static_cast<std::uint32_t>(std::popcount(x)))
            << x;
    }
}

TEST(BusOpTest, Names) {
    EXPECT_STREQ(to_string(BusOp::kNop), "NOP");
    EXPECT_STREQ(to_string(BusOp::kRead), "RD");
    EXPECT_STREQ(to_string(BusOp::kWrite), "WR");
}

TEST(TestPatternTest, BuildersSetFields) {
    TestPattern p("demo");
    p.write(5, 0xABCD);
    p.read(6);
    p.nop();
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0].op, BusOp::kWrite);
    EXPECT_EQ(p[0].address, 5u);
    EXPECT_EQ(p[0].data, 0xABCD);
    EXPECT_FALSE(p[0].output_enable);
    EXPECT_EQ(p[1].op, BusOp::kRead);
    EXPECT_TRUE(p[1].output_enable);
    EXPECT_EQ(p[2].op, BusOp::kNop);
    EXPECT_FALSE(p[2].chip_enable);
}

TEST(TestPatternTest, AppendConcatenates) {
    TestPattern a("a");
    a.write(1, 1);
    TestPattern b("b");
    b.read(2);
    b.read(3);
    a.append(b);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[1].address, 2u);
    EXPECT_EQ(a.name(), "a");
}

TEST(TestPatternTest, EqualityIncludesCycles) {
    TestPattern a("x");
    a.write(1, 2);
    TestPattern b("x");
    b.write(1, 2);
    EXPECT_EQ(a, b);
    b.read(0);
    EXPECT_NE(a, b);
}

TEST(TestPatternTest, BurstFlagPreserved) {
    TestPattern p("burst");
    p.read(0, /*burst=*/true);
    EXPECT_TRUE(p[0].burst);
}

TEST(AddressMapTest, RoundTrip) {
    for (std::uint32_t bank = 0; bank < AddressMap::kBanks; ++bank) {
        for (std::uint32_t row : {0u, 31u, AddressMap::kRows - 1}) {
            for (std::uint32_t col : {0u, AddressMap::kColumns - 1}) {
                const std::uint32_t a = AddressMap::compose(bank, row, col);
                EXPECT_EQ(AddressMap::bank_of(a), bank);
                EXPECT_EQ(AddressMap::row_of(a), row);
                EXPECT_EQ(AddressMap::column_of(a), col);
                EXPECT_LT(a, AddressMap::kWords);
            }
        }
    }
}

TEST(AddressMapTest, WrapStaysInRange) {
    EXPECT_EQ(AddressMap::wrap(AddressMap::kWords), 0u);
    EXPECT_EQ(AddressMap::wrap(AddressMap::kWords + 5), 5u);
}

TEST(AddressMapTest, SizesConsistent) {
    EXPECT_EQ(AddressMap::kWords,
              AddressMap::kBanks * AddressMap::kRows * AddressMap::kColumns);
}

TEST(MakeTestTest, NameFromPattern) {
    TestPattern p("named-pattern");
    p.write(0, 0);
    const testgen::Test t = make_test(std::move(p));
    EXPECT_EQ(t.name, "named-pattern");
    EXPECT_EQ(t.pattern.size(), 1u);
    EXPECT_DOUBLE_EQ(t.conditions.vdd_volts, 1.8);
}

TEST(ConditionBoundsTest, DecodeEncodesRoundTrip) {
    ConditionBounds bounds;
    const TestConditions c = bounds.decode(0.25, 0.5, 0.75, 1.0);
    double g0 = 0.0;
    double g1 = 0.0;
    double g2 = 0.0;
    double g3 = 0.0;
    bounds.encode(c, g0, g1, g2, g3);
    EXPECT_NEAR(g0, 0.25, 1e-12);
    EXPECT_NEAR(g1, 0.5, 1e-12);
    EXPECT_NEAR(g2, 0.75, 1e-12);
    EXPECT_NEAR(g3, 1.0, 1e-12);
}

TEST(ConditionBoundsTest, DecodeClampsGenes) {
    ConditionBounds bounds;
    const TestConditions lo = bounds.decode(-1.0, -1.0, -1.0, -1.0);
    EXPECT_DOUBLE_EQ(lo.vdd_volts, bounds.vdd_min);
    const TestConditions hi = bounds.decode(2.0, 2.0, 2.0, 2.0);
    EXPECT_DOUBLE_EQ(hi.vdd_volts, bounds.vdd_max);
}

TEST(ConditionBoundsTest, FixedNominalCollapses) {
    const ConditionBounds b = ConditionBounds::fixed_nominal();
    const TestConditions a = b.decode(0.0, 0.0, 0.0, 0.0);
    const TestConditions z = b.decode(1.0, 1.0, 1.0, 1.0);
    EXPECT_EQ(a, z);
    EXPECT_DOUBLE_EQ(a.vdd_volts, 1.8);
    EXPECT_DOUBLE_EQ(a.temperature_c, 25.0);
}

TEST(ConditionBoundsTest, EncodeDegenerateBoundIsZero) {
    const ConditionBounds b = ConditionBounds::fixed_nominal();
    double g0 = 9.0;
    double g1 = 9.0;
    double g2 = 9.0;
    double g3 = 9.0;
    b.encode(TestConditions{}, g0, g1, g2, g3);
    EXPECT_EQ(g0, 0.0);  // collapsed range: defined as 0
}

}  // namespace
}  // namespace cichar::testgen
