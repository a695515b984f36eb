#include "core/database.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "testgen/random_gen.hpp"

namespace cichar::core {
namespace {

WorstCaseEntry entry(const std::string& name, double wcr) {
    WorstCaseEntry e;
    e.name = name;
    e.wcr = wcr;
    e.trip_point = 20.0 / wcr;
    e.wcr_class = ga::classify(wcr);
    return e;
}

TEST(DatabaseTest, EmptyState) {
    WorstCaseDatabase db;
    EXPECT_TRUE(db.empty());
    EXPECT_EQ(db.size(), 0u);
    EXPECT_THROW((void)db.worst(), std::logic_error);
}

TEST(DatabaseTest, SortedWorstFirst) {
    WorstCaseDatabase db;
    db.add(entry("a", 0.6));
    db.add(entry("b", 0.9));
    db.add(entry("c", 0.7));
    EXPECT_EQ(db.worst().name, "b");
    EXPECT_EQ(db.entries()[0].name, "b");
    EXPECT_EQ(db.entries()[1].name, "c");
    EXPECT_EQ(db.entries()[2].name, "a");
}

TEST(DatabaseTest, CapacityKeepsTop) {
    WorstCaseDatabase db(3);
    for (int i = 0; i < 10; ++i) {
        db.add(entry("e" + std::to_string(i), 0.5 + 0.01 * i));
    }
    EXPECT_EQ(db.size(), 3u);
    EXPECT_NEAR(db.worst().wcr, 0.59, 1e-12);
    EXPECT_NEAR(db.entries().back().wcr, 0.57, 1e-12);
}

TEST(DatabaseTest, FunctionalFailuresSeparate) {
    WorstCaseDatabase db(2);
    db.add(entry("a", 0.6));
    FunctionalFailureRecord failure;
    failure.name = "boom";
    failure.miscompares = 17;
    db.add_functional_failure(failure);
    EXPECT_EQ(db.size(), 1u);
    ASSERT_EQ(db.functional_failures().size(), 1u);
    EXPECT_EQ(db.functional_failures()[0].name, "boom");
    // Capacity does not trim functional failures.
    for (int i = 0; i < 5; ++i) db.add_functional_failure(failure);
    EXPECT_EQ(db.functional_failures().size(), 6u);
}

TEST(DatabaseTest, CsvExportShape) {
    WorstCaseDatabase db;
    db.add(entry("worst-1", 0.92));
    db.add(entry("also, tricky", 0.85));  // comma in the name: quoted
    std::ostringstream out;
    db.save_csv(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("name,wcr,class"), std::string::npos);
    EXPECT_NE(text.find("worst-1"), std::string::npos);
    EXPECT_NE(text.find("\"also, tricky\""), std::string::npos);
    EXPECT_NE(text.find("weakness"), std::string::npos);
    std::istringstream in(text);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) ++lines;
    EXPECT_EQ(lines, 3u);  // header + 2 entries
}

TEST(DatabaseTest, FunctionalCsvExport) {
    WorstCaseDatabase db;
    FunctionalFailureRecord failure;
    failure.name = "fail-A";
    failure.miscompares = 3;
    failure.first_fail_cycle = 42;
    db.add_functional_failure(failure);
    std::ostringstream out;
    db.save_functional_csv(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("fail-A"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(DatabaseTest, EqualWcrStableBehavior) {
    WorstCaseDatabase db;
    db.add(entry("first", 0.8));
    db.add(entry("second", 0.8));
    EXPECT_EQ(db.size(), 2u);
    EXPECT_DOUBLE_EQ(db.worst().wcr, 0.8);
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
    WorstCaseDatabase db(16);
    WorstCaseEntry a = entry("worst one", 0.91);  // space: name escaping
    a.recipe.cycles = 321;
    a.recipe.toggle_bias = 0.625;
    a.recipe.seed = 0xDEADBEEF;
    a.conditions.vdd_volts = 1.65;
    db.add(a);
    db.add(entry("second", 0.72));
    FunctionalFailureRecord failure;
    failure.name = "boom case";
    failure.miscompares = 9;
    failure.first_fail_cycle = 1234;
    failure.recipe.seed = 42;
    db.add_functional_failure(failure);

    std::stringstream stream;
    db.save(stream);
    const WorstCaseDatabase loaded = WorstCaseDatabase::load(stream);

    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.worst().name, "worst one");
    EXPECT_DOUBLE_EQ(loaded.worst().wcr, 0.91);
    EXPECT_EQ(loaded.worst().recipe, a.recipe);
    EXPECT_EQ(loaded.worst().conditions, a.conditions);
    ASSERT_EQ(loaded.functional_failures().size(), 1u);
    EXPECT_EQ(loaded.functional_failures()[0].name, "boom case");
    EXPECT_EQ(loaded.functional_failures()[0].miscompares, 9u);
    EXPECT_EQ(loaded.functional_failures()[0].recipe.seed, 42u);
}

TEST(DatabaseTest, LoadedCapacityStillEnforced) {
    WorstCaseDatabase db(2);
    db.add(entry("a", 0.9));
    db.add(entry("b", 0.8));
    std::stringstream stream;
    db.save(stream);
    WorstCaseDatabase loaded = WorstCaseDatabase::load(stream);
    loaded.add(entry("c", 0.95));
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.worst().name, "c");
}

TEST(DatabaseTest, LoadRejectsGarbage) {
    std::stringstream bad("garbage stream");
    EXPECT_THROW((void)WorstCaseDatabase::load(bad), std::runtime_error);
    std::stringstream truncated("cichar-worstcase-db 1\ncapacity 4\nentries 2\n");
    EXPECT_THROW((void)WorstCaseDatabase::load(truncated), std::runtime_error);
}

// A recipe outside the ranges PatternRecipe::decode produces must not
// load: expanding a burst_length of 1e19 is undefined behaviour.
TEST(DatabaseTest, LoadRejectsOutOfRangeRecipe) {
    const auto load_with = [](auto&& edit) {
        WorstCaseDatabase db;
        WorstCaseEntry e = entry("edited", 0.9);
        edit(e.recipe);
        db.add(e);
        std::stringstream stream;
        db.save(stream);
        return WorstCaseDatabase::load(stream);
    };
    EXPECT_NO_THROW((void)load_with([](testgen::PatternRecipe&) {}));
    EXPECT_THROW((void)load_with([](testgen::PatternRecipe& r) {
                     r.burst_length = 1e19;
                 }),
                 std::runtime_error);
    EXPECT_THROW((void)load_with([](testgen::PatternRecipe& r) {
                     r.write_fraction = 1.5;
                 }),
                 std::runtime_error);
    EXPECT_THROW((void)load_with([](testgen::PatternRecipe& r) {
                     r.nop_fraction = -0.1;
                 }),
                 std::runtime_error);
}

// `cycles` is unsigned, so a stored "-1" parses as 4294967295: without the
// range check `cichar screen --db` would expand a 4G-cycle pattern.
TEST(DatabaseTest, LoadRejectsOutOfRangeCycles) {
    const auto load_with_cycles = [](const std::string& cycles) {
        WorstCaseDatabase db;
        db.add(entry("edited", 0.9));
        std::stringstream saved;
        db.save(saved);
        std::string text = saved.str();
        std::string field = "recipe ";
        field += std::to_string(testgen::PatternRecipe{}.cycles);
        const std::size_t at = text.find(field);
        EXPECT_NE(at, std::string::npos);
        text.replace(at + 7, field.size() - 7, cycles);
        std::stringstream stream(text);
        return WorstCaseDatabase::load(stream);
    };
    EXPECT_NO_THROW((void)load_with_cycles("1"));
    EXPECT_NO_THROW((void)load_with_cycles(
        std::to_string(testgen::kMaxPatternCycles)));
    EXPECT_THROW((void)load_with_cycles("0"), std::runtime_error);
    EXPECT_THROW((void)load_with_cycles("-1"), std::runtime_error);
    EXPECT_THROW((void)load_with_cycles("1001"), std::runtime_error);
}

}  // namespace
}  // namespace cichar::core
