#include "util/cli_args.hpp"

#include <gtest/gtest.h>

namespace cichar::util {
namespace {

TEST(CliArgsTest, KeyValuePairs) {
    const CliArgs args({"--seed", "42", "--db", "out.txt"});
    EXPECT_TRUE(args.ok());
    EXPECT_EQ(args.size(), 2u);
    EXPECT_TRUE(args.has("seed"));
    EXPECT_EQ(args.get("db"), "out.txt");
    EXPECT_EQ(args.get_u64("seed", 0), 42u);
}

TEST(CliArgsTest, BareFlagStoresEmpty) {
    const CliArgs args({"--verbose", "--seed", "7"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.get("verbose"), "");
    EXPECT_EQ(args.get_u64("seed", 0), 7u);
}

TEST(CliArgsTest, MissingKeysUseFallbacks) {
    const CliArgs args({"--a", "1"});
    EXPECT_FALSE(args.has("b"));
    EXPECT_EQ(args.get("b", "dflt"), "dflt");
    EXPECT_EQ(args.get_u64("b", 99), 99u);
    EXPECT_DOUBLE_EQ(args.get_double("b", 1.5), 1.5);
}

TEST(CliArgsTest, BareFlagNumericFallsBack) {
    const CliArgs args({"--limit"});
    EXPECT_DOUBLE_EQ(args.get_double("limit", 20.0), 20.0);
}

TEST(CliArgsTest, DoubleValues) {
    const CliArgs args({"--limit", "20.5"});
    EXPECT_DOUBLE_EQ(args.get_double("limit", 0.0), 20.5);
}

TEST(CliArgsTest, PositionalMarksNotOk) {
    const CliArgs args({"stray", "--a", "1"});
    EXPECT_FALSE(args.ok());
    EXPECT_EQ(args.get("a"), "1");  // parsing continues past the stray
}

TEST(CliArgsTest, LastOccurrenceWins) {
    const CliArgs args({"--seed", "1", "--seed", "2"});
    EXPECT_EQ(args.get_u64("seed", 0), 2u);
}

TEST(CliArgsTest, ArgcArgvConstructor) {
    const char* argv[] = {"prog", "hunt", "--seed", "5"};
    const CliArgs args(4, argv, 2);
    EXPECT_TRUE(args.ok());
    EXPECT_EQ(args.get_u64("seed", 0), 5u);
}

TEST(CliArgsTest, NegativeNumbersNotMistakenForFlags) {
    // "-3" does not start with "--", so it is consumed as a value.
    const CliArgs args({"--offset", "-3"});
    EXPECT_EQ(args.get("offset"), "-3");
    EXPECT_DOUBLE_EQ(args.get_double("offset", 0.0), -3.0);
}

TEST(CliArgsTest, JunkNumberThrows) {
    const CliArgs args({"--seed", "banana"});
    EXPECT_THROW((void)args.get_u64("seed", 0), std::invalid_argument);
}

TEST(CliArgsTest, EmptyArgsOk) {
    const CliArgs args(std::vector<std::string>{});
    EXPECT_TRUE(args.ok());
    EXPECT_EQ(args.size(), 0u);
}

TEST(CliArgsTest, PositionalsRejectedByDefault) {
    const CliArgs args({"shard0.ckpt", "--out", "merged.ckpt"});
    EXPECT_FALSE(args.ok());
    EXPECT_TRUE(args.positionals().empty());
}

TEST(CliArgsTest, PositionalsCollectedWhenOptedIn) {
    const CliArgs args({"a.ckpt", "b.ckpt", "--out", "m.ckpt", "c.ckpt"},
                       CliArgs::Positionals::kCollect);
    EXPECT_TRUE(args.ok());
    EXPECT_EQ(args.get("out"), "m.ckpt");
    // Order is preserved; a flag still consumes exactly one value, so
    // the token after "m.ckpt" is positional again.
    ASSERT_EQ(args.positionals().size(), 3u);
    EXPECT_EQ(args.positionals()[0], "a.ckpt");
    EXPECT_EQ(args.positionals()[1], "b.ckpt");
    EXPECT_EQ(args.positionals()[2], "c.ckpt");
}

TEST(CliArgsTest, FirstUnknownNamesTheStrayFlag) {
    const CliArgs args({"--seed", "7", "--inflght", "16", "--jobs", "4"});
    constexpr std::string_view kKnown[] = {"seed", "jobs", "inflight"};
    EXPECT_EQ(args.first_unknown(kKnown), "inflght");
    constexpr std::string_view kAll[] = {"seed", "jobs", "inflght"};
    EXPECT_EQ(args.first_unknown(kAll), std::nullopt);
    EXPECT_EQ(CliArgs(std::vector<std::string>{}).first_unknown({}),
              std::nullopt);
}

}  // namespace
}  // namespace cichar::util
