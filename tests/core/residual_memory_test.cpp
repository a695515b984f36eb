// The hunt's residual memory (core::ResidualMemory): which remembered
// residual corrects a prediction, what is remembered, and the bytes the
// hunt checkpoint carries.
#include "core/learner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <type_traits>

#include "util/binio.hpp"

namespace cichar::core {
namespace {

using Row = std::array<double, ResidualMemory::kWidth>;

/// A feature row with every value `v`.
Row row(double v) {
    Row r;
    r.fill(v);
    return r;
}

Evaluation measured(double trip, bool found = true) {
    Evaluation slot;
    slot.record.trip_point = trip;
    slot.record.found = found;
    return slot;
}

TEST(ResidualMemoryTest, EmptyMemoryReturnsThePrediction) {
    const ResidualMemory memory;
    const ate::Parameter param = ate::Parameter::data_valid_time();
    EXPECT_EQ(memory.size(), 0u);
    EXPECT_FALSE(memory.nearest_residual(row(0.5)).has_value());
    EXPECT_EQ(memory.anchor(row(0.5), 21.25, param), 21.25);
    EXPECT_FALSE(memory.anchor(row(0.5), std::nullopt, param).has_value());
}

TEST(ResidualMemoryTest, NearestEntryWins) {
    ResidualMemory memory;
    memory.remember(row(0.1), -1.0);
    memory.remember(row(0.9), 2.0);
    Row mixed = row(0.5);
    mixed[3] = 0.45;  // a hair nearer 0.1 than 0.9
    EXPECT_EQ(memory.nearest_residual(mixed), -1.0);
    EXPECT_EQ(memory.nearest_residual(row(0.8)), 2.0);
    EXPECT_EQ(memory.nearest_residual(row(0.0)), -1.0);
    // A nullopt prediction stays unanchored whatever is remembered.
    EXPECT_FALSE(memory
                     .anchor(row(0.1), std::nullopt,
                             ate::Parameter::data_valid_time())
                     .has_value());
    EXPECT_EQ(memory.anchor(row(0.1), 21.0, ate::Parameter::data_valid_time()),
              20.0);
}

TEST(ResidualMemoryTest, EqualDistancesGoToTheMostRecentEntry) {
    ResidualMemory memory;
    memory.remember(row(0.25), 1.0);
    memory.remember(row(0.75), 2.0);
    memory.remember(row(0.25), 3.0);  // same features as the first
    EXPECT_EQ(memory.nearest_residual(row(0.25)), 3.0);
    // 0.5 is equally far from both feature rows: the newest entry wins.
    EXPECT_EQ(memory.nearest_residual(row(0.5)), 3.0);
    memory.remember(row(0.75), 4.0);
    EXPECT_EQ(memory.nearest_residual(row(0.5)), 4.0);
}

TEST(ResidualMemoryTest, TiesFollowAgeAcrossTheRingWrap) {
    ResidualMemory memory;
    for (std::size_t i = 0; i < ResidualMemory::kCapacity + 10; ++i) {
        memory.remember(row(0.5), static_cast<double>(i));
    }
    // Every entry is equally near: the most recent, in slot 9, wins over
    // the higher slots that hold older entries.
    EXPECT_EQ(memory.nearest_residual(row(0.5)),
              static_cast<double>(ResidualMemory::kCapacity + 9));
}

TEST(ResidualMemoryTest, OverwritesTheOldestEntryWhenFull) {
    ResidualMemory memory;
    memory.remember(row(0.0), -5.0);  // the oldest, alone at 0.0
    for (std::size_t i = 1; i < ResidualMemory::kCapacity; ++i) {
        memory.remember(row(1.0), static_cast<double>(i));
    }
    EXPECT_EQ(memory.size(), ResidualMemory::kCapacity);
    EXPECT_EQ(memory.nearest_residual(row(0.0)), -5.0);

    memory.remember(row(0.9), 7.0);  // overwrites the 0.0 entry
    EXPECT_EQ(memory.size(), ResidualMemory::kCapacity);
    EXPECT_EQ(memory.nearest_residual(row(0.0)), 7.0);
    // The second-oldest goes next.
    memory.remember(row(0.9), 8.0);
    EXPECT_EQ(memory.nearest_residual(row(0.0)), 8.0);
    EXPECT_EQ(memory.nearest_residual(row(1.0)),
              static_cast<double>(ResidualMemory::kCapacity - 1));
}

TEST(ResidualMemoryTest, CorrectedAnchorClampsToTheCharacterizationRange) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const double lo = std::min(param.search_start, param.search_end);
    const double hi = std::max(param.search_start, param.search_end);
    ResidualMemory memory;
    memory.remember(row(0.2), -1000.0);
    memory.remember(row(0.8), 1000.0);
    EXPECT_EQ(memory.anchor(row(0.2), lo + 1.0, param), lo);
    EXPECT_EQ(memory.anchor(row(0.8), hi - 1.0, param), hi);
    memory.remember(row(0.5), 0.5);
    EXPECT_EQ(memory.anchor(row(0.5), 21.0, param), 21.5);
}

TEST(ResidualMemoryTest, StoresOnlyMeasuredFoundPredictedRecords) {
    ResidualMemory memory;
    Evaluation hit = measured(25.0);
    hit.cached = true;
    memory.observe(hit, 20.0, row(0.5));
    memory.observe(measured(25.0, /*found=*/false), 20.0, row(0.5));
    memory.observe(measured(25.0), std::nullopt, row(0.5));
    EXPECT_EQ(memory.size(), 0u);

    memory.observe(measured(25.0), 20.0, row(0.5));
    EXPECT_EQ(memory.size(), 1u);
    EXPECT_EQ(memory.nearest_residual(row(0.5)), 5.0);
}

// The memory owns no heap storage: remembering, querying and loading
// never allocate.
static_assert(std::is_trivially_copyable_v<ResidualMemory>);

/// A memory that has wrapped, with distinct float features per entry.
ResidualMemory wrapped_memory() {
    ResidualMemory memory;
    for (std::size_t i = 0; i < ResidualMemory::kCapacity + 37; ++i) {
        Row r;
        for (std::size_t f = 0; f < r.size(); ++f) {
            r[f] = 1.0 / static_cast<double>(i + f + 3);
        }
        memory.remember(r, 0.1 * static_cast<double>(i) - 7.0);
    }
    return memory;
}

TEST(ResidualMemoryTest, SaveLoadRoundTripIsBitExact) {
    const ResidualMemory memory = wrapped_memory();
    std::string bytes;
    memory.save(bytes);
    EXPECT_EQ(bytes.size(),
              8 + ResidualMemory::kCapacity * ResidualMemory::kEntryBytes);

    ResidualMemory loaded;
    util::ByteReader in(bytes);
    ASSERT_TRUE(loaded.load(in));
    EXPECT_TRUE(in.at_end());
    EXPECT_EQ(loaded.size(), memory.size());
    // Same bytes out, oldest first, though the ring now starts at slot 0.
    std::string again;
    loaded.save(again);
    EXPECT_EQ(again, bytes);
    for (const double v : {0.0, 0.01, 0.1, 0.3, 1.0}) {
        EXPECT_EQ(loaded.nearest_residual(row(v)),
                  memory.nearest_residual(row(v)));
    }
    // The next entry overwrites the same (oldest) entry in both.
    ResidualMemory a = memory;
    a.remember(row(2.0), 99.0);
    loaded.remember(row(2.0), 99.0);
    std::string a_bytes;
    std::string loaded_bytes;
    a.save(a_bytes);
    loaded.save(loaded_bytes);
    EXPECT_EQ(a_bytes, loaded_bytes);

    ResidualMemory empty;
    std::string empty_bytes;
    ResidualMemory().save(empty_bytes);
    util::ByteReader empty_in(empty_bytes);
    ASSERT_TRUE(empty.load(empty_in));
    EXPECT_EQ(empty.size(), 0u);
}

TEST(ResidualMemoryTest, LoadRefusesEveryTruncation) {
    ResidualMemory memory;
    for (std::size_t i = 0; i < 3; ++i) {
        const double v = static_cast<double>(i);
        memory.remember(row(0.1 * v), 1.0 + 0.5 * v);
    }
    std::string bytes;
    memory.save(bytes);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        ResidualMemory target;
        target.remember(row(0.5), 42.0);
        util::ByteReader in(std::string_view(bytes).substr(0, len));
        EXPECT_FALSE(target.load(in)) << "prefix of length " << len;
        EXPECT_EQ(target.size(), 1u);
        EXPECT_EQ(target.nearest_residual(row(0.0)), 42.0);
    }
}

TEST(ResidualMemoryTest, LoadRefusesACountAboveCapacity) {
    const std::size_t count = ResidualMemory::kCapacity + 1;
    std::string bytes;
    util::put_u64(bytes, count);
    bytes.append(count * ResidualMemory::kEntryBytes, '\0');
    ResidualMemory target;
    target.remember(row(0.5), 42.0);
    util::ByteReader in(bytes);
    EXPECT_FALSE(target.load(in));
    EXPECT_EQ(target.size(), 1u);

    // A count the bytes cannot hold is refused before any entry is read.
    std::string huge;
    util::put_u64(huge, ~std::uint64_t{0});
    util::ByteReader huge_in(huge);
    EXPECT_FALSE(target.load(huge_in));
    EXPECT_EQ(target.nearest_residual(row(0.0)), 42.0);
}

}  // namespace
}  // namespace cichar::core
