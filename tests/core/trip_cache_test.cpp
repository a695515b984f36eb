#include "core/trip_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "util/binio.hpp"

namespace cichar::core {
namespace {

TripCacheKey make_key() {
    TripCacheKey key;
    key.recipe.cycles = 500;
    key.recipe.write_fraction = 0.5;
    key.recipe.seed = 42;
    key.conditions.vdd_volts = 1.8;
    return key;
}

TripPointRecord make_record(double trip) {
    TripPointRecord record;
    record.test_name = "t";
    record.trip_point = trip;
    record.found = true;
    record.measurements = 7;
    return record;
}

TEST(TripCacheTest, HitOnIdenticalKey) {
    TripPointCache cache(8);
    const TripCacheKey key = make_key();
    EXPECT_EQ(cache.lookup(key), nullptr);
    cache.insert(key, make_record(25.0));

    const CachedTrip* hit = cache.lookup(make_key());
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->trip_point, 25.0);
    EXPECT_TRUE(hit->found);
}

// A hit replays the stored trip point and found flag under the caller's
// test name; the rest of the measured record is not kept (the hunt
// recomputes the WCR, and a hit spends no measurements).
TEST(TripCacheTest, HitReplaysTripUnderCallersName) {
    TripPointCache cache(8);
    TripPointRecord measured = make_record(25.5);
    measured.test_name = "ga-3";
    measured.wcr = 0.875;
    measured.wcr_class = ga::WcrClass::kWeakness;
    cache.insert(make_key(), measured);
    TripCacheKey missed = make_key();
    missed.recipe.cycles = 700;
    TripPointRecord not_found = make_record(0.0);
    not_found.found = false;
    cache.insert(missed, not_found);

    const TripPointRecord replay = cache.lookup(make_key())->replay("ga-41");
    EXPECT_EQ(replay.test_name, "ga-41");
    EXPECT_EQ(replay.trip_point, 25.5);
    EXPECT_TRUE(replay.found);
    EXPECT_EQ(replay.wcr, 0.0);
    EXPECT_EQ(replay.wcr_class, ga::WcrClass::kPass);
    EXPECT_EQ(replay.measurements, 0u);

    const TripPointRecord miss_replay = cache.lookup(missed)->replay("ga-42");
    EXPECT_EQ(miss_replay.test_name, "ga-42");
    EXPECT_FALSE(miss_replay.found);
}


TEST(TripCacheTest, MissOnConditionChange) {
    TripPointCache cache(8);
    cache.insert(make_key(), make_record(25.0));

    TripCacheKey warmer = make_key();
    warmer.conditions.temperature_c += 1.0;
    EXPECT_EQ(cache.lookup(warmer), nullptr);

    TripCacheKey different_vdd = make_key();
    different_vdd.conditions.vdd_volts += 1e-12;  // bit-exact keying
    EXPECT_EQ(cache.lookup(different_vdd), nullptr);
}

TEST(TripCacheTest, MissOnRecipeOrSeedChange) {
    TripPointCache cache(8);
    cache.insert(make_key(), make_record(25.0));

    TripCacheKey longer = make_key();
    longer.recipe.cycles += 1;
    EXPECT_EQ(cache.lookup(longer), nullptr);

    TripCacheKey reseeded = make_key();
    reseeded.recipe.seed += 1;  // same statistics, different pattern
    EXPECT_EQ(cache.lookup(reseeded), nullptr);
}

TEST(TripCacheTest, CountersAreAccurate) {
    TripPointCache cache(8);
    const TripCacheKey key = make_key();
    (void)cache.lookup(key);            // miss
    cache.insert(key, make_record(1.0));
    (void)cache.lookup(key);            // hit
    (void)cache.lookup(key);            // hit
    TripCacheKey other = make_key();
    other.recipe.cycles = 900;
    (void)cache.lookup(other);          // miss

    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.stats().lookups(), 4u);
    EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(TripCacheTest, LruEvictionAtCapacity) {
    TripPointCache cache(2);
    TripCacheKey a = make_key();
    a.recipe.cycles = 100;
    TripCacheKey b = make_key();
    b.recipe.cycles = 200;
    TripCacheKey c = make_key();
    c.recipe.cycles = 300;

    cache.insert(a, make_record(1.0));
    cache.insert(b, make_record(2.0));
    ASSERT_NE(cache.lookup(a), nullptr);  // promote a; b is now LRU
    cache.insert(c, make_record(3.0));    // evicts b

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(b), nullptr);
    EXPECT_NE(cache.lookup(a), nullptr);
    EXPECT_NE(cache.lookup(c), nullptr);
}

TEST(TripCacheTest, ReinsertRefreshesInsteadOfEvicting) {
    TripPointCache cache(2);
    const TripCacheKey key = make_key();
    cache.insert(key, make_record(1.0));
    cache.insert(key, make_record(9.0));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_DOUBLE_EQ(cache.lookup(key)->trip_point, 9.0);
}

TEST(TripCacheTest, ClearKeepsStats) {
    TripPointCache cache(4);
    const TripCacheKey key = make_key();
    cache.insert(key, make_record(1.0));
    (void)cache.lookup(key);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookup(key), nullptr);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

// The cache body as the hunt checkpoint carries it inline.
std::string body_of(const TripPointCache& cache, std::string_view identity) {
    std::string out;
    cache.save_body(out, identity);
    return out;
}

/// Loads a whole body: true when load_body accepts it and reads it to
/// the last byte.
bool load_all(TripPointCache& cache, std::string_view bytes,
              std::string_view identity) {
    util::ByteReader in(bytes);
    return cache.load_body(in, identity) && in.at_end();
}

TEST(TripCachePersistTest, SaveLoadRoundTripIsBitExact) {
    TripPointCache cache(8);
    TripCacheKey a = make_key();
    a.recipe.cycles = 100;
    a.conditions.vdd_volts = 1.62000000000000011;  // exercises bit-exactness
    TripCacheKey b = make_key();
    b.recipe.cycles = 0xffffffffu;  // the widest cycle count survives
    b.recipe.seed = ~0ULL;
    TripPointRecord rb = make_record(31.250000000000004);
    rb.found = false;
    cache.insert(a, make_record(25.0));
    cache.insert(b, rb);

    const std::string bytes = body_of(cache, "die-7/tdq");

    TripPointCache loaded(8);
    ASSERT_TRUE(load_all(loaded, bytes, "die-7/tdq"));
    EXPECT_EQ(loaded.size(), 2u);

    const CachedTrip* hit_a = loaded.lookup(a);
    ASSERT_NE(hit_a, nullptr);
    EXPECT_EQ(hit_a->trip_point, 25.0);
    EXPECT_TRUE(hit_a->found);

    const CachedTrip* hit_b = loaded.lookup(b);
    ASSERT_NE(hit_b, nullptr);
    EXPECT_EQ(hit_b->trip_point, rb.trip_point);  // exact, not approximate
    EXPECT_FALSE(hit_b->found);
}

// The body is identity, count and 125-byte entries; a load followed by a
// save reproduces it byte for byte. Read inline, as a checkpoint payload
// carries it, the body stops at its last entry.
TEST(TripCachePersistTest, SaveLoadSaveIsByteIdentical) {
    TripPointCache cache(8);
    for (std::uint32_t i = 0; i < 5; ++i) {
        TripCacheKey key = make_key();
        key.recipe.cycles = 100 + i;
        key.conditions.temperature_c = 25.0 + 0.1 * i;
        TripPointRecord record = make_record(20.0 + 0.3 * i);
        record.found = i % 2 == 0;
        cache.insert(key, record);
    }
    const std::string body = body_of(cache, "die-7/tdq");
    EXPECT_EQ(body.size(), 8u + 9u + 8u + 5u * 125u);

    std::string payload = body;
    util::put_u64(payload, 77);  // the next checkpoint field
    util::ByteReader in(payload);
    TripPointCache loaded(8);
    ASSERT_TRUE(loaded.load_body(in, "die-7/tdq"));
    EXPECT_EQ(in.get_u64(), 77u);
    EXPECT_TRUE(in.at_end());
    EXPECT_EQ(body_of(loaded, "die-7/tdq"), body);
}

// get_count bounds the entry count by the 125-byte entry: a short body
// claiming 2^40 entries is refused before anything is allocated, and
// so is one claiming a single entry in 124 bytes.
TEST(TripCachePersistTest, EntryCountBoundedByCompactEntry) {
    TripPointCache loaded(4);
    loaded.insert(make_key(), make_record(9.0));
    const std::string before = body_of(loaded, "id");

    std::string huge;
    util::put_string(huge, "id");
    util::put_u64(huge, 1ULL << 40);
    huge.append(1000, '\0');
    EXPECT_FALSE(load_all(loaded, huge, "id"));

    std::string short_entry;
    util::put_string(short_entry, "id");
    util::put_u64(short_entry, 1);
    short_entry.append(124, '\0');
    EXPECT_FALSE(load_all(loaded, short_entry, "id"));
    short_entry.push_back('\0');  // exactly one entry: cycles 0, not found
    TripPointCache one(4);
    EXPECT_TRUE(load_all(one, short_entry, "id"));
    EXPECT_EQ(one.size(), 1u);

    EXPECT_EQ(body_of(loaded, "id"), before);
}

TEST(TripCachePersistTest, LoadPreservesRecencyOrder) {
    TripPointCache cache(2);
    TripCacheKey a = make_key();
    a.recipe.cycles = 100;
    TripCacheKey b = make_key();
    b.recipe.cycles = 200;
    cache.insert(a, make_record(1.0));
    cache.insert(b, make_record(2.0));  // b most recent, a is LRU

    TripPointCache loaded(2);
    ASSERT_TRUE(load_all(loaded, body_of(cache, "id"), "id"));

    // Inserting a third entry must evict `a` (the LRU), proving the
    // recency order survived the round trip.
    TripCacheKey c = make_key();
    c.recipe.cycles = 300;
    loaded.insert(c, make_record(3.0));
    EXPECT_EQ(loaded.lookup(a), nullptr);
    EXPECT_NE(loaded.lookup(b), nullptr);
}

TEST(TripCachePersistTest, IdentityMismatchRejectedAndCacheUntouched) {
    TripPointCache source(4);
    source.insert(make_key(), make_record(1.0));
    const std::string bytes = body_of(source, "lot-A");

    TripPointCache target(4);
    TripCacheKey existing = make_key();
    existing.recipe.cycles = 900;
    target.insert(existing, make_record(9.0));
    EXPECT_FALSE(load_all(target, bytes, "lot-B"));
    EXPECT_EQ(target.size(), 1u);  // untouched
    EXPECT_NE(target.lookup(existing), nullptr);
}

TEST(TripCachePersistTest, OverCapacityLoadKeepsMostRecent) {
    TripPointCache big(8);
    TripCacheKey keys[4];
    for (int i = 0; i < 4; ++i) {
        keys[i] = make_key();
        keys[i].recipe.cycles = 100 + static_cast<std::uint32_t>(i);
        big.insert(keys[i], make_record(static_cast<double>(i)));
    }
    TripPointCache small(2);
    ASSERT_TRUE(load_all(small, body_of(big, "id"), "id"));
    EXPECT_EQ(small.size(), 2u);
    EXPECT_EQ(small.stats().evictions, 0u);
    EXPECT_EQ(small.lookup(keys[0]), nullptr);
    EXPECT_EQ(small.lookup(keys[1]), nullptr);
    EXPECT_NE(small.lookup(keys[2]), nullptr);
    EXPECT_NE(small.lookup(keys[3]), nullptr);
}

// A body whose entry count no remaining bytes could satisfy is refused
// before anything is allocated for the count, even when a valid entry
// follows.
TEST(TripCachePersistTest, EntryCountBeyondFileSizeRejected) {
    TripPointCache source(4);
    source.insert(make_key(), make_record(1.0));
    std::string body;
    util::put_string(body, "id");
    util::put_u64(body, 1ULL << 24);  // ~2 GB of entries, if believed
    body.append(body_of(source, "id").substr(8 + 2 + 8));  // one entry
    TripPointCache loaded(4);
    loaded.insert(make_key(), make_record(9.0));
    const std::string before = body_of(loaded, "id");
    EXPECT_FALSE(load_all(loaded, body, "id"));
    EXPECT_EQ(body_of(loaded, "id"), before);
}

TEST(TripCachePersistTest, LoadBodyRefusalLeavesCacheUntouched) {
    TripPointCache source(4);
    source.insert(make_key(), make_record(1.0));
    const std::string body = body_of(source, "lot-A");

    TripPointCache target(4);
    TripCacheKey existing = make_key();
    existing.recipe.cycles = 900;
    target.insert(existing, make_record(9.0));
    const std::string before = body_of(target, "id");

    util::ByteReader wrong_identity(body);
    EXPECT_FALSE(target.load_body(wrong_identity, "lot-B"));
    EXPECT_EQ(body_of(target, "id"), before);

    std::string lying;
    util::put_string(lying, "lot-A");
    util::put_u64(lying, 1ULL << 24);  // more entries than bytes left
    util::ByteReader too_many(lying);
    EXPECT_FALSE(target.load_body(too_many, "lot-A"));
    EXPECT_EQ(body_of(target, "id"), before);

    util::ByteReader truncated(
        std::string_view(body).substr(0, body.size() - 1));
    EXPECT_FALSE(target.load_body(truncated, "lot-A"));
    EXPECT_EQ(body_of(target, "id"), before);
}

// The body decoder on its own: every proper prefix of a three-entry body
// is refused, and each refusal leaves the target byte-identical.
TEST(TripCachePersistTest, LoadBodyRefusesEveryTruncation) {
    TripPointCache source(8);
    for (std::uint32_t i = 0; i < 3; ++i) {
        TripCacheKey key = make_key();
        key.recipe.cycles = 200 + i;
        key.recipe.seed = 42 + i;
        source.insert(key, make_record(20.0 + i));
    }
    const std::string body = body_of(source, "die-7/tdq");
    ASSERT_EQ(body.size(), 8u + 9u + 8u + 3u * 125u);

    TripPointCache target(8);
    TripCacheKey existing = make_key();
    existing.recipe.cycles = 900;
    target.insert(existing, make_record(9.0));
    const std::string before = body_of(target, "die-7/tdq");

    for (std::size_t len = 0; len < body.size(); ++len) {
        util::ByteReader in(std::string_view(body).substr(0, len));
        EXPECT_FALSE(target.load_body(in, "die-7/tdq"))
            << "prefix of length " << len << " accepted";
        EXPECT_EQ(body_of(target, "die-7/tdq"), before)
            << "prefix of length " << len << " touched the cache";
    }
    EXPECT_TRUE(load_all(target, body, "die-7/tdq"));
    EXPECT_EQ(body_of(target, "die-7/tdq"), body);
}

TEST(TripCacheStatsTest, MergeAccumulates) {
    TripCacheStats a{10, 5, 1};
    const TripCacheStats b{2, 3, 0};
    a.merge(b);
    EXPECT_EQ(a.hits, 12u);
    EXPECT_EQ(a.misses, 8u);
    EXPECT_EQ(a.evictions, 1u);
}

}  // namespace
}  // namespace cichar::core
