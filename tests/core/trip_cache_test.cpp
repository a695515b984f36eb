#include "core/trip_cache.hpp"

#include <gtest/gtest.h>

#include <string>

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

    const TripPointRecord* hit = cache.lookup(make_key());
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->trip_point, 25.0);
    EXPECT_EQ(hit->measurements, 7u);
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

TEST(TripCachePersistTest, SaveLoadRoundTripIsBitExact) {
    TripPointCache cache(8);
    TripCacheKey a = make_key();
    a.recipe.cycles = 100;
    a.conditions.vdd_volts = 1.62000000000000011;  // exercises bit-exactness
    TripCacheKey b = make_key();
    b.recipe.cycles = 200;
    TripPointRecord rb = make_record(31.25);
    rb.wcr = 0.640000000000000013;
    rb.wcr_class = ga::WcrClass::kWeakness;
    cache.insert(a, make_record(25.0));
    cache.insert(b, rb);

    const std::string bytes = cache.save("die-7/tdq");

    TripPointCache loaded(8);
    ASSERT_TRUE(loaded.load(bytes, "die-7/tdq"));
    EXPECT_EQ(loaded.size(), 2u);

    const TripPointRecord* hit_a = loaded.lookup(a);
    ASSERT_NE(hit_a, nullptr);
    EXPECT_EQ(hit_a->trip_point, 25.0);
    EXPECT_EQ(hit_a->measurements, 7u);
    EXPECT_TRUE(hit_a->found);

    const TripPointRecord* hit_b = loaded.lookup(b);
    ASSERT_NE(hit_b, nullptr);
    EXPECT_EQ(hit_b->wcr, rb.wcr);  // exact, not approximate
    EXPECT_EQ(hit_b->wcr_class, ga::WcrClass::kWeakness);
    EXPECT_EQ(hit_b->test_name, "t");
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
    ASSERT_TRUE(loaded.load(cache.save("id"), "id"));

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
    const std::string bytes = source.save("lot-A");

    TripPointCache target(4);
    TripCacheKey existing = make_key();
    existing.recipe.cycles = 900;
    target.insert(existing, make_record(9.0));
    EXPECT_FALSE(target.load(bytes, "lot-B"));
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
    ASSERT_TRUE(small.load(big.save("id"), "id"));
    EXPECT_EQ(small.size(), 2u);
    EXPECT_EQ(small.stats().evictions, 0u);
    EXPECT_EQ(small.lookup(keys[0]), nullptr);
    EXPECT_EQ(small.lookup(keys[1]), nullptr);
    EXPECT_NE(small.lookup(keys[2]), nullptr);
    EXPECT_NE(small.lookup(keys[3]), nullptr);
}

// A version-1 file (no checksum) fails the magic check: documented
// cold-cache fallback, never a misparse.
TEST(TripCachePersistTest, OldFormatVersionStartsCold) {
    const std::string v1("CICHTPC1\x02\x00\x00\x00\x00\x00\x00\x00id", 18);
    TripPointCache loaded(4);
    EXPECT_FALSE(loaded.load(v1, "id"));
    EXPECT_EQ(loaded.size(), 0u);
}

// A file whose checksum holds but whose entry count no file of its size
// could satisfy is refused before anything is allocated for the count.
TEST(TripCachePersistTest, EntryCountBeyondFileSizeRejected) {
    std::string body;
    util::put_string(body, "id");
    util::put_u64(body, 1ULL << 24);  // ~3 GB of entries, if believed
    std::string file("CICHTPC2");
    util::put_sealed(file, body);
    TripPointCache loaded(4);
    loaded.insert(make_key(), make_record(9.0));
    EXPECT_FALSE(loaded.load(file, "id"));
    EXPECT_EQ(loaded.size(), 1u);
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
