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

    const std::string bytes = cache.save("die-7/tdq");

    TripPointCache loaded(8);
    ASSERT_TRUE(loaded.load(bytes, "die-7/tdq"));
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

// CICHTPC3: magic | sealed(identity, count, 125-byte entries); a load
// followed by a save reproduces the file byte for byte.
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
    const std::string file = cache.save("die-7/tdq");
    EXPECT_EQ(file.substr(0, 8), "CICHTPC3");
    EXPECT_EQ(file.size(), 8u + 8u + 9u + 8u + 5u * 125u + 8u);

    TripPointCache loaded(8);
    ASSERT_TRUE(loaded.load(file, "die-7/tdq"));
    EXPECT_EQ(loaded.save("die-7/tdq"), file);
}

// A CICHTPC2 file (full records under an FNV-1a seal) fails the magic
// check: the hunt starts cold, never misparses it.
TEST(TripCachePersistTest, VersionTwoFileStartsCold) {
    std::string body;
    util::put_string(body, "id");
    util::put_u64(body, 0);
    std::string v2("CICHTPC2");
    v2.append(body);
    util::put_u64(v2, util::checksum64(body));
    TripPointCache loaded(4);
    EXPECT_FALSE(loaded.load(v2, "id"));
    EXPECT_EQ(loaded.size(), 0u);

    // The same body under the current magic and seal loads (empty).
    std::string v3("CICHTPC3");
    util::put_sealed(v3, body);
    EXPECT_TRUE(loaded.load(v3, "id"));
}

// get_count bounds the entry count by the 125-byte entry: a short body
// claiming 2^40 entries is refused before anything is allocated, and
// so is one claiming a single entry in 124 bytes.
TEST(TripCachePersistTest, EntryCountBoundedByCompactEntry) {
    TripPointCache loaded(4);
    loaded.insert(make_key(), make_record(9.0));
    const std::string before = loaded.save("id");

    std::string huge;
    util::put_string(huge, "id");
    util::put_u64(huge, 1ULL << 40);
    huge.append(1000, '\0');
    std::string file("CICHTPC3");
    util::put_sealed(file, huge);
    EXPECT_FALSE(loaded.load(file, "id"));
    util::ByteReader inline_huge(huge);
    EXPECT_FALSE(loaded.load_body(inline_huge, "id"));

    std::string short_entry;
    util::put_string(short_entry, "id");
    util::put_u64(short_entry, 1);
    short_entry.append(124, '\0');
    util::ByteReader inline_short(short_entry);
    EXPECT_FALSE(loaded.load_body(inline_short, "id"));
    short_entry.push_back('\0');  // exactly one entry: cycles 0, not found
    util::ByteReader inline_one(short_entry);
    TripPointCache one(4);
    EXPECT_TRUE(one.load_body(inline_one, "id"));
    EXPECT_EQ(one.size(), 1u);

    EXPECT_EQ(loaded.save("id"), before);
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
    util::put_u64(body, 1ULL << 24);  // ~2 GB of entries, if believed
    std::string file("CICHTPC3");
    util::put_sealed(file, body);
    TripPointCache loaded(4);
    loaded.insert(make_key(), make_record(9.0));
    EXPECT_FALSE(loaded.load(file, "id"));
    EXPECT_EQ(loaded.size(), 1u);
}

// One body codec: the CICHTPC3 file seals exactly the bytes save_body()
// writes, and the same body read inline (as a checkpoint payload carries
// it) stops at its last entry and restores the same cache.
TEST(TripCachePersistTest, FileSealsExactlyTheSaveBodyBytes) {
    TripPointCache cache(8);
    TripCacheKey a = make_key();
    a.recipe.cycles = 100;
    TripCacheKey b = make_key();
    b.recipe.cycles = 200;
    cache.insert(a, make_record(25.0));
    cache.insert(b, make_record(31.25));

    std::string body;
    cache.save_body(body, "die-7/tdq");
    const std::string file = cache.save("die-7/tdq");
    util::ByteReader sealed(file);
    sealed.expect_magic("CICHTPC3");
    EXPECT_EQ(sealed.get_sealed_rest(), body);

    std::string payload = body;
    util::put_u64(payload, 77);  // the next checkpoint field
    util::ByteReader inline_body(payload);
    TripPointCache loaded(8);
    ASSERT_TRUE(loaded.load_body(inline_body, "die-7/tdq"));
    EXPECT_EQ(inline_body.get_u64(), 77u);
    EXPECT_TRUE(inline_body.at_end());
    EXPECT_EQ(loaded.save("die-7/tdq"), file);
}

TEST(TripCachePersistTest, LoadBodyRefusalLeavesCacheUntouched) {
    TripPointCache source(4);
    source.insert(make_key(), make_record(1.0));
    std::string body;
    source.save_body(body, "lot-A");

    TripPointCache target(4);
    TripCacheKey existing = make_key();
    existing.recipe.cycles = 900;
    target.insert(existing, make_record(9.0));
    const std::string before = target.save("id");

    util::ByteReader wrong_identity(body);
    EXPECT_FALSE(target.load_body(wrong_identity, "lot-B"));
    EXPECT_EQ(target.save("id"), before);

    std::string lying;
    util::put_string(lying, "lot-A");
    util::put_u64(lying, 1ULL << 24);  // more entries than bytes left
    util::ByteReader too_many(lying);
    EXPECT_FALSE(target.load_body(too_many, "lot-A"));
    EXPECT_EQ(target.save("id"), before);

    util::ByteReader truncated(
        std::string_view(body).substr(0, body.size() - 1));
    EXPECT_FALSE(target.load_body(truncated, "lot-A"));
    EXPECT_EQ(target.save("id"), before);
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
