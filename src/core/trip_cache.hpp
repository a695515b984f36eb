// Memoizing trip-point cache for the GA worst-case hunt. The GA's
// genetic operators routinely re-emit a chromosome they already measured
// (elites copied across migration, no-crossover/no-mutation children,
// same-parent crossovers), and every such duplicate decodes to the exact
// same concrete test — so its trip point is already known and the ATE
// time to re-measure it is pure waste. One cache instance serves one
// (parameter, trip-search) context; the key is the canonical *decoded*
// test (bit-exact recipe + conditions + pattern seed), which also unifies
// distinct gene vectors that decode identically through quantization.
//
// Cached entries replay the trip point measured when the entry was
// inserted; with a noisy DUT a re-measurement would have returned a
// slightly different value, so enabling the cache is an explicit
// opt-in trade of per-duplicate noise resolution for ATE time. An entry
// keeps only what a hit replays (trip point and found flag): the hunt
// names the test and recomputes its WCR on a hit, and a hit spends no
// measurements.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/dsv.hpp"
#include "testgen/conditions.hpp"
#include "testgen/recipe.hpp"

namespace cichar::util {
class ByteReader;
}  // namespace cichar::util

namespace cichar::core {

/// Hit/miss/eviction counters surfaced in hunt reports.
struct TripCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    [[nodiscard]] std::uint64_t lookups() const noexcept {
        return hits + misses;
    }
    [[nodiscard]] double hit_rate() const noexcept {
        const std::uint64_t n = lookups();
        return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
    }

    void merge(const TripCacheStats& other) noexcept {
        hits += other.hits;
        misses += other.misses;
        evictions += other.evictions;
    }
};

/// Canonical identity of one concrete test application. Two chromosomes
/// with this key equal expand to byte-identical stimulus + conditions.
struct TripCacheKey {
    testgen::PatternRecipe recipe;       ///< includes the pattern seed
    testgen::TestConditions conditions;

    [[nodiscard]] bool operator==(const TripCacheKey&) const = default;
};

/// Hash of the canonical key (bit-exact over the doubles). Deliberately
/// not noexcept: libstdc++'s unordered_map stores each node's hash code
/// only for a hasher that may throw, and without stored codes every
/// bucket walk re-hashes the neighbouring keys it passes (about 8.8
/// hashes per hunt evaluation instead of about 4).
struct TripCacheKeyHash {
    [[nodiscard]] std::size_t operator()(const TripCacheKey& key) const;
};

/// Entries a hunt's cache holds before evicting the least recently used
/// one: about 14 GA generations of inserts, which covers every hit a
/// hunt has been measured to reach back for.
inline constexpr std::size_t kTripCacheCapacity = 1280;

/// What a cache hit replays of the measured TripPointRecord.
struct CachedTrip {
    double trip_point = 0.0;
    bool found = false;

    /// The record a hit stands for, named `test_name`; its WCR, class and
    /// measurement count stay zero (a hit measures nothing).
    [[nodiscard]] TripPointRecord replay(std::string test_name) const;
};

/// LRU-bounded map: canonical test -> CachedTrip.
class TripPointCache {
public:
    explicit TripPointCache(std::size_t capacity = kTripCacheCapacity);

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
    [[nodiscard]] const TripCacheStats& stats() const noexcept { return stats_; }
    /// Overwrites the counters (checkpoint restore: a resumed hunt's
    /// stats continue from the interrupted run's).
    void set_stats(const TripCacheStats& stats) noexcept { stats_ = stats; }

    /// Returns the cached entry (promoted to most-recently-used) or
    /// nullptr. Counts a hit or a miss. The pointer stays valid until the
    /// next insert().
    [[nodiscard]] const CachedTrip* lookup(const TripCacheKey& key);

    /// Inserts (or refreshes) the entry for `record`'s trip point and
    /// found flag, evicting the least-recently-used one when full.
    void insert(const TripCacheKey& key, const TripPointRecord& record);

    void clear();

    /// Appends the cache body — `str identity | u64 count | entry*`, every
    /// entry least-recently-used first so a load re-inserts them back
    /// into the same recency order — to `out`. Doubles are stored as bit
    /// patterns, so a round trip is bit-exact. The body has no frame of
    /// its own: the hunt checkpoint writes it inline under the
    /// checkpoint's seal.
    void save_body(std::string& out, std::string_view identity) const;

    /// Reads one body written by save_body() from `in` and replaces the
    /// contents with it. Returns false — leaving the cache untouched —
    /// when the identity string does not match or the bytes are
    /// truncated or malformed; the reader's position is then unspecified.
    /// Hit/miss/eviction counters are not restored: stats always describe
    /// the current run. When the body holds more entries than
    /// `capacity()`, only the most recent ones are kept.
    bool load_body(util::ByteReader& in, std::string_view identity);

private:
    using Entry = std::pair<TripCacheKey, CachedTrip>;

    std::size_t capacity_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::unordered_map<TripCacheKey, std::list<Entry>::iterator,
                       TripCacheKeyHash>
        index_;
    TripCacheStats stats_;
};

}  // namespace cichar::core
