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
// Cached records replay the trip point measured when the entry was
// inserted; with a noisy DUT a re-measurement would have returned a
// slightly different value, so enabling the cache is an explicit
// opt-in trade of per-duplicate noise resolution for ATE time.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/dsv.hpp"
#include "testgen/conditions.hpp"
#include "testgen/recipe.hpp"

namespace cichar::core {

/// Hit/miss/eviction counters surfaced in hunt reports and datalogs.
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

/// Hash of the canonical key (bit-exact over the doubles).
struct TripCacheKeyHash {
    [[nodiscard]] std::size_t operator()(const TripCacheKey& key) const noexcept;
};

/// LRU-bounded map: canonical test -> measured TripPointRecord.
class TripPointCache {
public:
    explicit TripPointCache(std::size_t capacity = 4096);

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
    [[nodiscard]] const TripCacheStats& stats() const noexcept { return stats_; }
    /// Overwrites the counters (checkpoint restore: a resumed hunt's
    /// stats continue from the interrupted run's).
    void set_stats(const TripCacheStats& stats) noexcept { stats_ = stats; }

    /// Returns the cached record (promoted to most-recently-used) or
    /// nullptr. Counts a hit or a miss. The pointer stays valid until the
    /// next insert().
    [[nodiscard]] const TripPointRecord* lookup(const TripCacheKey& key);

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one when full.
    void insert(const TripCacheKey& key, TripPointRecord record);

    void clear();

    /// Serializes every entry (least-recently-used first, so a load
    /// re-inserts them back into the same recency order) plus the given
    /// device/process identity string into the versioned CICHTPC2 bytes.
    /// Doubles are stored as bit patterns, so a round trip is bit-exact.
    [[nodiscard]] std::string save(std::string_view identity) const;

    /// Replaces the contents from bytes produced by save(). Returns
    /// false — leaving the cache untouched — when the magic/version or
    /// the identity string does not match, or the bytes are truncated or
    /// corrupt. Hit/miss/eviction counters are not restored: stats always
    /// describe the current run. When the bytes hold more entries than
    /// `capacity()`, only the most recent ones are kept.
    bool load(std::string_view bytes, std::string_view identity);

private:
    using Entry = std::pair<TripCacheKey, TripPointRecord>;

    std::size_t capacity_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::unordered_map<TripCacheKey, std::list<Entry>::iterator,
                       TripCacheKeyHash>
        index_;
    TripCacheStats stats_;
};

}  // namespace cichar::core
