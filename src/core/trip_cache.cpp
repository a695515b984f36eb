#include "core/trip_cache.hpp"

#include <bit>
#include <cassert>
#include <exception>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/binio.hpp"
#include "util/telemetry.hpp"

namespace cichar::core {

namespace {

// Per-instance stats_ stay authoritative (they are checkpointed and
// reported per site); the registry mirrors them as the process-wide
// scrape schema.
void telem_cache_event(const char* which) {
    if (!cichar::util::telemetry::metrics_enabled()) return;
    namespace telem = cichar::util::telemetry;
    static auto& hits =
        telem::Registry::instance().counter("cichar_trip_cache_hits_total");
    static auto& misses =
        telem::Registry::instance().counter("cichar_trip_cache_misses_total");
    static auto& evictions = telem::Registry::instance().counter(
        "cichar_trip_cache_evictions_total");
    switch (which[0]) {
        case 'h': hits.add(); break;
        case 'm': misses.add(); break;
        default: evictions.add(); break;
    }
}

/// splitmix64 finalizer: full-avalanche mixing of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void feed(std::uint64_t& h, std::uint64_t word) noexcept {
    h = mix64(h ^ word);
}

void feed(std::uint64_t& h, double value) noexcept {
    // Bit-exact: +0.0 and -0.0 hash differently, which is fine — decoded
    // genes never produce -0.0, and a spurious miss only costs one
    // measurement.
    feed(h, std::bit_cast<std::uint64_t>(value));
}

}  // namespace

// The index stores each node's hash code only while the hasher may throw
// (see TripCacheKeyHash).
static_assert(!std::is_nothrow_invocable_v<const TripCacheKeyHash&,
                                           const TripCacheKey&>);

std::size_t TripCacheKeyHash::operator()(const TripCacheKey& key) const {
    std::uint64_t h = 0x4349434841524b45ULL;  // arbitrary non-zero start
    const testgen::PatternRecipe& r = key.recipe;
    feed(h, static_cast<std::uint64_t>(r.cycles));
    feed(h, r.write_fraction);
    feed(h, r.nop_fraction);
    feed(h, r.burst_length);
    feed(h, r.row_locality);
    feed(h, r.bank_conflict_bias);
    feed(h, r.alternating_data_bias);
    feed(h, r.solid_data_bias);
    feed(h, r.toggle_bias);
    feed(h, r.control_activity);
    feed(h, r.seed);
    const testgen::TestConditions& c = key.conditions;
    feed(h, c.vdd_volts);
    feed(h, c.temperature_c);
    feed(h, c.clock_period_ns);
    feed(h, c.output_load_pf);
    return static_cast<std::size_t>(h);
}

TripPointRecord CachedTrip::replay(std::string test_name) const {
    TripPointRecord record;
    record.test_name = std::move(test_name);
    record.trip_point = trip_point;
    record.found = found;
    return record;
}

TripPointCache::TripPointCache(std::size_t capacity) : capacity_(capacity) {
    assert(capacity_ >= 1);
}

const CachedTrip* TripPointCache::lookup(const TripCacheKey& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        telem_cache_event("miss");
        return nullptr;
    }
    ++stats_.hits;
    telem_cache_event("hit");
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
}

void TripPointCache::insert(const TripCacheKey& key,
                            const TripPointRecord& record) {
    const CachedTrip entry{record.trip_point, record.found};
    const auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = entry;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (index_.size() >= capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
        telem_cache_event("evict");
    }
    lru_.emplace_front(key, entry);
    index_.emplace(key, lru_.begin());
}

void TripPointCache::clear() {
    lru_.clear();
    index_.clear();
}

namespace {

// ---------------------------------------------------------------------
// The cache body (docs/FORMATS.md, "Hunt checkpoint payload"):
//
//   body   string identity | u64 count | entry*
//
// It travels inline in the hunt checkpoint payload (CICHKPT4), whose
// envelope is its only seal. Everything is little-endian regardless of
// host; doubles travel as their IEEE-754 bit patterns, so a save/load
// round trip reproduces every key and entry bit for bit.

/// Every entry is fixed-size: u32 cycles, nine f64 recipe knobs, u64
/// seed, four f64 conditions, f64 trip point and a bool.
constexpr std::size_t kEntryBytes = 4 + 9 * 8 + 8 + 4 * 8 + 8 + 1;
static_assert(kEntryBytes == 125);

void put_entry(std::string& out, const TripCacheKey& key,
               const CachedTrip& entry) {
    const testgen::PatternRecipe& r = key.recipe;
    util::put_u32(out, r.cycles);
    util::put_double(out, r.write_fraction);
    util::put_double(out, r.nop_fraction);
    util::put_double(out, r.burst_length);
    util::put_double(out, r.row_locality);
    util::put_double(out, r.bank_conflict_bias);
    util::put_double(out, r.alternating_data_bias);
    util::put_double(out, r.solid_data_bias);
    util::put_double(out, r.toggle_bias);
    util::put_double(out, r.control_activity);
    util::put_u64(out, r.seed);
    const testgen::TestConditions& c = key.conditions;
    util::put_double(out, c.vdd_volts);
    util::put_double(out, c.temperature_c);
    util::put_double(out, c.clock_period_ns);
    util::put_double(out, c.output_load_pf);
    util::put_double(out, entry.trip_point);
    util::put_bool(out, entry.found);
}

/// Throws std::runtime_error on a truncated or malformed entry.
void get_entry(util::ByteReader& in, TripCacheKey& key, CachedTrip& entry) {
    testgen::PatternRecipe& r = key.recipe;
    r.cycles = in.get_u32();
    r.write_fraction = in.get_double();
    r.nop_fraction = in.get_double();
    r.burst_length = in.get_double();
    r.row_locality = in.get_double();
    r.bank_conflict_bias = in.get_double();
    r.alternating_data_bias = in.get_double();
    r.solid_data_bias = in.get_double();
    r.toggle_bias = in.get_double();
    r.control_activity = in.get_double();
    r.seed = in.get_u64();
    testgen::TestConditions& c = key.conditions;
    c.vdd_volts = in.get_double();
    c.temperature_c = in.get_double();
    c.clock_period_ns = in.get_double();
    c.output_load_pf = in.get_double();
    entry.trip_point = in.get_double();
    entry.found = in.get_bool();
}

}  // namespace

void TripPointCache::save_body(std::string& out,
                               std::string_view identity) const {
    out.reserve(out.size() + 16 + identity.size() +
                lru_.size() * kEntryBytes);
    util::put_string(out, identity);
    util::put_u64(out, lru_.size());
    // Back to front: least recently used first, so a load that re-inserts
    // in stream order rebuilds the exact recency order.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        put_entry(out, it->first, it->second);
    }
}

// Parses everything before mutating, so truncated or corrupt bytes
// cannot leave the cache half-replaced.
bool TripPointCache::load_body(util::ByteReader& in,
                               std::string_view identity) {
    std::vector<Entry> entries;
    try {
        if (in.get_string() != identity) return false;
        entries.resize(in.get_count(kEntryBytes));
        for (Entry& entry : entries) get_entry(in, entry.first, entry.second);
    } catch (const std::exception&) {
        return false;
    }
    clear();
    // Oldest entries beyond capacity would be immediately evicted (and
    // would pollute the eviction counter), so skip them up front.
    const std::size_t skip =
        entries.size() > capacity_ ? entries.size() - capacity_ : 0;
    for (std::size_t i = skip; i < entries.size(); ++i) {
        lru_.emplace_front(std::move(entries[i].first),
                           std::move(entries[i].second));
        index_.emplace(lru_.front().first, lru_.begin());
    }
    return true;
}

}  // namespace cichar::core
