#include "core/trip_cache.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
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

std::size_t TripCacheKeyHash::operator()(
    const TripCacheKey& key) const noexcept {
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

TripPointCache::TripPointCache(std::size_t capacity) : capacity_(capacity) {
    assert(capacity_ >= 1);
}

const TripPointRecord* TripPointCache::lookup(const TripCacheKey& key) {
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

void TripPointCache::insert(const TripCacheKey& key, TripPointRecord record) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(record);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (index_.size() >= capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
        telem_cache_event("evict");
    }
    lru_.emplace_front(key, std::move(record));
    index_.emplace(key, lru_.begin());
}

void TripPointCache::clear() {
    lru_.clear();
    index_.clear();
}

namespace {

// ---------------------------------------------------------------------
// Versioned binary persistence (docs/FORMATS.md, "Binary envelope"):
//
//   magic "CICHTPC2" | sealed(string identity | u64 count | entry*)
//
// Everything is little-endian regardless of host; doubles travel as
// their IEEE-754 bit patterns, so a save/load round trip reproduces
// every key and record bit for bit. Version 1 had no checksum and fails
// the magic check, so it starts cold.
constexpr std::string_view kCacheMagic = "CICHTPC2";
/// Every entry field is one 8-byte word (`cycles` included, kept that
/// wide on disk), and the test name's length prefix is one more.
constexpr std::size_t kEntryMinBytes = 21 * 8;

void put_entry(std::string& out, const TripCacheKey& key,
               const TripPointRecord& record) {
    const testgen::PatternRecipe& r = key.recipe;
    util::put_u64(out, r.cycles);
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
    util::put_string(out, record.test_name);
    util::put_double(out, record.trip_point);
    util::put_double(out, record.wcr);
    util::put_u64(out, static_cast<std::uint64_t>(record.wcr_class));
    util::put_u64(out, record.found ? 1 : 0);
    util::put_u64(out, record.measurements);
}

/// Throws std::runtime_error on a truncated or out-of-range entry.
void get_entry(util::ByteReader& in, TripCacheKey& key,
               TripPointRecord& record) {
    testgen::PatternRecipe& r = key.recipe;
    const std::uint64_t cycles = in.get_u64();
    if (cycles > 0xffffffffULL) {
        throw std::runtime_error("trip cache: cycle count out of range");
    }
    r.cycles = static_cast<std::uint32_t>(cycles);
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
    record.test_name = in.get_string();
    record.trip_point = in.get_double();
    record.wcr = in.get_double();
    const std::uint64_t wcr_class = in.get_u64();
    const std::uint64_t found = in.get_u64();
    if (wcr_class > static_cast<std::uint64_t>(ga::WcrClass::kFail) ||
        found > 1) {
        throw std::runtime_error("trip cache: malformed record");
    }
    record.wcr_class = static_cast<ga::WcrClass>(wcr_class);
    record.found = found == 1;
    record.measurements = static_cast<std::size_t>(in.get_u64());
}

}  // namespace

std::string TripPointCache::save(std::string_view identity) const {
    std::string body;
    util::put_string(body, identity);
    util::put_u64(body, lru_.size());
    // Back to front: least recently used first, so a load that re-inserts
    // in stream order rebuilds the exact recency order.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        put_entry(body, it->first, it->second);
    }
    std::string out(kCacheMagic);
    util::put_sealed(out, body);
    return out;
}

bool TripPointCache::load(std::string_view bytes, std::string_view identity) {
    // Parse everything before mutating, so a truncated or corrupt file
    // cannot leave the cache half-replaced.
    std::vector<Entry> entries;
    try {
        util::ByteReader file(bytes);
        file.expect_magic(kCacheMagic);
        // Any flipped bit anywhere fails the checksum and the whole load
        // is refused.
        util::ByteReader in(file.get_sealed_rest());
        if (in.get_string() != identity) return false;
        entries.resize(in.get_count(kEntryMinBytes));
        for (Entry& entry : entries) get_entry(in, entry.first, entry.second);
        // Trailing bytes mean the count lied — refuse rather than guess.
        if (!in.at_end()) return false;
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
