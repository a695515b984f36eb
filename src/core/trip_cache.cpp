#include "core/trip_cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
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
// Versioned binary persistence. Everything is little-endian regardless
// of host; doubles travel as their IEEE-754 bit patterns, so a save/load
// round trip reproduces every key and record bit for bit.

// Version 2 appends a checksum64 of the payload, so a bit-flipped cache
// file is rejected (cold start) instead of silently poisoning the memo.
// Version-1 files fail the magic check and also start cold.
constexpr char kCacheMagic[8] = {'C', 'I', 'C', 'H', 'T', 'P', 'C', '2'};
constexpr std::uint64_t kMaxStringLength = 1u << 20;
constexpr std::uint64_t kMaxEntryCount = 1u << 24;

void put_u64(std::ostream& out, std::uint64_t v) {
    char buf[8];
    for (int i = 0; i < 8; ++i) {
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    out.write(buf, 8);
}

void put_u32(std::ostream& out, std::uint32_t v) {
    put_u64(out, v);
}

void put_double(std::ostream& out, double v) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::ostream& out, std::string_view s) {
    put_u64(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool get_u64(std::istream& in, std::uint64_t& v) {
    char buf[8];
    if (!in.read(buf, 8)) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    }
    return true;
}

bool get_u32(std::istream& in, std::uint32_t& v) {
    std::uint64_t wide = 0;
    if (!get_u64(in, wide) || wide > 0xffffffffULL) return false;
    v = static_cast<std::uint32_t>(wide);
    return true;
}

bool get_double(std::istream& in, double& v) {
    std::uint64_t bits = 0;
    if (!get_u64(in, bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
}

bool get_string(std::istream& in, std::string& s) {
    std::uint64_t length = 0;
    if (!get_u64(in, length) || length > kMaxStringLength) return false;
    s.resize(static_cast<std::size_t>(length));
    return length == 0 ||
           static_cast<bool>(
               in.read(s.data(), static_cast<std::streamsize>(length)));
}

void put_entry(std::ostream& out, const TripCacheKey& key,
               const TripPointRecord& record) {
    const testgen::PatternRecipe& r = key.recipe;
    put_u32(out, r.cycles);
    put_double(out, r.write_fraction);
    put_double(out, r.nop_fraction);
    put_double(out, r.burst_length);
    put_double(out, r.row_locality);
    put_double(out, r.bank_conflict_bias);
    put_double(out, r.alternating_data_bias);
    put_double(out, r.solid_data_bias);
    put_double(out, r.toggle_bias);
    put_double(out, r.control_activity);
    put_u64(out, r.seed);
    const testgen::TestConditions& c = key.conditions;
    put_double(out, c.vdd_volts);
    put_double(out, c.temperature_c);
    put_double(out, c.clock_period_ns);
    put_double(out, c.output_load_pf);
    put_string(out, record.test_name);
    put_double(out, record.trip_point);
    put_double(out, record.wcr);
    put_u64(out, static_cast<std::uint64_t>(record.wcr_class));
    put_u64(out, record.found ? 1 : 0);
    put_u64(out, record.measurements);
}

bool get_entry(std::istream& in, TripCacheKey& key, TripPointRecord& record) {
    testgen::PatternRecipe& r = key.recipe;
    if (!get_u32(in, r.cycles) || !get_double(in, r.write_fraction) ||
        !get_double(in, r.nop_fraction) || !get_double(in, r.burst_length) ||
        !get_double(in, r.row_locality) ||
        !get_double(in, r.bank_conflict_bias) ||
        !get_double(in, r.alternating_data_bias) ||
        !get_double(in, r.solid_data_bias) || !get_double(in, r.toggle_bias) ||
        !get_double(in, r.control_activity) || !get_u64(in, r.seed)) {
        return false;
    }
    testgen::TestConditions& c = key.conditions;
    if (!get_double(in, c.vdd_volts) || !get_double(in, c.temperature_c) ||
        !get_double(in, c.clock_period_ns) ||
        !get_double(in, c.output_load_pf)) {
        return false;
    }
    if (!get_string(in, record.test_name)) return false;
    std::uint64_t wcr_class = 0;
    std::uint64_t found = 0;
    std::uint64_t measurements = 0;
    if (!get_double(in, record.trip_point) || !get_double(in, record.wcr) ||
        !get_u64(in, wcr_class) || !get_u64(in, found) ||
        !get_u64(in, measurements)) {
        return false;
    }
    if (wcr_class > static_cast<std::uint64_t>(ga::WcrClass::kFail) ||
        found > 1) {
        return false;
    }
    record.wcr_class = static_cast<ga::WcrClass>(wcr_class);
    record.found = found == 1;
    record.measurements = static_cast<std::size_t>(measurements);
    return true;
}

}  // namespace

bool TripPointCache::save(std::ostream& out, std::string_view identity) const {
    std::ostringstream body;
    put_string(body, identity);
    put_u64(body, lru_.size());
    // Back to front: least recently used first, so a load that re-inserts
    // in stream order rebuilds the exact recency order.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        put_entry(body, it->first, it->second);
    }
    const std::string payload = body.str();
    out.write(kCacheMagic, sizeof(kCacheMagic));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    put_u64(out, util::checksum64(payload));
    return static_cast<bool>(out);
}

bool TripPointCache::load(std::istream& in, std::string_view identity) {
    char magic[sizeof(kCacheMagic)];
    if (!in.read(magic, sizeof(magic)) ||
        !std::equal(std::begin(magic), std::end(magic),
                    std::begin(kCacheMagic))) {
        return false;
    }
    // Slurp payload + trailing checksum; any flipped bit anywhere in the
    // payload fails the checksum and the whole load is refused.
    const std::string rest{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    if (rest.size() < 8) return false;
    const std::string_view payload(rest.data(), rest.size() - 8);
    std::uint64_t stored_checksum = 0;
    for (int i = 0; i < 8; ++i) {
        stored_checksum |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                               rest[rest.size() - 8 + static_cast<std::size_t>(i)]))
                           << (8 * i);
    }
    if (stored_checksum != util::checksum64(payload)) return false;

    std::istringstream body{std::string(payload)};
    std::string stored_identity;
    if (!get_string(body, stored_identity) || stored_identity != identity) {
        return false;
    }
    std::uint64_t count = 0;
    if (!get_u64(body, count) || count > kMaxEntryCount) return false;

    // Parse everything before mutating, so a truncated or corrupt stream
    // cannot leave the cache half-replaced.
    std::vector<Entry> entries(static_cast<std::size_t>(count));
    for (Entry& entry : entries) {
        if (!get_entry(body, entry.first, entry.second)) return false;
    }
    // Trailing bytes mean the count lied — refuse rather than guess.
    if (body.peek() != std::istringstream::traits_type::eof()) return false;

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
