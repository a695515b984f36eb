#include "obs/status_format.hpp"

#include <exception>
#include <stdexcept>

#include "util/binio.hpp"

namespace cichar::obs {
namespace {

// Corruption guard: a string framed longer than this is a garbage
// length field, not a real campaign.
constexpr std::uint64_t kMaxStrings = 1ULL << 16;
// Smallest encoding of each counted element (get_count bounds the count
// by the bytes left): a site is 12 words, an outcome a length prefix,
// a bool and 3 doubles, a duration one double.
constexpr std::size_t kSiteMinBytes = 12 * 8;
constexpr std::size_t kOutcomeMinBytes = 8 + 1 + 3 * 8;
constexpr std::size_t kDurationBytes = 8;

void put_site(std::string& out, const SiteStatusEntry& site) {
    util::put_u64(out, site.site);
    util::put_u64(out, static_cast<std::uint64_t>(site.phase));
    util::put_u64(out, site.generation);
    util::put_u64(out, site.generations_total);
    util::put_u64(out, site.evaluations);
    util::put_double(out, site.best_wcr);
    util::put_u64(out, site.ate_applications);
    util::put_u64(out, site.cache_hits);
    util::put_u64(out, site.cache_misses);
    util::put_u64(out, site.inflight);
    util::put_double(out, site.elapsed_seconds);
    util::put_u64(out, site.outcomes.size());
    for (const SiteOutcomeEntry& outcome : site.outcomes) {
        util::put_string(out, outcome.parameter);
        util::put_bool(out, outcome.found);
        util::put_double(out, outcome.trip_point);
        util::put_double(out, outcome.wcr);
        util::put_double(out, outcome.margin_risk);
    }
}

SiteStatusEntry get_site(util::ByteReader& in) {
    SiteStatusEntry site;
    site.site = in.get_u64();
    const std::uint64_t phase = in.get_u64();
    if (phase > static_cast<std::uint64_t>(SitePhase::kDead)) {
        throw std::runtime_error("status: bad site phase");
    }
    site.phase = static_cast<SitePhase>(phase);
    site.generation = in.get_u64();
    site.generations_total = in.get_u64();
    site.evaluations = in.get_u64();
    site.best_wcr = in.get_double();
    site.ate_applications = in.get_u64();
    site.cache_hits = in.get_u64();
    site.cache_misses = in.get_u64();
    site.inflight = in.get_u64();
    site.elapsed_seconds = in.get_double();
    const std::size_t outcomes = in.get_count(kOutcomeMinBytes);
    site.outcomes.reserve(outcomes);
    for (std::size_t i = 0; i < outcomes; ++i) {
        SiteOutcomeEntry outcome;
        outcome.parameter = in.get_string(kMaxStrings);
        outcome.found = in.get_bool();
        outcome.trip_point = in.get_double();
        outcome.wcr = in.get_double();
        outcome.margin_risk = in.get_double();
        site.outcomes.push_back(std::move(outcome));
    }
    return site;
}

}  // namespace

const char* to_string(SitePhase phase) noexcept {
    switch (phase) {
        case SitePhase::kPending: return "pending";
        case SitePhase::kTraining: return "training";
        case SitePhase::kHunting: return "hunting";
        case SitePhase::kDone: return "done";
        case SitePhase::kQuarantined: return "quarantined";
        case SitePhase::kDead: return "dead";
    }
    return "?";
}

std::uint64_t StatusSnapshot::count(SitePhase phase) const noexcept {
    std::uint64_t n = 0;
    for (const SiteStatusEntry& site : sites) {
        if (site.phase == phase) ++n;
    }
    return n;
}

std::uint64_t StatusSnapshot::finished_sites() const noexcept {
    std::uint64_t n = 0;
    for (const SiteStatusEntry& site : sites) {
        if (is_terminal(site.phase)) ++n;
    }
    return n;
}

std::uint64_t StatusSnapshot::ate_applications() const noexcept {
    std::uint64_t n = 0;
    for (const SiteStatusEntry& site : sites) n += site.ate_applications;
    return n;
}

std::uint64_t StatusSnapshot::cache_hits() const noexcept {
    std::uint64_t n = 0;
    for (const SiteStatusEntry& site : sites) n += site.cache_hits;
    return n;
}

std::uint64_t StatusSnapshot::cache_misses() const noexcept {
    std::uint64_t n = 0;
    for (const SiteStatusEntry& site : sites) n += site.cache_misses;
    return n;
}

std::string encode_status(const StatusSnapshot& snapshot) {
    std::string payload;
    util::put_u32(payload, kStatusVersion);
    util::put_string(payload, snapshot.kind);
    util::put_string(payload, snapshot.fingerprint);
    util::put_u64(payload, snapshot.seed);
    util::put_u64(payload, snapshot.pid);
    util::put_u64(payload, snapshot.sequence);
    util::put_double(payload, snapshot.uptime_seconds);
    util::put_u64(payload, snapshot.sites_total);
    util::put_u64(payload, snapshot.policy_retries);
    util::put_u64(payload, snapshot.policy_interventions);
    util::put_u64(payload, snapshot.sites.size());
    for (const SiteStatusEntry& site : snapshot.sites) {
        put_site(payload, site);
    }
    util::put_u64(payload, snapshot.completed_seconds.size());
    for (const double seconds : snapshot.completed_seconds) {
        util::put_double(payload, seconds);
    }

    std::string out;
    out.reserve(kStatusMagic.size() + payload.size() + 8);
    out.append(kStatusMagic);
    util::put_sealed(out, payload);
    return out;
}

std::optional<StatusSnapshot> decode_status(std::string_view contents) {
    try {
        util::ByteReader file(contents);
        file.expect_magic(kStatusMagic);
        util::ByteReader in(file.get_sealed_rest());
        if (in.get_u32() != kStatusVersion) return std::nullopt;
        StatusSnapshot snapshot;
        snapshot.kind = in.get_string(kMaxStrings);
        snapshot.fingerprint = in.get_string(kMaxStrings);
        snapshot.seed = in.get_u64();
        snapshot.pid = in.get_u64();
        snapshot.sequence = in.get_u64();
        snapshot.uptime_seconds = in.get_double();
        snapshot.sites_total = in.get_u64();
        snapshot.policy_retries = in.get_u64();
        snapshot.policy_interventions = in.get_u64();
        const std::size_t sites = in.get_count(kSiteMinBytes);
        snapshot.sites.reserve(sites);
        for (std::size_t i = 0; i < sites; ++i) {
            snapshot.sites.push_back(get_site(in));
        }
        const std::size_t durations = in.get_count(kDurationBytes);
        snapshot.completed_seconds.reserve(durations);
        for (std::size_t i = 0; i < durations; ++i) {
            snapshot.completed_seconds.push_back(in.get_double());
        }
        if (!in.at_end()) return std::nullopt;  // trailing garbage
        return snapshot;
    } catch (const std::exception&) {
        return std::nullopt;  // bad magic, checksum, or truncated payload
    }
}

}  // namespace cichar::obs
