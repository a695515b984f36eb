// On-disk format of the live campaign status feed ("CISTAT2"). A hunt
// or lot running with `--status DIR` rewrites its one snapshot file
// (`hunt.status` or `lot.status`) on a wall-clock interval via
// temp-file + rename, so a reader (cichar status / cichar top, a
// dashboard poller) either sees the previous complete snapshot or the
// new complete snapshot — never a torn one. The envelope is the shared
// sealed frame (docs/FORMATS.md, "Binary envelope"):
//
//   magic "CISTAT2\n" | sealed(payload)
//
// and decode refuses truncation, bit flips, and trailing bytes instead
// of half-loading. Snapshots are *out-of-band*: they carry wall-clock
// fields (uptime, per-site elapsed seconds) precisely because they are
// never folded back into reports, checkpoints, or ledgers — the
// invisibility contract (DESIGN.md §16) keeps those byte-identical with
// the feed on or off.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cichar::obs {

inline constexpr std::string_view kStatusMagic = "CISTAT2\n";  // 8 bytes
inline constexpr std::uint32_t kStatusVersion = 2;
/// The previous format's magic (same payload, FNV-1a seal). A reader
/// refuses such a file by name rather than reporting it unreadable.
inline constexpr std::string_view kOlderStatusMagic = "CISTAT1\n";

/// Where a site currently stands in its characterization campaign.
/// Terminal phases (kDone/kQuarantined/kDead) mirror lot::SiteStatus;
/// kTraining/kHunting split the live part at the committee-learning /
/// GA-hunt boundary (the first GA generation tick flips the phase).
enum class SitePhase : std::uint8_t {
    kPending = 0,
    kTraining = 1,
    kHunting = 2,
    kDone = 3,
    kQuarantined = 4,
    kDead = 5,
};

[[nodiscard]] const char* to_string(SitePhase phase) noexcept;
[[nodiscard]] constexpr bool is_terminal(SitePhase phase) noexcept {
    return phase == SitePhase::kDone || phase == SitePhase::kQuarantined ||
           phase == SitePhase::kDead;
}

/// One finished (site, parameter) result distilled for cross-site
/// partial statistics — the live stand-in for a LotReport aggregate row.
struct SiteOutcomeEntry {
    std::string parameter;
    bool found = false;
    double trip_point = 0.0;
    double wcr = 0.0;
    double margin_risk = 0.0;

    [[nodiscard]] bool operator==(const SiteOutcomeEntry&) const = default;
};

/// Live view of one site's campaign.
struct SiteStatusEntry {
    std::uint64_t site = 0;
    SitePhase phase = SitePhase::kPending;
    /// GA generations completed in the site's current hunt.
    std::uint64_t generation = 0;
    /// The hunt's generation budget (0 until the first tick).
    std::uint64_t generations_total = 0;
    std::uint64_t evaluations = 0;
    /// Best WCR seen by the current hunt so far.
    double best_wcr = 0.0;
    std::uint64_t ate_applications = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t inflight = 0;
    /// Wall seconds since the site started (or total, once terminal).
    double elapsed_seconds = 0.0;
    /// Populated when the site reaches a terminal phase.
    std::vector<SiteOutcomeEntry> outcomes;

    [[nodiscard]] bool operator==(const SiteStatusEntry&) const = default;
    [[nodiscard]] double cache_hit_rate() const noexcept {
        const std::uint64_t lookups = cache_hits + cache_misses;
        return lookups == 0 ? 0.0
                            : static_cast<double>(cache_hits) /
                                  static_cast<double>(lookups);
    }
};

/// A run's whole status snapshot.
struct StatusSnapshot {
    std::string kind;         ///< "hunt" | "lot"
    std::string fingerprint;  ///< the campaign's checkpoint fingerprint
    std::uint64_t seed = 0;
    std::uint64_t pid = 0;
    /// Monotonic per-writer counter; a reader can tell two snapshots
    /// apart even when the payload is otherwise unchanged.
    std::uint64_t sequence = 0;
    double uptime_seconds = 0.0;
    std::uint64_t sites_total = 0;
    std::uint64_t policy_retries = 0;
    std::uint64_t policy_interventions = 0;
    /// Sites this run has touched or finished, ascending by site.
    std::vector<SiteStatusEntry> sites;
    /// Wall seconds of every site completed by this run — the ETA
    /// histogram for the run view's per-site estimates.
    std::vector<double> completed_seconds;

    [[nodiscard]] bool operator==(const StatusSnapshot&) const = default;
    [[nodiscard]] std::uint64_t count(SitePhase phase) const noexcept;
    [[nodiscard]] std::uint64_t finished_sites() const noexcept;
    [[nodiscard]] std::uint64_t ate_applications() const noexcept;
    [[nodiscard]] std::uint64_t cache_hits() const noexcept;
    [[nodiscard]] std::uint64_t cache_misses() const noexcept;
};

/// Serializes the snapshot into its checksummed CISTAT2 envelope.
[[nodiscard]] std::string encode_status(const StatusSnapshot& snapshot);

/// Inverse of encode_status. nullopt on bad magic, unsupported version,
/// checksum mismatch, truncation, trailing bytes, or any out-of-range
/// field — a torn or bit-flipped feed file never half-loads. Never
/// throws.
[[nodiscard]] std::optional<StatusSnapshot> decode_status(
    std::string_view contents);

}  // namespace cichar::obs
