// Process-wide collection point for the live campaign status feed.
// Default-off, telemetry-style: producers (the lot runner, the optimizer
// progress hook, the CLI) guard every post with status_enabled(), so a
// run without --status takes one relaxed atomic load per call site and
// never touches the board's mutex. With the feed on, posts only update
// this out-of-band model — no RNG draws, no result mutation — so
// reports, checkpoints, trip caches, and ledgers stay byte-identical
// with the feed on or off (the invisibility contract, DESIGN.md §16).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <map>
#include <string>
#include <vector>

#include "obs/status_format.hpp"

namespace cichar::obs {

/// Master switch for the status feed (off by default).
[[nodiscard]] bool status_enabled() noexcept;
void set_status_enabled(bool enabled) noexcept;

/// Per-generation progress posted by the optimizer hook. Field-for-field
/// mirror of core::HuntProgress, restated here so obs stays below core
/// in the layering (core never links obs; the lot runner and the CLI
/// translate).
struct GenerationPost {
    std::uint64_t generation = 0;         ///< generations completed
    std::uint64_t generations_total = 0;  ///< the hunt's budget
    std::uint64_t evaluations = 0;
    double best_wcr = 0.0;
    std::uint64_t ate_applications = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t inflight = 1;
};

class StatusBoard {
public:
    [[nodiscard]] static StatusBoard& instance();

    /// Starts (or restarts) the campaign this process reports on.
    /// Resets all per-site state; the uptime clock starts here.
    void begin_campaign(std::string kind, std::string fingerprint,
                        std::uint64_t seed, std::size_t sites_total);

    /// A site entered its live phase: `phase` is kTraining for a site
    /// that learns first, kHunting for one that hunts with a committee
    /// learned elsewhere (a lot's sites other than its reference).
    void begin_site(std::size_t site, SitePhase phase = SitePhase::kTraining);

    /// One GA generation finished for `site`; flips the site to
    /// kHunting on the first tick.
    void post_generation(std::size_t site, const GenerationPost& post);

    /// A site reached a terminal phase. `seconds` is the site's wall
    /// time (kept for the ETA histogram unless `restored`, which marks
    /// sites inherited from a resume checkpoint — they cost this run
    /// nothing). Policy tallies accumulate campaign-wide.
    void site_finished(std::size_t site, SitePhase phase,
                       std::vector<SiteOutcomeEntry> outcomes, double seconds,
                       std::uint64_t policy_retries,
                       std::uint64_t policy_interventions,
                       bool restored = false);

    /// Consistent point-in-time copy; running sites get their elapsed
    /// wall seconds filled in. `sequence` increments per call.
    [[nodiscard]] StatusSnapshot snapshot();

    /// Drops all state (unit tests share the process-wide instance).
    void reset_for_test();

private:
    StatusBoard() = default;

    struct SiteCell {
        SiteStatusEntry entry;
        std::chrono::steady_clock::time_point started{};
        bool running = false;
    };

    mutable std::mutex mutex_;
    std::string kind_;
    std::string fingerprint_;
    std::uint64_t seed_ = 0;
    std::uint64_t sites_total_ = 0;
    std::uint64_t policy_retries_ = 0;
    std::uint64_t policy_interventions_ = 0;
    std::uint64_t sequence_ = 0;
    std::chrono::steady_clock::time_point campaign_start_{};
    std::map<std::size_t, SiteCell> sites_;
    std::vector<double> completed_seconds_;
};

}  // namespace cichar::obs
