// Fusion + rendering layer of the fleet observatory: walk a run
// directory (per-worker `*.status` snapshots, optionally a read-only
// tail of a campaign ledger) and fuse everything into one coherent model
// with derived signals — per-site ETA from the completed-site duration
// histogram, stalled detection on the snapshot mtime, and anomaly flags
// (quarantine spike, WCR-outlier site vs. the running lot median).
// Strictly read-only and tolerant: torn snapshots are counted and
// skipped, and the ledger tail uses the non-mutating segment scanner
// (never Ledger::open, whose recovery truncates torn tails). Backs
// `cichar status DIR` and `cichar top`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/status_format.hpp"
#include "util/statistics.hpp"

namespace cichar::obs {

struct FleetViewOptions {
    /// A worker whose snapshot file has not advanced for this long —
    /// while its campaign is still unfinished — is flagged stalled.
    double stall_after_seconds = 30.0;
    /// Read-only campaign ledger to tail for live trip records (empty =
    /// no ledger column).
    std::string ledger_dir;
};

/// One worker's decoded snapshot plus file-level freshness.
struct WorkerView {
    std::string name;  ///< snapshot file stem ("hunt", "lot", ...)
    double age_seconds = 0.0;
    bool stalled = false;
    StatusSnapshot snapshot;
};

/// A site fused across workers (on a stale duplicate the terminal /
/// furthest-along entry wins).
struct SiteView {
    SiteStatusEntry entry;
    std::string worker;
    /// Estimated wall seconds to completion; < 0 when unknown.
    double eta_seconds = -1.0;
};

/// Cross-site partial statistics for one parameter over the finished
/// sites — the live stand-in for a LotReport ParameterAggregate.
struct ParameterPartial {
    std::string parameter;
    std::size_t sites = 0;  ///< finished sites with a found trip point
    util::Summary trip{};
    util::Summary wcr{};
    double trip_spread = 0.0;  ///< max - min trip point
    std::vector<std::uint64_t> outlier_sites;
};

/// One live trip record from the read-only ledger tail.
struct LedgerTailEntry {
    std::uint64_t site = 0;
    std::string parameter;
    double trip_point = 0.0;
    double wcr = 0.0;
    double margin_risk = 0.0;
};

struct FleetModel {
    std::string directory;
    std::vector<WorkerView> workers;
    std::size_t torn_snapshots = 0;

    std::vector<SiteView> sites;  ///< ascending by site index
    std::uint64_t sites_total = 0;
    std::uint64_t sites_done = 0;
    std::uint64_t sites_quarantined = 0;
    std::uint64_t sites_dead = 0;
    std::uint64_t sites_running = 0;

    std::uint64_t ate_applications = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t policy_retries = 0;
    std::uint64_t policy_interventions = 0;

    std::vector<ParameterPartial> partials;
    std::vector<std::string> anomalies;
    std::vector<LedgerTailEntry> ledger_tail;

    [[nodiscard]] std::uint64_t finished_sites() const noexcept {
        return sites_done + sites_quarantined + sites_dead;
    }
    [[nodiscard]] double cache_hit_rate() const noexcept {
        const std::uint64_t lookups = cache_hits + cache_misses;
        return lookups == 0 ? 0.0
                            : static_cast<double>(cache_hits) /
                                  static_cast<double>(lookups);
    }
};

/// Walks `directory` and fuses everything found there. Never throws on
/// corrupt or missing inputs (they degrade the model instead); throws
/// std::runtime_error on a snapshot in the older CISTAT1 format, which
/// is not corrupt but unreadable by this build.
[[nodiscard]] FleetModel fuse_run_directory(const std::string& directory,
                                            const FleetViewOptions& options =
                                                FleetViewOptions{});

/// One-shot human-readable rendering (cichar status DIR).
[[nodiscard]] std::string render_fleet_text(const FleetModel& model);

/// Machine-readable rendering (cichar status DIR --json).
[[nodiscard]] std::string render_fleet_json(const FleetModel& model);

/// One frame of the live view (cichar top DIR): progress bar + tables.
[[nodiscard]] std::string render_fleet_top(const FleetModel& model);

}  // namespace cichar::obs
