// Rendering layer of the live status feed: read a run directory's one
// `*.status` snapshot (`hunt.status` or `lot.status`, optionally with a
// read-only tail of the campaign ledger) and derive the signals the
// snapshot does not carry: per-site ETA from the completed-site duration
// histogram, stalled detection on the snapshot mtime, partial
// per-parameter statistics, and anomaly flags (quarantine spike,
// WCR-outlier site vs. the running lot median). Strictly read-only: the
// ledger tail uses the non-mutating segment scanner (never Ledger::open,
// whose recovery truncates torn tails). Backs `cichar status DIR` and
// `cichar top`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/status_format.hpp"
#include "util/statistics.hpp"

namespace cichar::obs {

/// An unfinished run whose snapshot file has not advanced for this long
/// is flagged stalled.
inline constexpr double kStallAfterSeconds = 30.0;

/// One site of the snapshot plus its derived ETA.
struct SiteView {
    SiteStatusEntry entry;
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

struct RunView {
    std::string directory;
    /// The snapshot file read; empty when the directory holds none yet
    /// (then `snapshot` is default and every count is zero).
    std::string snapshot_path;
    StatusSnapshot snapshot;
    double age_seconds = 0.0;
    bool stalled = false;

    std::vector<SiteView> sites;  ///< the snapshot's sites, in its order
    std::vector<ParameterPartial> partials;
    std::vector<std::string> anomalies;
    std::vector<LedgerTailEntry> ledger_tail;
};

/// Every `*.status` file directly in `directory`, sorted; none when the
/// directory does not exist yet.
[[nodiscard]] std::vector<std::filesystem::path> status_files(
    const std::string& directory);

/// Reads the one `*.status` snapshot in `directory` and, when
/// `ledger_dir` is not empty, a read-only tail of that ledger. A missing
/// or empty directory yields an empty view and a snapshot that fails to
/// decode an anomaly; throws std::runtime_error when the directory holds
/// two or more snapshots (one `--status` directory per run) or a
/// snapshot in the older CISTAT1 format.
[[nodiscard]] RunView read_run_status(const std::string& directory,
                                      const std::string& ledger_dir = {});

/// One-shot human-readable rendering (cichar status DIR).
[[nodiscard]] std::string render_run_text(const RunView& view);

/// Machine-readable rendering (cichar status DIR --json).
[[nodiscard]] std::string render_run_json(const RunView& view);

/// One frame of the live view (cichar top DIR): title and progress bar
/// above the text rendering.
[[nodiscard]] std::string render_run_top(const RunView& view);

}  // namespace cichar::obs
