// Append-only campaign ledger (the durable sink `--ledger DIR` hangs off
// hunt and lot runs). A ledger is a directory of CILEDG1 segment files
// plus an optional quarantine/ subdirectory recovery fills:
//
//   ledger/
//     seg-000000.ledg        sealed segments, never rewritten
//     seg-000001.ledg        the active tail, fsync'd group commits
//     quarantine/            originals of segments recovery had to repair
//
// Writes are group commits: append() buffers records, commit() encodes
// the batch, appends it to the active segment with one write + fsync,
// and rotates to a fresh segment when the active one is full. A crash
// at any instant therefore loses at most the uncommitted batch and can
// tear only the final record of the file — exactly what recovery
// repairs.
//
// Ledger::open() runs recovery: every segment is scanned
// (store::scan_segment); a torn tail is truncated back to the last valid
// record, and a segment with corrupt *middles* (bit rot between valid
// records) has its original bytes preserved under quarantine/ before the
// segment is rewritten from its surviving records. Open always yields a
// ledger that verify_ledger() passes.
//
// Byte-identity contract: records are keyed (campaign, type, sequence)
// with producer-assigned deterministic sequences, so compact_ledger() —
// sort by record_less, drop exact duplicates, re-pack into
// fixed-capacity segments — maps any append interleaving or
// crash/resume history of the same campaign to the same output bytes.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "store/ledger_format.hpp"

namespace cichar::store {

struct LedgerOptions {
    std::string directory;
    /// Rotate the active segment once its size reaches this many bytes.
    /// Compaction packs output segments against the same capacity, so
    /// every ledger of one deployment splits identically.
    std::size_t segment_capacity_bytes = 1ULL << 20;
    /// fsync every commit (the durability point). Tests may turn this
    /// off for speed; the CLI never does.
    bool sync = true;
};

/// What Ledger::open() found and repaired.
struct RecoveryStats {
    std::size_t segments = 0;         ///< segments surviving recovery
    std::size_t records = 0;          ///< valid records loaded
    std::size_t torn_tails = 0;       ///< segments truncated
    std::size_t truncated_bytes = 0;  ///< torn bytes removed
    std::size_t corrupt_spans = 0;    ///< quarantined middle spans
    std::size_t quarantined_bytes = 0;
    /// Segments whose header was unreadable; moved wholesale to
    /// quarantine/ (their records are unrecoverable).
    std::size_t quarantined_segments = 0;

    [[nodiscard]] bool clean() const noexcept {
        return torn_tails == 0 && corrupt_spans == 0 &&
               quarantined_segments == 0;
    }
};

class Ledger {
public:
    /// Opens (creating if needed) the ledger directory and runs
    /// recovery. Throws std::runtime_error when the directory cannot be
    /// created or a repair write fails.
    [[nodiscard]] static Ledger open(LedgerOptions options);

    /// Buffers a record for the next commit().
    void append(LedgerRecord record);

    /// Buffers `record` unless its (campaign, type, sequence) key is
    /// already committed or pending; returns whether it was added.
    /// Resume paths lean on this to re-offer every record idempotently.
    bool append_if_absent(LedgerRecord record);

    /// Group-commits the buffered records: one append + fsync on the
    /// active segment, rotating first when it is full. No-op when the
    /// buffer is empty. Throws std::runtime_error when the write fails
    /// (buffered records stay pending).
    void commit();

    [[nodiscard]] const RecoveryStats& recovery() const noexcept {
        return recovery_;
    }
    [[nodiscard]] const std::vector<LedgerRecord>& records() const noexcept {
        return records_;
    }
    [[nodiscard]] std::size_t pending() const noexcept {
        return pending_.size();
    }
    [[nodiscard]] bool contains(std::uint64_t campaign, RecordType type,
                                std::uint64_t sequence) const noexcept;
    /// Committed + pending records keyed to `campaign` (what a campaign
    /// end marker should declare).
    [[nodiscard]] std::size_t campaign_records(
        std::uint64_t campaign) const noexcept;
    [[nodiscard]] const std::string& directory() const noexcept {
        return options_.directory;
    }

private:
    Ledger() = default;

    void rotate_to(std::uint64_t segment_index);

    LedgerOptions options_;
    RecoveryStats recovery_;
    std::vector<LedgerRecord> records_;  ///< committed, append order
    std::set<std::tuple<std::uint64_t, std::uint32_t, std::uint64_t>> keys_;
    std::vector<LedgerRecord> pending_;
    std::uint64_t active_index_ = 0;
    std::string active_path_;
    std::size_t active_size_ = 0;
};

// ---------------------------------------------------------------------
// Offline tools (cichar ledger verify | inspect | compact). All
// read-only except the compact output.

/// Strict integrity check result.
struct VerifyResult {
    bool ok = false;
    std::size_t segments = 0;
    std::size_t records = 0;
    std::size_t campaigns = 0;
    std::size_t complete_campaigns = 0;  ///< campaigns with an end marker
    /// Human-readable findings; empty iff ok.
    std::vector<std::string> issues;
};

/// Verifies every segment scans clean (no torn tail, no corrupt span,
/// indices unique and matching file names), every payload decodes, and
/// every end-marked campaign's record count matches its marker.
[[nodiscard]] VerifyResult verify_ledger(const std::string& directory);

/// Rendered multi-line summary: per-segment byte/record counts, then
/// per-campaign record-type totals.
[[nodiscard]] std::string inspect_ledger(const std::string& directory);

struct CompactStats {
    std::size_t input_records = 0;
    std::size_t output_records = 0;
    std::size_t duplicates_dropped = 0;
    std::size_t segments_written = 0;
    /// Findings from tolerant input scans (torn/corrupt bytes skipped).
    std::vector<std::string> issues;
};

/// Canonically rewrites `directory` into `out_directory`: tolerant scan,
/// sort by record_less, drop exact duplicates, re-pack. Throws
/// std::runtime_error when the output cannot be written or is non-empty.
CompactStats compact_ledger(const std::string& directory,
                            const std::string& out_directory,
                            std::size_t segment_capacity_bytes = 1ULL << 20);

}  // namespace cichar::store
