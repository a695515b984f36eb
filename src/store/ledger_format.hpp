// On-disk format of the append-only campaign ledger (log-structured, in
// the ZNS spirit: fixed-header segments of length-prefixed, checksummed
// records; the only mutation ever applied to a sealed byte is recovery
// truncating a torn tail).
//
// Segment file ("seg-000000.ledg", "seg-000001.ledg", ...):
//
//   magic "CILEDG2\n" (8) | u32 version | u64 segment_index      [20 bytes]
//   record*                                                      [append-only]
//
// Record: u32 record magic "CILR" | sealed(28 + payload_size), the
// sealed frame (util::put_sealed) holding
//
//   u32 type | u64 campaign | u64 sequence | u64 payload_size | payload
//
// followed by its u64 seal64 (40 bytes of framing in all). A CILEDG1
// segment (the same layout under an FNV-1a seal) is refused by name:
// read under the new seal, every record would look torn.
//
// `campaign` is checksum64 of the producing run's fingerprint string, so
// one ledger directory can interleave many campaigns and a reader can
// still do exact (campaign, type, sequence) lookups. `sequence` is
// assigned by the producer deterministically (site/entry indices, not
// wall clock), which is what makes compaction canonical: sorting the
// record set yields the same bytes no matter how commits interleaved or
// how often a run was killed and resumed.
//
// The recovery scan walks records in order. A record that fails its
// checksum (or frames an implausible length) is skipped and the scanner
// resynchronizes on the next record magic; bad bytes *followed by* a
// valid record are a corrupt middle (quarantined), bad bytes running to
// end-of-file are a torn tail (truncated to the last valid record).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cichar::store {

inline constexpr std::string_view kSegmentMagic = "CILEDG2\n";  // 8 bytes
inline constexpr std::uint32_t kLedgerVersion = 2;
/// The previous segment format's magic.
inline constexpr std::string_view kOlderSegmentMagic = "CILEDG1\n";
inline constexpr std::uint32_t kRecordMagic = 0x524C4943;  // "CILR" LE
inline constexpr std::size_t kSegmentHeaderSize = 20;
/// Record bytes before the payload (magic, type, campaign, sequence,
/// payload size).
inline constexpr std::size_t kRecordHeaderSize = 32;
/// Anything framed longer than this is treated as corruption.
inline constexpr std::uint64_t kMaxRecordPayload = 1ULL << 26;

/// Typed payloads carried by the ledger (docs/FORMATS.md has each
/// payload's schema).
enum class RecordType : std::uint32_t {
    kCampaignBegin = 1,    ///< fingerprint + seed, sequence 0
    kMeasurementSummary = 2,  ///< one phase's tester cost counters
    kTripRecord = 3,       ///< measured trip point of one (site, parameter)
    kWorstCaseEntry = 4,   ///< worst-case test database entry
    kSnapshotRef = 5,      ///< checksummed pointer to a sidecar artifact
    kCampaignEnd = 6,      ///< campaign completed; record count inside
};

[[nodiscard]] const char* to_string(RecordType type) noexcept;
[[nodiscard]] bool is_valid_record_type(std::uint32_t raw) noexcept;

/// One ledger record, fully decoded.
struct LedgerRecord {
    RecordType type = RecordType::kCampaignBegin;
    std::uint64_t campaign = 0;  ///< checksum64(campaign fingerprint)
    std::uint64_t sequence = 0;  ///< producer-assigned, deterministic
    std::string payload;

    [[nodiscard]] bool operator==(const LedgerRecord&) const = default;
};

/// Canonical compaction order: (campaign, sequence, type, payload).
/// Strict-weak and total over distinct records, so any multiset of
/// records has exactly one sorted byte image.
[[nodiscard]] bool record_less(const LedgerRecord& a,
                               const LedgerRecord& b) noexcept;

/// Serializes the 20-byte segment header.
[[nodiscard]] std::string encode_segment_header(std::uint64_t segment_index);

/// Appends one encoded record to `out`.
void encode_record(std::string& out, const LedgerRecord& record);

/// Scan result for one segment's bytes.
struct SegmentScan {
    bool header_ok = false;
    std::uint64_t segment_index = 0;
    std::vector<LedgerRecord> records;
    /// Byte length of the valid prefix (header + every record up to and
    /// including the last valid one, with any quarantined middles still
    /// counted — this is the truncation point for torn-tail recovery).
    std::size_t valid_prefix = 0;
    /// Bytes after `valid_prefix` (a torn tail when > 0).
    std::size_t torn_bytes = 0;
    /// Corrupt bytes *between* valid records (quarantined middles).
    std::size_t corrupt_bytes = 0;
    /// Distinct corrupt spans skipped by the resynchronizing scanner.
    std::size_t corrupt_spans = 0;

    [[nodiscard]] bool clean() const noexcept {
        return header_ok && torn_bytes == 0 && corrupt_bytes == 0;
    }
};

/// Walks `contents` (one whole segment file). Never throws; every
/// malformed byte lands in torn_bytes or corrupt_bytes.
[[nodiscard]] SegmentScan scan_segment(std::string_view contents);

/// "seg-000042.ledg" for index 42.
[[nodiscard]] std::string segment_file_name(std::uint64_t segment_index);

/// Inverse of segment_file_name; nullopt for foreign names.
[[nodiscard]] std::optional<std::uint64_t> parse_segment_file_name(
    std::string_view name);

}  // namespace cichar::store
