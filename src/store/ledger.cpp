#include "store/ledger.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "store/ledger_payloads.hpp"
#include "util/binio.hpp"
#include "util/crash_point.hpp"

namespace fs = std::filesystem;

namespace cichar::store {
namespace {

struct SegmentFile {
    std::uint64_t index = 0;
    fs::path path;
};

/// Segment files of `directory`, ascending by index. Foreign names
/// (quarantine/, temp files, user droppings) are ignored.
std::vector<SegmentFile> list_segments(const fs::path& directory) {
    std::vector<SegmentFile> segments;
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(directory, ec)) {
        if (!entry.is_regular_file()) continue;
        const auto index =
            parse_segment_file_name(entry.path().filename().string());
        if (!index) continue;
        segments.push_back({*index, entry.path()});
    }
    std::sort(segments.begin(), segments.end(),
              [](const SegmentFile& a, const SegmentFile& b) {
                  return a.index < b.index;
              });
    return segments;
}

/// Moves `path`'s bytes into quarantine/ under a fresh name; returns
/// false when the copy could not be made durable.
bool quarantine_file(const fs::path& ledger_dir, const fs::path& path,
                     const std::string& contents) {
    const fs::path quarantine = ledger_dir / "quarantine";
    std::error_code ec;
    fs::create_directories(quarantine, ec);
    if (ec) return false;
    fs::path target = quarantine / path.filename();
    for (int attempt = 1; fs::exists(target); ++attempt) {
        target = quarantine /
                 (path.filename().string() + "." + std::to_string(attempt));
    }
    return util::atomic_write_file(target.string(), contents);
}

/// Re-encodes a scan's surviving records under a fresh header —
/// recovery's repaired segment image.
std::string rebuild_segment(const SegmentScan& scan) {
    std::string out = encode_segment_header(scan.segment_index);
    for (const LedgerRecord& record : scan.records) {
        encode_record(out, record);
    }
    return out;
}

/// Tolerant whole-ledger read used by the offline tools: every valid
/// record in every segment, plus human-readable findings for all the
/// bytes that were not.
struct LedgerScan {
    std::vector<LedgerRecord> records;
    std::vector<std::string> issues;
    std::size_t segments = 0;
};

LedgerScan scan_ledger(const std::string& directory) {
    LedgerScan result;
    if (!fs::is_directory(directory)) {
        result.issues.push_back("not a ledger directory: " + directory);
        return result;
    }
    std::uint64_t last_index = 0;
    bool have_index = false;
    for (const SegmentFile& segment : list_segments(directory)) {
        const std::string name = segment.path.filename().string();
        const auto contents = util::read_file(segment.path.string());
        if (!contents) {
            result.issues.push_back(name + ": unreadable");
            continue;
        }
        ++result.segments;
        const SegmentScan scan = scan_segment(*contents);
        if (!scan.header_ok) {
            result.issues.push_back(
                name + (contents->starts_with(kOlderSegmentMagic)
                            ? ": older ledger format (CILEDG1)"
                            : ": bad segment header"));
            continue;
        }
        if (scan.segment_index != segment.index) {
            result.issues.push_back(
                name + ": header index " +
                std::to_string(scan.segment_index) +
                " does not match the file name");
        }
        if (have_index && scan.segment_index == last_index) {
            result.issues.push_back(name + ": duplicate segment index");
        }
        last_index = scan.segment_index;
        have_index = true;
        if (scan.torn_bytes > 0) {
            result.issues.push_back(name + ": torn tail of " +
                                    std::to_string(scan.torn_bytes) +
                                    " bytes");
        }
        if (scan.corrupt_spans > 0) {
            result.issues.push_back(
                name + ": " + std::to_string(scan.corrupt_spans) +
                " corrupt span(s), " + std::to_string(scan.corrupt_bytes) +
                " bytes");
        }
        result.records.insert(result.records.end(), scan.records.begin(),
                              scan.records.end());
    }
    return result;
}

/// Decodes one record's payload through its type codec; returns the
/// failure message, if any.
std::optional<std::string> payload_issue(const LedgerRecord& record) {
    try {
        switch (record.type) {
            case RecordType::kCampaignBegin:
                (void)decode_campaign_begin(record.payload);
                break;
            case RecordType::kMeasurementSummary:
                (void)decode_measurement_summary(record.payload);
                break;
            case RecordType::kTripRecord:
                (void)decode_trip_record(record.payload);
                break;
            case RecordType::kWorstCaseEntry:
                (void)decode_worst_case_entry(record.payload);
                break;
            case RecordType::kSnapshotRef:
                (void)decode_snapshot_ref(record.payload);
                break;
            case RecordType::kCampaignEnd:
                (void)decode_campaign_end(record.payload);
                break;
        }
    } catch (const std::exception& error) {
        return std::string(error.what());
    }
    return std::nullopt;
}

std::string campaign_hex(std::uint64_t campaign) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (std::size_t i = 0; i < 16; ++i) {
        out[15 - i] = digits[(campaign >> (4 * i)) & 0xF];
    }
    return out;
}

/// Sorts, dedups, and re-packs `records` into `out_directory` — the one
/// canonical byte image of a record multiset (compact and merge share
/// it, which is what makes them comparable).
CompactStats write_canonical(std::vector<LedgerRecord> records,
                             const std::string& out_directory,
                             std::size_t segment_capacity_bytes) {
    CompactStats stats;
    stats.input_records = records.size();
    std::sort(records.begin(), records.end(), record_less);
    records.erase(std::unique(records.begin(), records.end()),
                  records.end());
    stats.output_records = records.size();
    stats.duplicates_dropped = stats.input_records - stats.output_records;

    std::error_code ec;
    fs::create_directories(out_directory, ec);
    if (ec) {
        throw std::runtime_error("ledger compact: cannot create " +
                                 out_directory);
    }
    if (!list_segments(out_directory).empty()) {
        throw std::runtime_error("ledger compact: output " + out_directory +
                                 " already holds segments");
    }

    std::uint64_t index = 0;
    std::string segment = encode_segment_header(index);
    const auto flush = [&]() {
        const fs::path path =
            fs::path(out_directory) / segment_file_name(index);
        if (!util::atomic_write_file(path.string(), segment)) {
            throw std::runtime_error("ledger compact: cannot write " +
                                     path.string());
        }
        ++stats.segments_written;
    };
    for (const LedgerRecord& record : records) {
        std::string encoded;
        encode_record(encoded, record);
        if (segment.size() > kSegmentHeaderSize &&
            segment.size() + encoded.size() > segment_capacity_bytes) {
            flush();
            segment = encode_segment_header(++index);
        }
        segment.append(encoded);
    }
    flush();  // always emit at least seg-000000, even when empty
    return stats;
}

}  // namespace

Ledger Ledger::open(LedgerOptions options) {
    Ledger ledger;
    ledger.options_ = std::move(options);
    const fs::path directory(ledger.options_.directory);
    std::error_code ec;
    fs::create_directories(directory, ec);
    if (ec) {
        throw std::runtime_error("ledger: cannot create directory " +
                                 directory.string());
    }

    // Read every segment before repairing any, so an older-format
    // segment anywhere refuses the open with every file untouched.
    std::vector<std::pair<SegmentFile, std::string>> segments;
    for (SegmentFile& segment : list_segments(directory)) {
        std::optional<std::string> contents =
            util::read_file(segment.path.string());
        if (!contents) {
            throw std::runtime_error("ledger: cannot read " +
                                     segment.path.string());
        }
        if (contents->starts_with(kOlderSegmentMagic)) {
            throw std::runtime_error(
                "ledger: " + segment.path.string() +
                " is in an older ledger format (CILEDG1); this build reads "
                "CILEDG2 only");
        }
        segments.emplace_back(std::move(segment), std::move(*contents));
    }

    bool have_active = false;
    for (const auto& [segment, contents] : segments) {
        const SegmentScan scan = scan_segment(contents);
        if (!scan.header_ok) {
            // Headerless bytes hold no recoverable records; preserve
            // them for forensics and drop the segment.
            if (!quarantine_file(directory, segment.path, contents) ||
                !fs::remove(segment.path, ec) || ec) {
                throw std::runtime_error("ledger: cannot quarantine " +
                                         segment.path.string());
            }
            ++ledger.recovery_.quarantined_segments;
            ledger.recovery_.quarantined_bytes += contents.size();
            continue;
        }
        if (!scan.clean()) {
            if (scan.corrupt_spans > 0) {
                // Bit rot between valid records: keep the original
                // bytes, then rewrite the segment from the survivors.
                if (!quarantine_file(directory, segment.path, contents)) {
                    throw std::runtime_error("ledger: cannot quarantine " +
                                             segment.path.string());
                }
                ledger.recovery_.corrupt_spans += scan.corrupt_spans;
                ledger.recovery_.quarantined_bytes += scan.corrupt_bytes;
            }
            if (scan.torn_bytes > 0) {
                ++ledger.recovery_.torn_tails;
                ledger.recovery_.truncated_bytes += scan.torn_bytes;
            }
            if (!util::atomic_write_file(segment.path.string(),
                                         rebuild_segment(scan))) {
                throw std::runtime_error("ledger: cannot repair " +
                                         segment.path.string());
            }
        }
        ++ledger.recovery_.segments;
        for (const LedgerRecord& record : scan.records) {
            ledger.keys_.insert({record.campaign,
                                 static_cast<std::uint32_t>(record.type),
                                 record.sequence});
            ledger.records_.push_back(record);
        }
        ledger.active_index_ = scan.segment_index;
        ledger.active_path_ = segment.path.string();
        ledger.active_size_ = scan.valid_prefix -
                              (scan.corrupt_spans > 0 ? scan.corrupt_bytes : 0);
        have_active = true;
    }
    ledger.recovery_.records = ledger.records_.size();
    if (!have_active) {
        ledger.rotate_to(0);
        ledger.recovery_.segments = 1;
    }
    return ledger;
}

void Ledger::rotate_to(std::uint64_t segment_index) {
    const fs::path path = fs::path(options_.directory) /
                          segment_file_name(segment_index);
    const std::string header = encode_segment_header(segment_index);
    if (!util::atomic_write_file(path.string(), header)) {
        throw std::runtime_error("ledger: cannot create segment " +
                                 path.string());
    }
    CICHAR_CRASH_POINT("store.ledger.post_rotate");
    active_index_ = segment_index;
    active_path_ = path.string();
    active_size_ = header.size();
}

void Ledger::append(LedgerRecord record) {
    keys_.insert({record.campaign, static_cast<std::uint32_t>(record.type),
                  record.sequence});
    pending_.push_back(std::move(record));
}

bool Ledger::append_if_absent(LedgerRecord record) {
    if (contains(record.campaign, record.type, record.sequence)) return false;
    append(std::move(record));
    return true;
}

bool Ledger::contains(std::uint64_t campaign, RecordType type,
                      std::uint64_t sequence) const noexcept {
    return keys_.count({campaign, static_cast<std::uint32_t>(type),
                        sequence}) != 0;
}

std::size_t Ledger::campaign_records(std::uint64_t campaign) const noexcept {
    const auto first = keys_.lower_bound({campaign, 0, 0});
    const auto last = keys_.upper_bound(
        {campaign, std::numeric_limits<std::uint32_t>::max(),
         std::numeric_limits<std::uint64_t>::max()});
    return static_cast<std::size_t>(std::distance(first, last));
}

void Ledger::commit() {
    if (pending_.empty()) return;
    std::string batch;
    for (const LedgerRecord& record : pending_) {
        encode_record(batch, record);
    }
    if (active_size_ > kSegmentHeaderSize &&
        active_size_ + batch.size() > options_.segment_capacity_bytes) {
        rotate_to(active_index_ + 1);
    }
    CICHAR_CRASH_POINT("store.ledger.pre_commit");
    if (!util::append_file(active_path_, batch, options_.sync)) {
        throw std::runtime_error("ledger: commit failed on " + active_path_);
    }
    CICHAR_CRASH_POINT("store.ledger.post_commit");
    active_size_ += batch.size();
    for (LedgerRecord& record : pending_) {
        records_.push_back(std::move(record));
    }
    pending_.clear();
}

VerifyResult verify_ledger(const std::string& directory) {
    VerifyResult result;
    LedgerScan scan = scan_ledger(directory);
    result.segments = scan.segments;
    result.records = scan.records.size();
    result.issues = std::move(scan.issues);

    struct CampaignTally {
        std::size_t records = 0;
        std::size_t end_markers = 0;
        std::uint64_t declared = 0;
    };
    std::map<std::uint64_t, CampaignTally> campaigns;
    std::set<std::tuple<std::uint64_t, std::uint32_t, std::uint64_t>> keys;
    for (const LedgerRecord& record : scan.records) {
        if (const auto issue = payload_issue(record)) {
            result.issues.push_back(std::string(to_string(record.type)) +
                                    " seq " +
                                    std::to_string(record.sequence) + ": " +
                                    *issue);
        }
        if (!keys.insert({record.campaign,
                          static_cast<std::uint32_t>(record.type),
                          record.sequence})
                 .second) {
            result.issues.push_back(
                "duplicate record key (campaign " +
                campaign_hex(record.campaign) + ", " +
                to_string(record.type) + ", seq " +
                std::to_string(record.sequence) + ")");
        }
        CampaignTally& tally = campaigns[record.campaign];
        ++tally.records;
        if (record.type == RecordType::kCampaignEnd) {
            ++tally.end_markers;
            try {
                tally.declared =
                    decode_campaign_end(record.payload).record_count;
            } catch (const std::exception&) {
                // already reported by payload_issue above
            }
        }
    }
    result.campaigns = campaigns.size();
    for (const auto& [campaign, tally] : campaigns) {
        if (tally.end_markers == 0) continue;
        ++result.complete_campaigns;
        if (tally.end_markers > 1) {
            result.issues.push_back("campaign " + campaign_hex(campaign) +
                                    ": " +
                                    std::to_string(tally.end_markers) +
                                    " end markers");
        } else if (tally.records - 1 != tally.declared) {
            result.issues.push_back(
                "campaign " + campaign_hex(campaign) + ": end marker claims " +
                std::to_string(tally.declared) + " records, found " +
                std::to_string(tally.records - 1));
        }
    }
    result.ok = result.issues.empty();
    return result;
}

std::string inspect_ledger(const std::string& directory) {
    std::ostringstream out;
    std::size_t total_records = 0;
    std::vector<std::string> segment_lines;
    for (const SegmentFile& segment : list_segments(directory)) {
        const auto contents = util::read_file(segment.path.string());
        if (!contents) continue;
        const SegmentScan scan = scan_segment(*contents);
        std::ostringstream line;
        line << "  " << segment.path.filename().string() << "  bytes="
             << contents->size() << " records=" << scan.records.size();
        if (!scan.header_ok) line << " [bad header]";
        if (scan.torn_bytes > 0) line << " [torn=" << scan.torn_bytes << "]";
        if (scan.corrupt_bytes > 0) {
            line << " [corrupt=" << scan.corrupt_bytes << "]";
        }
        segment_lines.push_back(line.str());
        total_records += scan.records.size();
    }
    const LedgerScan scan = scan_ledger(directory);
    out << "ledger " << directory << ": " << segment_lines.size()
        << " segment(s), " << total_records << " record(s)\n";
    for (const std::string& line : segment_lines) out << line << '\n';

    std::map<std::uint64_t, std::map<RecordType, std::size_t>> campaigns;
    std::map<std::uint64_t, std::string> fingerprints;
    for (const LedgerRecord& record : scan.records) {
        ++campaigns[record.campaign][record.type];
        if (record.type == RecordType::kCampaignBegin) {
            try {
                fingerprints[record.campaign] =
                    decode_campaign_begin(record.payload).fingerprint;
            } catch (const std::exception&) {
            }
        }
    }
    for (const auto& [campaign, types] : campaigns) {
        out << "campaign " << campaign_hex(campaign);
        const auto fp = fingerprints.find(campaign);
        if (fp != fingerprints.end()) out << " (" << fp->second << ")";
        out << ":";
        for (const auto& [type, count] : types) {
            out << ' ' << to_string(type) << '=' << count;
        }
        out << (types.count(RecordType::kCampaignEnd) ? " [complete]"
                                                      : " [open]")
            << '\n';
    }
    for (const std::string& issue : scan.issues) {
        out << "issue: " << issue << '\n';
    }
    return out.str();
}

CompactStats compact_ledger(const std::string& directory,
                            const std::string& out_directory,
                            std::size_t segment_capacity_bytes) {
    LedgerScan scan = scan_ledger(directory);
    CompactStats stats = write_canonical(std::move(scan.records),
                                         out_directory,
                                         segment_capacity_bytes);
    stats.issues = std::move(scan.issues);
    return stats;
}

}  // namespace cichar::store
