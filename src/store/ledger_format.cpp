#include "store/ledger_format.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>

#include "util/binio.hpp"

namespace cichar::store {
namespace {

/// The 4 magic bytes as they appear in the file (little-endian u32).
std::string record_magic_bytes() {
    std::string m;
    util::put_u32(m, kRecordMagic);
    return m;
}

/// Parses the record starting at `at` (which holds at least a record
/// header). nullopt when the magic, type or length is implausible, the
/// frame runs off the end, or the checksum fails.
std::optional<LedgerRecord> parse_record(std::string_view at) {
    try {
        util::ByteReader in(at);
        if (in.get_u32() != kRecordMagic) return std::nullopt;
        // The sealed frame starts with the header that sizes it: peek at
        // it, then let get_sealed verify the whole frame.
        util::ByteReader header = in;
        const std::uint32_t raw_type = header.get_u32();
        LedgerRecord record;
        record.campaign = header.get_u64();
        record.sequence = header.get_u64();
        const std::uint64_t payload_size = header.get_u64();
        if (!is_valid_record_type(raw_type) ||
            payload_size > kMaxRecordPayload) {
            return std::nullopt;
        }
        const std::string_view body =
            in.get_sealed(kRecordHeaderSize - 4 + payload_size);
        record.type = static_cast<RecordType>(raw_type);
        record.payload = std::string(body.substr(kRecordHeaderSize - 4));
        return record;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

}  // namespace

const char* to_string(RecordType type) noexcept {
    switch (type) {
        case RecordType::kCampaignBegin: return "campaign-begin";
        case RecordType::kMeasurementSummary: return "measurement-summary";
        case RecordType::kTripRecord: return "trip-record";
        case RecordType::kWorstCaseEntry: return "worst-case-entry";
        case RecordType::kSnapshotRef: return "snapshot-ref";
        case RecordType::kCampaignEnd: return "campaign-end";
    }
    return "?";
}

bool is_valid_record_type(std::uint32_t raw) noexcept {
    return raw >= static_cast<std::uint32_t>(RecordType::kCampaignBegin) &&
           raw <= static_cast<std::uint32_t>(RecordType::kCampaignEnd);
}

bool record_less(const LedgerRecord& a, const LedgerRecord& b) noexcept {
    if (a.campaign != b.campaign) return a.campaign < b.campaign;
    if (a.sequence != b.sequence) return a.sequence < b.sequence;
    if (a.type != b.type) return a.type < b.type;
    return a.payload < b.payload;
}

std::string encode_segment_header(std::uint64_t segment_index) {
    std::string out;
    out.reserve(kSegmentHeaderSize);
    out.append(kSegmentMagic);
    util::put_u32(out, kLedgerVersion);
    util::put_u64(out, segment_index);
    return out;
}

void encode_record(std::string& out, const LedgerRecord& record) {
    std::string body;
    body.reserve(kRecordHeaderSize - 4 + record.payload.size());
    util::put_u32(body, static_cast<std::uint32_t>(record.type));
    util::put_u64(body, record.campaign);
    util::put_u64(body, record.sequence);
    util::put_u64(body, record.payload.size());
    body.append(record.payload);
    util::put_u32(out, kRecordMagic);
    util::put_sealed(out, body);
}

SegmentScan scan_segment(std::string_view contents) {
    SegmentScan scan;
    try {
        util::ByteReader header(contents);
        header.expect_magic(kSegmentMagic);
        if (header.get_u32() != kLedgerVersion) {
            throw std::runtime_error("ledger: unsupported segment version");
        }
        scan.segment_index = header.get_u64();
    } catch (const std::exception&) {
        // Unrecognizable header: the whole file is one torn span.
        scan.torn_bytes = contents.size();
        return scan;
    }
    scan.header_ok = true;
    scan.valid_prefix = kSegmentHeaderSize;

    const std::string magic = record_magic_bytes();
    std::size_t pos = kSegmentHeaderSize;
    std::size_t bad_start = std::string_view::npos;  // open corrupt span

    while (pos < contents.size()) {
        if (contents.size() - pos < kRecordHeaderSize) break;
        std::optional<LedgerRecord> record = parse_record(contents.substr(pos));
        if (record) {
            if (bad_start != std::string_view::npos) {
                scan.corrupt_bytes += pos - bad_start;
                ++scan.corrupt_spans;
                bad_start = std::string_view::npos;
            }
            pos += kRecordHeaderSize + record->payload.size() + 8;
            scan.valid_prefix = pos;
            scan.records.push_back(std::move(*record));
            continue;
        }
        if (bad_start == std::string_view::npos) bad_start = pos;
        // Resynchronize on the next record magic; a flipped length or
        // type only loses one record, not the segment. A well-formed
        // header whose frame runs off the end (the classic torn group
        // commit) resynchronizes too, since its length field may be the
        // corrupt byte; when no later record parses it ends as a tail.
        pos = contents.find(magic, pos + 1);
        if (pos == std::string_view::npos) break;
    }
    // Everything after the last valid record — an open corrupt span
    // included — runs to end-of-file, so it is a torn tail, not a
    // quarantinable middle.
    scan.torn_bytes = contents.size() - scan.valid_prefix;
    return scan;
}

std::string segment_file_name(std::uint64_t segment_index) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "seg-%06llu.ledg",
                  static_cast<unsigned long long>(segment_index));
    return buffer;
}

std::optional<std::uint64_t> parse_segment_file_name(std::string_view name) {
    if (name.size() != 15 || name.substr(0, 4) != "seg-" ||
        name.substr(10) != ".ledg") {
        return std::nullopt;
    }
    std::uint64_t index = 0;
    for (std::size_t i = 4; i < 10; ++i) {
        const char c = name[i];
        if (c < '0' || c > '9') return std::nullopt;
        index = index * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return index;
}

}  // namespace cichar::store
