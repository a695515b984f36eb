#include "store/ledger_format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/binio.hpp"

namespace cichar::store {
namespace {

LedgerRecord make_record(std::uint64_t sequence, const std::string& payload) {
    LedgerRecord record;
    record.type = RecordType::kTripRecord;
    record.campaign = 0xC0FFEEULL;
    record.sequence = sequence;
    record.payload = payload;
    return record;
}

/// Header + three records: the canonical fixture every corruption test
/// mutates.
std::string three_record_segment(std::vector<LedgerRecord>* out = nullptr) {
    std::string bytes = encode_segment_header(7);
    std::vector<LedgerRecord> records = {
        make_record(0, "alpha payload"),
        make_record(1, std::string(64, '\xAB')),
        make_record(2, ""),
    };
    for (const LedgerRecord& r : records) encode_record(bytes, r);
    if (out != nullptr) *out = std::move(records);
    return bytes;
}

TEST(LedgerFormatTest, SegmentHeaderLayout) {
    const std::string header = encode_segment_header(0x0102030405060708ULL);
    ASSERT_EQ(header.size(), kSegmentHeaderSize);
    EXPECT_EQ(header.substr(0, 8), kSegmentMagic);
    // u32 version, little-endian.
    EXPECT_EQ(static_cast<unsigned char>(header[8]), kLedgerVersion);
    // u64 segment index, little-endian.
    EXPECT_EQ(static_cast<unsigned char>(header[12]), 0x08);
    EXPECT_EQ(static_cast<unsigned char>(header[19]), 0x01);
}

TEST(LedgerFormatTest, EncodeScanRoundTrip) {
    std::vector<LedgerRecord> original;
    const std::string bytes = three_record_segment(&original);

    const SegmentScan scan = scan_segment(bytes);
    EXPECT_TRUE(scan.clean());
    EXPECT_TRUE(scan.header_ok);
    EXPECT_EQ(scan.segment_index, 7u);
    EXPECT_EQ(scan.records, original);
    EXPECT_EQ(scan.valid_prefix, bytes.size());
    EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST(LedgerFormatTest, EmptySegmentScansClean) {
    const SegmentScan scan = scan_segment(encode_segment_header(3));
    EXPECT_TRUE(scan.clean());
    EXPECT_EQ(scan.segment_index, 3u);
    EXPECT_TRUE(scan.records.empty());
}

TEST(LedgerFormatTest, BadHeaderRejected) {
    std::string bytes = three_record_segment();
    bytes[0] ^= 0x01;
    const SegmentScan scan = scan_segment(bytes);
    EXPECT_FALSE(scan.header_ok);
    EXPECT_FALSE(scan.clean());
    EXPECT_TRUE(scan.records.empty());

    // Too short for even a header.
    EXPECT_FALSE(scan_segment(kSegmentMagic).header_ok);
    EXPECT_FALSE(scan_segment("").header_ok);
}

TEST(LedgerFormatTest, TornTailTruncatesToLastValidRecord) {
    std::vector<LedgerRecord> original;
    const std::string bytes = three_record_segment(&original);

    // Cut inside the final (empty-payload) record: 40 bytes of framing.
    const std::string torn = bytes.substr(0, bytes.size() - 17);
    const SegmentScan scan = scan_segment(torn);
    EXPECT_TRUE(scan.header_ok);
    EXPECT_FALSE(scan.clean());
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0], original[0]);
    EXPECT_EQ(scan.records[1], original[1]);
    EXPECT_EQ(scan.valid_prefix, torn.size() - scan.torn_bytes);
    EXPECT_GT(scan.torn_bytes, 0u);
    EXPECT_EQ(scan.corrupt_bytes, 0u);
}

// Fuzz-style: every truncated prefix must scan without throwing, keep
// only fully-valid records, and account every byte to valid_prefix +
// torn_bytes.
TEST(LedgerFormatTest, EveryTruncatedPrefixAccountsAllBytes) {
    std::vector<LedgerRecord> original;
    const std::string bytes = three_record_segment(&original);
    for (std::size_t cut = kSegmentHeaderSize; cut < bytes.size(); ++cut) {
        const SegmentScan scan = scan_segment(bytes.substr(0, cut));
        ASSERT_TRUE(scan.header_ok) << "cut " << cut;
        ASSERT_LE(scan.records.size(), original.size()) << "cut " << cut;
        for (std::size_t i = 0; i < scan.records.size(); ++i) {
            ASSERT_EQ(scan.records[i], original[i]) << "cut " << cut;
        }
        ASSERT_EQ(scan.valid_prefix + scan.torn_bytes, cut) << "cut " << cut;
        ASSERT_EQ(scan.corrupt_bytes, 0u) << "cut " << cut;
    }
}

TEST(LedgerFormatTest, CorruptMiddleResynchronizesOnNextRecord) {
    std::vector<LedgerRecord> original;
    std::string bytes = three_record_segment(&original);

    // Flip one payload byte of the middle record: the scanner must skip
    // it, resync on record 2's magic, and report one corrupt span.
    const std::size_t first_size = kSegmentHeaderSize + kRecordHeaderSize +
                                   original[0].payload.size() + 8;
    bytes[first_size + kRecordHeaderSize + 5] ^= 0x40;

    const SegmentScan scan = scan_segment(bytes);
    EXPECT_FALSE(scan.clean());
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0], original[0]);
    EXPECT_EQ(scan.records[1], original[2]);
    EXPECT_EQ(scan.corrupt_spans, 1u);
    EXPECT_GT(scan.corrupt_bytes, 0u);
    EXPECT_EQ(scan.torn_bytes, 0u);
    EXPECT_EQ(scan.valid_prefix, bytes.size());
}

// Fuzz-style: a single flipped bit anywhere in the record region always
// invalidates exactly the record it lands in; the others survive.
TEST(LedgerFormatTest, EveryByteFlipLosesExactlyOneRecord) {
    std::vector<LedgerRecord> original;
    const std::string bytes = three_record_segment(&original);
    for (std::size_t pos = kSegmentHeaderSize; pos < bytes.size(); ++pos) {
        std::string flipped = bytes;
        flipped[pos] ^= 0x10;
        const SegmentScan scan = scan_segment(flipped);
        ASSERT_FALSE(scan.clean()) << "flip at " << pos;
        ASSERT_EQ(scan.records.size(), original.size() - 1)
            << "flip at " << pos;
        for (const LedgerRecord& r : scan.records) {
            ASSERT_NE(std::find(original.begin(), original.end(), r),
                      original.end())
                << "flip at " << pos;
        }
    }
}

TEST(LedgerFormatTest, ImplausiblePayloadLengthIsCorruptionNotAllocation) {
    std::string bytes = encode_segment_header(0);
    LedgerRecord record = make_record(0, "x");
    encode_record(bytes, record);
    // Rewrite the payload-size field (offset 24 in the record) to a size
    // beyond kMaxRecordPayload; the scanner must flag it, not allocate.
    const std::size_t size_offset = kSegmentHeaderSize + 24;
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[size_offset + i] = '\xFF';
    }
    const SegmentScan scan = scan_segment(bytes);
    EXPECT_FALSE(scan.clean());
    EXPECT_TRUE(scan.records.empty());
}

TEST(LedgerFormatTest, RecordLessIsCanonicalOrder) {
    LedgerRecord a = make_record(1, "p");
    LedgerRecord b = make_record(2, "p");
    EXPECT_TRUE(record_less(a, b));
    EXPECT_FALSE(record_less(b, a));

    // Campaign dominates sequence.
    LedgerRecord c = b;
    c.campaign = a.campaign - 1;
    EXPECT_TRUE(record_less(c, a));

    // Equal records are unordered (strict-weak irreflexivity).
    EXPECT_FALSE(record_less(a, a));

    // Type breaks sequence ties.
    LedgerRecord d = a;
    d.type = RecordType::kCampaignEnd;
    EXPECT_TRUE(record_less(a, d));
}

TEST(LedgerFormatTest, RecordTypeNamesAndValidation) {
    EXPECT_STREQ(to_string(RecordType::kCampaignBegin), "campaign-begin");
    EXPECT_STREQ(to_string(RecordType::kCampaignEnd), "campaign-end");
    EXPECT_TRUE(is_valid_record_type(1));
    EXPECT_TRUE(is_valid_record_type(6));
    EXPECT_FALSE(is_valid_record_type(0));
    EXPECT_FALSE(is_valid_record_type(7));
}

TEST(LedgerFormatTest, SegmentFileNameRoundTrip) {
    EXPECT_EQ(segment_file_name(0), "seg-000000.ledg");
    EXPECT_EQ(segment_file_name(42), "seg-000042.ledg");
    EXPECT_EQ(parse_segment_file_name("seg-000042.ledg"), 42u);
    EXPECT_EQ(parse_segment_file_name("seg-000000.ledg"), 0u);
    EXPECT_FALSE(parse_segment_file_name("seg-00004.ledg").has_value());
    EXPECT_FALSE(parse_segment_file_name("seg-0000xx.ledg").has_value());
    EXPECT_FALSE(parse_segment_file_name("other.txt").has_value());
    EXPECT_FALSE(parse_segment_file_name("").has_value());
}

}  // namespace
}  // namespace cichar::store
