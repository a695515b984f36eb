#include "store/ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "store/ledger_payloads.hpp"
#include "util/binio.hpp"

namespace cichar::store {
namespace {

namespace fs = std::filesystem;

class LedgerTest : public testing::Test {
protected:
    void SetUp() override {
        root_ = testing::TempDir() + "ledger_" +
                testing::UnitTest::GetInstance()->current_test_info()->name();
        fs::remove_all(root_);
        util::set_write_fault(std::nullopt);
    }

    void TearDown() override { util::set_write_fault(std::nullopt); }

    LedgerOptions options(const std::string& sub = "L",
                          std::size_t capacity = 1ULL << 20) const {
        LedgerOptions opts;
        opts.directory = root_ + "/" + sub;
        opts.segment_capacity_bytes = capacity;
        opts.sync = false;  // tmpfs-friendly; the CLI always syncs
        return opts;
    }

    static LedgerRecord trip(std::uint64_t campaign, std::uint64_t sequence) {
        TripRecordPayload payload;
        payload.site = sequence;
        payload.parameter = "tAA";
        payload.record.test_name = "ga-" + std::to_string(sequence);
        payload.record.trip_point = 1.5 + static_cast<double>(sequence);
        payload.record.found = true;
        LedgerRecord record;
        record.type = RecordType::kTripRecord;
        record.campaign = campaign;
        record.sequence = sequence;
        record.payload = encode_trip_record(payload);
        return record;
    }

    static LedgerRecord begin_record(std::uint64_t campaign) {
        LedgerRecord record;
        record.type = RecordType::kCampaignBegin;
        record.campaign = campaign;
        record.sequence = 0;
        record.payload = encode_campaign_begin({"fp", campaign});
        return record;
    }

    static LedgerRecord end_record(std::uint64_t campaign,
                                   std::uint64_t count) {
        LedgerRecord record;
        record.type = RecordType::kCampaignEnd;
        record.campaign = campaign;
        record.sequence = ~0ULL;
        record.payload = encode_campaign_end({count});
        return record;
    }

    std::string segment_path(const std::string& sub, std::uint64_t index) {
        return root_ + "/" + sub + "/" + segment_file_name(index);
    }

    std::string root_;
};

TEST_F(LedgerTest, OpenCreatesDirectoryWithEmptyActiveSegment) {
    Ledger ledger = Ledger::open(options());
    EXPECT_TRUE(ledger.recovery().clean());
    EXPECT_TRUE(ledger.records().empty());
    EXPECT_TRUE(fs::exists(segment_path("L", 0)));
    EXPECT_EQ(fs::file_size(segment_path("L", 0)), kSegmentHeaderSize);
}

TEST_F(LedgerTest, OpenThrowsWhenDirectoryCannotBeCreated) {
    std::ofstream(root_ + "_f").put('x');
    LedgerOptions opts;
    opts.directory = root_ + "_f/L";
    EXPECT_THROW((void)Ledger::open(opts), std::runtime_error);
}

TEST_F(LedgerTest, CommitPersistsAcrossReopen) {
    const std::vector<LedgerRecord> batch = {begin_record(9), trip(9, 1),
                                             trip(9, 2)};
    {
        Ledger ledger = Ledger::open(options());
        for (const LedgerRecord& r : batch) ledger.append(r);
        EXPECT_EQ(ledger.pending(), 3u);
        ledger.commit();
        EXPECT_EQ(ledger.pending(), 0u);
        EXPECT_EQ(ledger.records(), batch);
    }
    Ledger reopened = Ledger::open(options());
    EXPECT_TRUE(reopened.recovery().clean());
    EXPECT_EQ(reopened.records(), batch);
    EXPECT_TRUE(reopened.contains(9, RecordType::kCampaignBegin, 0));
    EXPECT_TRUE(reopened.contains(9, RecordType::kTripRecord, 2));
    EXPECT_FALSE(reopened.contains(9, RecordType::kTripRecord, 3));
    EXPECT_EQ(reopened.campaign_records(9), 3u);
    EXPECT_EQ(reopened.campaign_records(10), 0u);
}

TEST_F(LedgerTest, AppendIfAbsentDedupsCommittedAndPending) {
    Ledger ledger = Ledger::open(options());
    EXPECT_TRUE(ledger.append_if_absent(trip(1, 5)));
    EXPECT_FALSE(ledger.append_if_absent(trip(1, 5)));  // pending dup
    ledger.commit();
    EXPECT_FALSE(ledger.append_if_absent(trip(1, 5)));  // committed dup
    EXPECT_TRUE(ledger.append_if_absent(trip(1, 6)));
    EXPECT_TRUE(ledger.append_if_absent(trip(2, 5)));  // other campaign
    ledger.commit();
    EXPECT_EQ(ledger.records().size(), 3u);

    Ledger reopened = Ledger::open(options());
    EXPECT_FALSE(reopened.append_if_absent(trip(1, 6)));
}

TEST_F(LedgerTest, EmptyCommitIsNoop) {
    Ledger ledger = Ledger::open(options());
    const auto size_before = fs::file_size(segment_path("L", 0));
    ledger.commit();
    EXPECT_EQ(fs::file_size(segment_path("L", 0)), size_before);
}

TEST_F(LedgerTest, RotatesSegmentsAtCapacity) {
    // Tiny capacity: every commit after the first overflows the active
    // segment and must rotate to a fresh one.
    Ledger ledger = Ledger::open(options("L", 256));
    std::vector<LedgerRecord> all;
    for (std::uint64_t i = 0; i < 8; ++i) {
        all.push_back(trip(4, i));
        ledger.append(all.back());
        ledger.commit();
    }
    std::size_t segments = 0;
    for (const auto& entry : fs::directory_iterator(root_ + "/L")) {
        if (entry.is_regular_file()) ++segments;
    }
    EXPECT_GT(segments, 1u);

    Ledger reopened = Ledger::open(options("L", 256));
    EXPECT_TRUE(reopened.recovery().clean());
    EXPECT_EQ(reopened.records(), all);
}

TEST_F(LedgerTest, RecoveryTruncatesTornTail) {
    {
        Ledger ledger = Ledger::open(options());
        ledger.append(trip(3, 0));
        ledger.append(trip(3, 1));
        ledger.commit();
    }
    const std::string path = segment_path("L", 0);
    const auto full_size = fs::file_size(path);
    // Chop into the final record, the tear a power cut mid-append leaves.
    fs::resize_file(path, full_size - 11);

    Ledger recovered = Ledger::open(options());
    EXPECT_FALSE(recovered.recovery().clean());
    EXPECT_EQ(recovered.recovery().torn_tails, 1u);
    EXPECT_GT(recovered.recovery().truncated_bytes, 0u);
    ASSERT_EQ(recovered.records().size(), 1u);
    EXPECT_EQ(recovered.records()[0], trip(3, 0));

    // The file itself was repaired: a second open is clean and the
    // ledger verifies.
    Ledger again = Ledger::open(options());
    EXPECT_TRUE(again.recovery().clean());
    EXPECT_TRUE(verify_ledger(root_ + "/L").ok);

    // The lost record can be re-offered idempotently and lands once.
    EXPECT_TRUE(again.append_if_absent(trip(3, 1)));
    EXPECT_FALSE(again.append_if_absent(trip(3, 0)));
    again.commit();
    EXPECT_EQ(again.records().size(), 2u);
}

TEST_F(LedgerTest, RecoveryQuarantinesCorruptMiddle) {
    {
        Ledger ledger = Ledger::open(options());
        for (std::uint64_t i = 0; i < 3; ++i) ledger.append(trip(5, i));
        ledger.commit();
    }
    const std::string path = segment_path("L", 0);
    std::string bytes = *util::read_file(path);
    bytes[kSegmentHeaderSize + kRecordHeaderSize + 3] ^= 0x20;  // record 0
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    Ledger recovered = Ledger::open(options());
    EXPECT_FALSE(recovered.recovery().clean());
    EXPECT_EQ(recovered.recovery().corrupt_spans, 1u);
    EXPECT_GT(recovered.recovery().quarantined_bytes, 0u);
    ASSERT_EQ(recovered.records().size(), 2u);
    EXPECT_EQ(recovered.records()[0], trip(5, 1));
    EXPECT_EQ(recovered.records()[1], trip(5, 2));

    // The damaged original is preserved for forensics; the rewritten
    // segment verifies clean.
    EXPECT_TRUE(fs::exists(root_ + "/L/quarantine"));
    EXPECT_FALSE(fs::is_empty(root_ + "/L/quarantine"));
    EXPECT_TRUE(verify_ledger(root_ + "/L").ok);
}

TEST_F(LedgerTest, RecoveryQuarantinesSegmentWithBadHeader) {
    {
        Ledger ledger = Ledger::open(options());
        ledger.append(trip(6, 0));
        ledger.commit();
    }
    const std::string path = segment_path("L", 0);
    std::string bytes = *util::read_file(path);
    bytes[1] ^= 0xFF;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    Ledger recovered = Ledger::open(options());
    EXPECT_EQ(recovered.recovery().quarantined_segments, 1u);
    EXPECT_TRUE(recovered.records().empty());
    // The headerless segment is gone; open rotated to a fresh empty one.
    EXPECT_EQ(fs::file_size(path), kSegmentHeaderSize);
    EXPECT_TRUE(fs::exists(root_ + "/L/quarantine/" + segment_file_name(0)));
    EXPECT_TRUE(verify_ledger(root_ + "/L").ok);
}

TEST_F(LedgerTest, TornWriteFaultCommitThrowsAndRecoveryRepairs) {
    Ledger ledger = Ledger::open(options());
    ledger.append(trip(7, 0));
    ledger.commit();

    // Tear the next commit 10 bytes in: append_file reports failure, the
    // batch stays pending, and the file now carries a torn tail.
    util::WriteFault fault;
    fault.path_substring = ".ledg";
    fault.torn_after = 10;
    util::set_write_fault(fault);
    ledger.append(trip(7, 1));
    EXPECT_THROW(ledger.commit(), std::runtime_error);
    EXPECT_EQ(ledger.pending(), 1u);

    Ledger recovered = Ledger::open(options());
    EXPECT_EQ(recovered.recovery().torn_tails, 1u);
    ASSERT_EQ(recovered.records().size(), 1u);
    EXPECT_EQ(recovered.records()[0], trip(7, 0));
    EXPECT_TRUE(verify_ledger(root_ + "/L").ok);
}

TEST_F(LedgerTest, BitFlipWriteFaultQuarantinedOnRecovery) {
    {
        Ledger ledger = Ledger::open(options());
        ledger.append(trip(8, 0));
        ledger.commit();
        // Flip a byte inside the *next* appended batch, then keep
        // writing valid records after it: a corrupt middle, not a tail.
        util::WriteFault fault;
        fault.path_substring = ".ledg";
        fault.flip_offset = 40;
        fault.flip_mask = 0x08;
        util::set_write_fault(fault);
        ledger.append(trip(8, 1));
        ledger.commit();  // flip lands inside this batch; write "succeeds"
        ledger.append(trip(8, 2));
        ledger.commit();
    }
    Ledger recovered = Ledger::open(options());
    EXPECT_EQ(recovered.recovery().corrupt_spans, 1u);
    ASSERT_EQ(recovered.records().size(), 2u);
    EXPECT_EQ(recovered.records()[0], trip(8, 0));
    EXPECT_EQ(recovered.records()[1], trip(8, 2));
    EXPECT_TRUE(verify_ledger(root_ + "/L").ok);
}

TEST_F(LedgerTest, VerifyReportsCompleteCampaigns) {
    Ledger ledger = Ledger::open(options());
    ledger.append(begin_record(11));
    ledger.append(trip(11, 1));
    ledger.append(end_record(11, 2));  // counts records before the end
    ledger.append(begin_record(12));   // open campaign: no end marker
    ledger.commit();

    const VerifyResult result = verify_ledger(root_ + "/L");
    EXPECT_TRUE(result.ok) << (result.issues.empty() ? "" : result.issues[0]);
    EXPECT_EQ(result.records, 4u);
    EXPECT_EQ(result.campaigns, 2u);
    EXPECT_EQ(result.complete_campaigns, 1u);
}

TEST_F(LedgerTest, VerifyFlagsEndCountMismatchAndBadPayload) {
    Ledger ledger = Ledger::open(options());
    ledger.append(begin_record(13));
    ledger.append(end_record(13, 7));  // lies: only 1 record preceded it
    LedgerRecord junk;
    junk.type = RecordType::kSnapshotRef;
    junk.campaign = 14;
    junk.sequence = 0;
    junk.payload = "not a snapshot ref";
    ledger.append(junk);
    ledger.commit();

    const VerifyResult result = verify_ledger(root_ + "/L");
    EXPECT_FALSE(result.ok);
    EXPECT_GE(result.issues.size(), 2u);
}

TEST_F(LedgerTest, VerifyFailsOnMissingDirectory) {
    EXPECT_FALSE(verify_ledger(root_ + "/nope").ok);
}

TEST_F(LedgerTest, InspectRendersSegmentsAndCampaigns) {
    Ledger ledger = Ledger::open(options());
    ledger.append(begin_record(21));
    ledger.append(trip(21, 1));
    ledger.append(end_record(21, 2));
    ledger.commit();

    const std::string text = inspect_ledger(root_ + "/L");
    EXPECT_NE(text.find(segment_file_name(0)), std::string::npos);
    EXPECT_NE(text.find("trip-record"), std::string::npos);
    EXPECT_NE(text.find("[complete]"), std::string::npos);
}

// The byte-identity contract: any interleaving or duplication of one
// record multiset compacts to the same bytes.
TEST_F(LedgerTest, CompactIsCanonicalAcrossAppendOrderAndDuplicates) {
    std::vector<LedgerRecord> all = {begin_record(30), trip(30, 1),
                                     trip(30, 2), trip(30, 3),
                                     end_record(30, 4)};
    {
        Ledger a = Ledger::open(options("A"));
        for (const LedgerRecord& r : all) a.append(r);
        a.commit();
    }
    {
        // Reverse order, one commit per record, duplicates re-offered.
        Ledger b = Ledger::open(options("B", 256));  // also forces rotation
        for (auto it = all.rbegin(); it != all.rend(); ++it) {
            b.append(*it);
            b.commit();
        }
        b.append(all[1]);
        b.append(all[2]);
        b.commit();
    }
    const CompactStats ca = compact_ledger(root_ + "/A", root_ + "/CA");
    const CompactStats cb = compact_ledger(root_ + "/B", root_ + "/CB");
    EXPECT_EQ(ca.output_records, all.size());
    EXPECT_EQ(cb.output_records, all.size());
    EXPECT_EQ(cb.duplicates_dropped, 2u);
    EXPECT_EQ(*util::read_file(root_ + "/CA/" + segment_file_name(0)),
              *util::read_file(root_ + "/CB/" + segment_file_name(0)));
    EXPECT_TRUE(verify_ledger(root_ + "/CA").ok);
    EXPECT_TRUE(verify_ledger(root_ + "/CB").ok);
}

TEST_F(LedgerTest, CompactRepacksAgainstCapacity) {
    {
        Ledger ledger = Ledger::open(options("L", 200));
        for (std::uint64_t i = 0; i < 10; ++i) {
            ledger.append(trip(50, i));
            ledger.commit();
        }
    }
    const CompactStats stats =
        compact_ledger(root_ + "/L", root_ + "/C", 200);
    EXPECT_EQ(stats.output_records, 10u);
    EXPECT_GT(stats.segments_written, 1u);
    EXPECT_TRUE(verify_ledger(root_ + "/C").ok);

    Ledger reopened = Ledger::open(options("C", 200));
    EXPECT_EQ(reopened.records().size(), 10u);
}

TEST_F(LedgerTest, CompactRefusesNonEmptyOutput) {
    {
        Ledger ledger = Ledger::open(options("L"));
        ledger.append(trip(60, 0));
        ledger.commit();
        Ledger out = Ledger::open(options("C"));
        out.append(trip(60, 1));
        out.commit();
    }
    EXPECT_THROW((void)compact_ledger(root_ + "/L", root_ + "/C"),
                 std::runtime_error);
}

TEST_F(LedgerTest, CompactSurvivesTornInputAndReportsIssue) {
    {
        Ledger ledger = Ledger::open(options("L"));
        ledger.append(trip(70, 0));
        ledger.append(trip(70, 1));
        ledger.commit();
    }
    const std::string path = segment_path("L", 0);
    fs::resize_file(path, fs::file_size(path) - 5);

    const CompactStats stats = compact_ledger(root_ + "/L", root_ + "/C");
    EXPECT_EQ(stats.output_records, 1u);
    EXPECT_FALSE(stats.issues.empty());
    EXPECT_TRUE(verify_ledger(root_ + "/C").ok);
}

}  // namespace
}  // namespace cichar::store
