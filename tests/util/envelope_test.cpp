// The three checksummed binary formats — CICHKPT4 checkpoints, CISTAT2
// status snapshots and CILEDG2 ledger records — all frame through
// util::put_sealed / ByteReader::get_sealed (docs/FORMATS.md, "Binary
// envelope"). Golden checksums pin each format's bytes for fixed inputs,
// and those of the trip cache body the hunt checkpoint carries inline;
// one parameterized suite requires every format to refuse every
// truncation, every single-bit flip, trailing bytes and a foreign magic,
// leaving the decode target untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/trip_cache.hpp"
#include "lot/lot_runner.hpp"
#include "obs/status_format.hpp"
#include "store/ledger_format.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace cichar {
namespace {

// ---------------------------------------------------------------------
// Fixed inputs.

const std::string kHuntFingerprint =
    "hunt:seed=2005:coding=fuzzy:generations=10:populations=4:parallel=0:"
    "cache=1:faults=off:policy=0";
const std::string kLotFingerprint =
    "lot:seed=2005:sites=3:params=T_DQ,:faults=off:policy=0:quarantine=0";
const std::string kCacheIdentity = "die-7/tdq";

std::string hunt_payload() {
    std::string out;
    util::put_rng(out, util::Rng(2005));
    util::put_u64(out, 123);
    util::put_bool(out, true);
    util::put_double(out, 21.75);
    util::put_string(out, "ga-state");
    return out;
}

std::string lot_payload() {
    std::vector<lot::SiteResult> sites(3);
    sites[0].site = 0;
    sites[0].status = lot::SiteStatus::kCompleted;
    sites[0].max_risk = 0.25;
    sites[0].faults.retried_measurements = 3;
    sites[0].injected.measurements = 40;
    sites[0].injected.transients = 2;
    sites[0].log.set_phase("learning");
    sites[0].log.record(500, 0.002);
    lot::SiteParameterOutcome outcome;
    outcome.parameter = ate::Parameter::data_valid_time();
    outcome.worst.test_name = "ga-17";
    outcome.worst.trip_point = 21.5;
    outcome.worst.wcr = 0.93;
    outcome.worst.found = true;
    outcome.worst.measurements = 9;
    outcome.margin_risk = 0.25;
    sites[0].outcomes.push_back(outcome);
    sites[1].site = 1;  // pending: not encoded
    sites[2].site = 2;
    sites[2].status = lot::SiteStatus::kDead;
    sites[2].max_risk = 1.0;
    return lot::encode_finished_sites(sites);
}

core::TripCacheKey cache_key(std::uint32_t cycles) {
    core::TripCacheKey key;
    key.recipe.cycles = cycles;
    key.recipe.write_fraction = 0.5;
    key.recipe.seed = 42 + cycles;
    key.conditions.vdd_volts = 1.62000000000000011;
    return key;
}

core::TripPointRecord cache_record(double trip) {
    core::TripPointRecord record;
    record.test_name = "ga-" + std::to_string(static_cast<int>(trip));
    record.trip_point = trip;
    record.wcr = trip / 25.0;
    record.wcr_class = ga::WcrClass::kWeakness;
    record.found = true;
    record.measurements = 7;
    return record;
}

std::string cache_body() {
    core::TripPointCache cache(8);
    for (std::uint32_t i = 0; i < 3; ++i) {
        cache.insert(cache_key(200 + i), cache_record(20.0 + i));
    }
    std::string out;
    cache.save_body(out, kCacheIdentity);
    return out;
}

obs::StatusSnapshot status_snapshot() {
    obs::StatusSnapshot snap;
    snap.kind = "lot";
    snap.fingerprint = kLotFingerprint;
    snap.seed = 2005;
    snap.pid = 4242;
    snap.sequence = 9;
    snap.uptime_seconds = 12.5;
    snap.sites_total = 3;
    snap.policy_retries = 3;
    obs::SiteStatusEntry hunting;
    hunting.site = 0;
    hunting.phase = obs::SitePhase::kHunting;
    hunting.generation = 5;
    hunting.generations_total = 14;
    hunting.best_wcr = 0.875;
    hunting.inflight = 4;
    snap.sites.push_back(hunting);
    obs::SiteStatusEntry done;
    done.site = 1;
    done.phase = obs::SitePhase::kDone;
    done.elapsed_seconds = 8.0;
    done.outcomes.push_back({"T_DQ", true, 21.75, 0.87, 0.125});
    snap.sites.push_back(done);
    snap.completed_seconds = {8.0};
    return snap;
}

store::LedgerRecord ledger_record() {
    return {store::RecordType::kTripRecord, util::checksum64(kLotFingerprint),
            65537, "trip-record-payload"};
}

std::string ledger_record_bytes() {
    std::string out;
    store::encode_record(out, ledger_record());
    return out;
}

// ---------------------------------------------------------------------
// Golden bytes: each format's encoding of the fixed inputs, pinned by
// size and checksum64, so a format's bytes change only on purpose. The
// sealed ones moved with the seal (FNV-1a -> seal64) and the magics
// (CICHKPT3, CISTAT2, CILEDG2); the checkpoint ones moved again with
// CICHKPT4. The trip cache body has no seal of its own; its three
// entries are 125 bytes each.

TEST(EnvelopeGoldenTest, CheckpointOfHuntPayload) {
    const std::string bytes =
        core::encode_checkpoint(kHuntFingerprint, hunt_payload());
    EXPECT_EQ(bytes.size(), 201u);
    EXPECT_EQ(util::checksum64(bytes), 0xecc914a4380e9824ULL);
}

TEST(EnvelopeGoldenTest, CheckpointOfLotPayload) {
    const std::string bytes =
        core::encode_checkpoint(kLotFingerprint, lot_payload());
    EXPECT_EQ(bytes.size(), 612u);
    EXPECT_EQ(util::checksum64(bytes), 0xff608e8f84e54086ULL);
}

TEST(EnvelopeGoldenTest, ThreeEntryTripCache) {
    const std::string bytes = cache_body();
    EXPECT_EQ(bytes.size(), 400u);
    EXPECT_EQ(util::checksum64(bytes), 0x089819f3f2e38188ULL);
}

TEST(EnvelopeGoldenTest, StatusSnapshot) {
    const std::string bytes = obs::encode_status(status_snapshot());
    EXPECT_EQ(bytes.size(), 415u);
    EXPECT_EQ(util::checksum64(bytes), 0x8aa1bf9244e16524ULL);
}

TEST(EnvelopeGoldenTest, LedgerRecord) {
    const std::string bytes = ledger_record_bytes();
    EXPECT_EQ(bytes.size(), 59u);
    EXPECT_EQ(util::checksum64(bytes), 0x4c35e52a6aad5e34ULL);
}

// ---------------------------------------------------------------------
// One fuzz suite for every format.

struct EnvelopeCase {
    std::string name;
    std::string magic;  ///< the leading bytes a reader checks first
    std::string bytes;  ///< one valid encoding
    /// Decodes `bytes`; true when accepted. A refused decode must leave
    /// its target untouched (checked inside).
    std::function<bool(std::string_view)> accepts;
};

// Names the row in test listings instead of dumping its bytes.
void PrintTo(const EnvelopeCase& c, std::ostream* os) { *os << c.name; }

std::vector<EnvelopeCase> envelope_cases() {
    std::vector<EnvelopeCase> cases;
    cases.push_back(
        {"Checkpoint", std::string(core::kCheckpointMagic),
         core::encode_checkpoint(kLotFingerprint, lot_payload()),
         [](std::string_view bytes) {
             std::string payload = "untouched";
             const bool ok =
                 core::decode_checkpoint(bytes, kLotFingerprint, payload);
             if (!ok) {
                 EXPECT_EQ(payload, "untouched");
             }
             return ok;
         }});
    cases.push_back({"Status", std::string(obs::kStatusMagic),
                     obs::encode_status(status_snapshot()),
                     [](std::string_view bytes) {
                         return obs::decode_status(bytes).has_value();
                     }});
    // A record is accepted when a segment holding it scans clean with
    // exactly that record.
    std::string record_magic;
    util::put_u32(record_magic, store::kRecordMagic);
    cases.push_back({"LedgerRecord", record_magic, ledger_record_bytes(),
                     [](std::string_view bytes) {
                         const store::SegmentScan scan = store::scan_segment(
                             store::encode_segment_header(0) +
                             std::string(bytes));
                         return scan.clean() && scan.records.size() == 1 &&
                                scan.records[0] == ledger_record();
                     }});
    return cases;
}

class EnvelopeTest : public ::testing::TestWithParam<EnvelopeCase> {};

TEST_P(EnvelopeTest, AcceptsItsOwnEncoding) {
    const EnvelopeCase& c = GetParam();
    EXPECT_TRUE(c.accepts(c.bytes));
}

TEST_P(EnvelopeTest, RejectsEveryTruncation) {
    const EnvelopeCase& c = GetParam();
    for (std::size_t len = 0; len < c.bytes.size(); ++len) {
        EXPECT_FALSE(c.accepts(std::string_view(c.bytes).substr(0, len)))
            << "prefix of length " << len << " accepted";
    }
}

TEST_P(EnvelopeTest, RejectsEverySingleBitFlip) {
    const EnvelopeCase& c = GetParam();
    for (std::size_t i = 0; i < c.bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = c.bytes;
            mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
            EXPECT_FALSE(c.accepts(mutated))
                << "flip at byte " << i << " bit " << bit << " accepted";
        }
    }
}

TEST_P(EnvelopeTest, RejectsTrailingBytes) {
    const EnvelopeCase& c = GetParam();
    EXPECT_FALSE(c.accepts(c.bytes + '\0'));
    EXPECT_FALSE(c.accepts(c.bytes + "extra"));
}

TEST_P(EnvelopeTest, RejectsForeignMagic) {
    const EnvelopeCase& c = GetParam();
    for (const EnvelopeCase& other : envelope_cases()) {
        if (other.name == c.name) continue;
        std::string mutated = c.bytes;
        const std::size_t n = std::min(c.magic.size(), other.magic.size());
        mutated.replace(0, n, other.magic, 0, n);
        EXPECT_FALSE(c.accepts(mutated)) << other.name << " magic accepted";
    }
    EXPECT_FALSE(c.accepts(""));
}

INSTANTIATE_TEST_SUITE_P(
    Formats, EnvelopeTest, ::testing::ValuesIn(envelope_cases()),
    [](const ::testing::TestParamInfo<EnvelopeCase>& row) {
        return row.param.name;
    });

}  // namespace
}  // namespace cichar
