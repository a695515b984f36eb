#include "obs/fleet_view.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "store/ledger_format.hpp"
#include "store/ledger_payloads.hpp"
#include "util/binio.hpp"

namespace cichar::obs {
namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

void backdate(const fs::path& path, int seconds) {
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::seconds(seconds));
}

SiteStatusEntry done_site(std::uint64_t site, double wcr, double trip) {
    SiteStatusEntry entry;
    entry.site = site;
    entry.phase = SitePhase::kDone;
    entry.generation = 14;
    entry.generations_total = 14;
    entry.ate_applications = 100;
    entry.cache_hits = 30;
    entry.cache_misses = 10;
    entry.elapsed_seconds = 2.0;
    SiteOutcomeEntry outcome;
    outcome.parameter = "T_DQ";
    outcome.found = true;
    outcome.trip_point = trip;
    outcome.wcr = wcr;
    entry.outcomes.push_back(outcome);
    return entry;
}

struct ObsFleetViewTest : ::testing::Test {
    ObsFleetViewTest()
        : dir(std::string("obs_fleet_test_dir_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()) {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~ObsFleetViewTest() override { fs::remove_all(dir); }

    fs::path dir;
};

TEST_F(ObsFleetViewTest, FusesWorkersAndAnomalies) {
    // worker_0 finished its two sites; one of them is a WCR
    // outlier vs. the lot median.
    StatusSnapshot worker0;
    worker0.kind = "lot";
    worker0.fingerprint = "fp-fleet";
    worker0.seed = 7;
    worker0.sites_total = 4;
    worker0.sites.push_back(done_site(0, -3.0, 20.0));
    worker0.sites.push_back(done_site(1, -3.1, 20.5));
    worker0.completed_seconds = {2.0, 2.0};
    write_file(dir / "worker_0.status", encode_status(worker0));

    // worker_1: one outlier site done, one mid-hunt — and its
    // snapshot has gone quiet long enough to count as stalled.
    StatusSnapshot worker1;
    worker1.kind = "lot";
    worker1.fingerprint = "fp-fleet";
    worker1.seed = 7;
    worker1.sites_total = 4;
    worker1.sites.push_back(done_site(2, -4.0, 26.0));
    SiteStatusEntry hunting;
    hunting.site = 3;
    hunting.phase = SitePhase::kHunting;
    hunting.generation = 7;
    hunting.generations_total = 14;
    hunting.best_wcr = -2.5;
    hunting.elapsed_seconds = 1.5;
    worker1.sites.push_back(hunting);
    worker1.completed_seconds = {2.5};
    write_file(dir / "worker_1.status", encode_status(worker1));
    backdate(dir / "worker_1.status", 120);

    // A torn snapshot must be counted and skipped, not fatal.
    write_file(dir / "torn.status", std::string(kStatusMagic) + "garbage");

    const FleetModel model = fuse_run_directory(dir.string());

    // Workers: two decoded, one torn.
    ASSERT_EQ(model.workers.size(), 2u);
    EXPECT_EQ(model.torn_snapshots, 1u);
    EXPECT_EQ(model.workers[0].name, "worker_0");
    EXPECT_FALSE(model.workers[0].stalled);
    EXPECT_EQ(model.workers[1].name, "worker_1");
    EXPECT_TRUE(model.workers[1].stalled);

    // Sites: 3 done + 1 hunting, ETA known for the live one.
    EXPECT_EQ(model.sites_total, 4u);
    EXPECT_EQ(model.sites_done, 3u);
    EXPECT_EQ(model.sites_running, 1u);
    ASSERT_EQ(model.sites.size(), 4u);
    EXPECT_EQ(model.sites[3].entry.site, 3u);
    EXPECT_GE(model.sites[3].eta_seconds, 0.0);
    EXPECT_DOUBLE_EQ(model.sites[0].eta_seconds, 0.0);

    // Partial lot report over the finished sites, outlier flagged.
    ASSERT_EQ(model.partials.size(), 1u);
    EXPECT_EQ(model.partials[0].parameter, "T_DQ");
    EXPECT_EQ(model.partials[0].sites, 3u);
    EXPECT_DOUBLE_EQ(model.partials[0].trip_spread, 6.0);
    ASSERT_EQ(model.partials[0].outlier_sites.size(), 1u);
    EXPECT_EQ(model.partials[0].outlier_sites[0], 2u);

    // Anomalies: WCR outlier, stalled worker, torn file.
    std::string joined;
    for (const std::string& anomaly : model.anomalies) {
        joined += anomaly + "\n";
    }
    EXPECT_NE(joined.find("WCR outlier: site 2"), std::string::npos)
        << joined;
    EXPECT_NE(joined.find("stalled worker: worker_1"), std::string::npos)
        << joined;
    EXPECT_NE(joined.find("torn snapshot file(s): 1"), std::string::npos)
        << joined;

    // Both renderings carry the load-bearing facts.
    const std::string text = render_fleet_text(model);
    EXPECT_NE(text.find("3/4 finished"), std::string::npos) << text;
    EXPECT_NE(text.find("hunting"), std::string::npos);
    EXPECT_NE(text.find("WCR-OUTLIER"), std::string::npos);
    const std::string json = render_fleet_json(model);
    EXPECT_NE(json.find("\"sites_done\":3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"torn_snapshots\":1"), std::string::npos);
    EXPECT_NE(json.find("\"parameter\":\"T_DQ\""), std::string::npos);
    const std::string top = render_fleet_top(model);
    EXPECT_NE(top.find("cichar top"), std::string::npos);
    EXPECT_NE(top.find("3/4 sites"), std::string::npos) << top;
}

TEST_F(ObsFleetViewTest, QuarantineSpikeIsFlagged) {
    StatusSnapshot snap;
    snap.kind = "lot";
    snap.sites_total = 2;
    snap.sites.push_back(done_site(0, -3.0, 20.0));
    SiteStatusEntry quarantined;
    quarantined.site = 1;
    quarantined.phase = SitePhase::kQuarantined;
    snap.sites.push_back(quarantined);
    write_file(dir / "lot.status", encode_status(snap));

    const FleetModel model = fuse_run_directory(dir.string());
    EXPECT_EQ(model.sites_quarantined, 1u);
    std::string joined;
    for (const std::string& anomaly : model.anomalies) {
        joined += anomaly + "\n";
    }
    EXPECT_NE(joined.find("quarantine spike"), std::string::npos) << joined;
}

TEST_F(ObsFleetViewTest, DuplicateSitesResolveToFurthestAlong) {
    // Two workers report site 0 (e.g. a stale snapshot from an earlier run): the terminal
    // entry must win over the stale live one.
    StatusSnapshot stale;
    stale.kind = "lot";
    stale.sites_total = 1;
    SiteStatusEntry live;
    live.site = 0;
    live.phase = SitePhase::kHunting;
    live.generation = 3;
    live.generations_total = 14;
    stale.sites.push_back(live);
    write_file(dir / "a.status", encode_status(stale));

    StatusSnapshot fresh;
    fresh.kind = "lot";
    fresh.sites_total = 1;
    fresh.sites.push_back(done_site(0, -3.0, 20.0));
    write_file(dir / "b.status", encode_status(fresh));

    const FleetModel model = fuse_run_directory(dir.string());
    ASSERT_EQ(model.sites.size(), 1u);
    EXPECT_EQ(model.sites[0].entry.phase, SitePhase::kDone);
    EXPECT_EQ(model.sites[0].worker, "b");
}

TEST_F(ObsFleetViewTest, EmptyDirectoryDegradesGracefully) {
    const FleetModel model = fuse_run_directory(dir.string());
    EXPECT_TRUE(model.workers.empty());
    EXPECT_TRUE(model.sites.empty());
    EXPECT_TRUE(model.anomalies.empty());
    // Rendering an empty model must not throw or divide by zero.
    EXPECT_FALSE(render_fleet_text(model).empty());
    EXPECT_FALSE(render_fleet_json(model).empty());
    EXPECT_FALSE(render_fleet_top(model).empty());
}

// A CISTAT1 snapshot (the previous seal) is not torn but unreadable by
// this build: fusing refuses it with an error naming the format, so
// `cichar status` fails instead of reporting an empty fleet.
TEST_F(ObsFleetViewTest, OlderFormatSnapshotIsAnError) {
    std::string older = encode_status(StatusSnapshot{});
    older.replace(0, kOlderStatusMagic.size(), kOlderStatusMagic);
    write_file(dir / "hunt.status", older);
    try {
        (void)fuse_run_directory(dir.string());
        FAIL() << "older status format accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("older status format"),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(ObsFleetViewTest, TailsLedgerReadOnly) {
    // Hand-assemble a one-segment ledger with ten trip records and a
    // torn tail; the tail must be read without mutating the file.
    std::string segment = store::encode_segment_header(0);
    for (int i = 0; i < 10; ++i) {
        store::TripRecordPayload payload;
        payload.site = static_cast<std::uint64_t>(i);
        payload.parameter = "T_DQ";
        payload.margin_risk = 0.25;
        payload.record.test_name = "t";
        payload.record.trip_point = 20.0 + i;
        payload.record.wcr = -3.0 - i;
        payload.record.found = true;
        store::LedgerRecord record;
        record.type = store::RecordType::kTripRecord;
        record.campaign = 1;
        record.sequence = static_cast<std::uint64_t>(i + 1);
        record.payload = store::encode_trip_record(payload);
        store::encode_record(segment, record);
    }
    const std::string clean = segment;
    segment += "torn-tail-bytes";
    const fs::path ledger_dir = dir / "ledger";
    fs::create_directories(ledger_dir);
    const fs::path segment_path = ledger_dir / store::segment_file_name(0);
    write_file(segment_path, segment);

    FleetViewOptions options;
    options.ledger_dir = ledger_dir.string();
    const FleetModel model = fuse_run_directory(dir.string(), options);
    // Capped to the newest eight, oldest first.
    ASSERT_EQ(model.ledger_tail.size(), 8u);
    EXPECT_EQ(model.ledger_tail.front().site, 2u);
    EXPECT_EQ(model.ledger_tail.back().site, 9u);
    EXPECT_DOUBLE_EQ(model.ledger_tail.back().trip_point, 29.0);
    EXPECT_DOUBLE_EQ(model.ledger_tail.back().wcr, -12.0);

    // Read-only contract: the torn tail is still on disk afterwards.
    const auto after = util::read_file(segment_path.string());
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*after, segment);
    EXPECT_NE(*after, clean);
}

}  // namespace
}  // namespace cichar::obs
