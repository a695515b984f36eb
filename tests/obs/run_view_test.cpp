#include "obs/run_view.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

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

std::string joined(const std::vector<std::string>& lines) {
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
}

std::size_t occurrences(const std::string& text, const std::string& what) {
    std::size_t n = 0;
    for (std::size_t at = text.find(what); at != std::string::npos;
         at = text.find(what, at + what.size())) {
        ++n;
    }
    return n;
}

struct ObsFleetViewTest : ::testing::Test {
    ObsFleetViewTest()
        : dir(std::string("obs_run_view_test_dir_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()) {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~ObsFleetViewTest() override { fs::remove_all(dir); }

    fs::path dir;
};

TEST_F(ObsFleetViewTest, RendersSnapshotAndAnomalies) {
    // Three sites done (site 2 a WCR outlier vs. the lot median), one
    // mid-hunt, and the snapshot has gone quiet long enough to count as
    // stalled.
    StatusSnapshot snap;
    snap.kind = "lot";
    snap.fingerprint = "fp-run";
    snap.seed = 7;
    snap.sequence = 12;
    snap.sites_total = 4;
    snap.sites.push_back(done_site(0, -3.0, 20.0));
    snap.sites.push_back(done_site(1, -3.1, 20.5));
    snap.sites.push_back(done_site(2, -4.0, 26.0));
    SiteStatusEntry hunting;
    hunting.site = 3;
    hunting.phase = SitePhase::kHunting;
    hunting.generation = 7;
    hunting.generations_total = 14;
    hunting.best_wcr = -2.5;
    hunting.elapsed_seconds = 1.5;
    snap.sites.push_back(hunting);
    snap.completed_seconds = {2.0, 2.0, 2.5};
    write_file(dir / "lot.status", encode_status(snap));
    backdate(dir / "lot.status", 120);

    const RunView view = read_run_status(dir.string());
    EXPECT_EQ(view.snapshot_path, (dir / "lot.status").string());
    EXPECT_EQ(view.snapshot, snap);
    EXPECT_GT(view.age_seconds, kStallAfterSeconds);
    EXPECT_TRUE(view.stalled);

    // Sites in snapshot order, ETA known for the live one.
    ASSERT_EQ(view.sites.size(), 4u);
    EXPECT_EQ(view.sites[3].entry.site, 3u);
    EXPECT_GE(view.sites[3].eta_seconds, 0.0);
    EXPECT_DOUBLE_EQ(view.sites[0].eta_seconds, 0.0);

    // Partial lot report over the finished sites, outlier flagged.
    ASSERT_EQ(view.partials.size(), 1u);
    EXPECT_EQ(view.partials[0].parameter, "T_DQ");
    EXPECT_EQ(view.partials[0].sites, 3u);
    EXPECT_DOUBLE_EQ(view.partials[0].trip_spread, 6.0);
    ASSERT_EQ(view.partials[0].outlier_sites.size(), 1u);
    EXPECT_EQ(view.partials[0].outlier_sites[0], 2u);

    const std::string anomalies = joined(view.anomalies);
    EXPECT_NE(anomalies.find("WCR outlier: site 2"), std::string::npos)
        << anomalies;
    EXPECT_NE(anomalies.find("stalled: no snapshot for"), std::string::npos)
        << anomalies;

    // The renderings read the counts from the snapshot.
    const std::string text = render_run_text(view);
    EXPECT_EQ(occurrences(text, "3/4 finished (3 ok, 0 quarantined, 0 dead, "
                                "1 running)"),
              1u)
        << text;
    EXPECT_NE(text.find("ATE applications: 300"), std::string::npos) << text;
    EXPECT_NE(text.find("90 hits / 30 misses (75.0%)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("hunting"), std::string::npos);
    EXPECT_NE(text.find("WCR-OUTLIER"), std::string::npos);
    EXPECT_EQ(text.find("worker"), std::string::npos) << text;
    const std::string json = render_run_json(view);
    EXPECT_NE(json.find("\"kind\":\"lot\",\"fingerprint\":\"fp-run\","
                        "\"seed\":7,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"sequence\":12,"), std::string::npos) << json;
    EXPECT_NE(json.find("\"stalled\":true,\"sites_total\":4,"
                        "\"sites_done\":3,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"sites_running\":1,\"finished_sites\":3,"
                        "\"ate_applications\":300,\"cache_hits\":90,"
                        "\"cache_misses\":30,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"parameter\":\"T_DQ\""), std::string::npos);
    EXPECT_EQ(json.find("worker"), std::string::npos) << json;
    EXPECT_EQ(json.find("torn"), std::string::npos) << json;

    // top adds only its title and progress bar: the counts print once.
    const std::string top = render_run_top(view);
    EXPECT_NE(top.find("cichar top"), std::string::npos);
    EXPECT_NE(top.find("] 3/4 sites\n"), std::string::npos) << top;
    EXPECT_EQ(occurrences(top, "3/4 finished"), 1u) << top;
    EXPECT_EQ(occurrences(top, "ATE applications"), 1u) << top;
}

TEST_F(ObsFleetViewTest, JsonEscapesParameterNames) {
    StatusSnapshot snap;
    snap.kind = "lot";
    snap.sites_total = 1;
    snap.sites.push_back(done_site(0, -3.0, 20.0));
    snap.sites[0].outcomes[0].parameter = "a\"b\\c\nd";
    write_file(dir / "lot.status", encode_status(snap));

    const std::string json = render_run_json(read_run_status(dir.string()));
    EXPECT_NE(
        json.find(R"("outcomes":[{"parameter":"a\"b\\c\u000ad","found":true,)"),
        std::string::npos)
        << json;
    EXPECT_NE(
        json.find(
            R"("partials":[{"parameter":"a\"b\\c\u000ad","sites":1,)"
            R"("trip_mean":20,"trip_min":20,"trip_max":20,"trip_spread":0,)"
            R"("wcr_median":-3,"wcr_mean":-3,"wcr_max":-3,)"
            R"("outlier_sites":[]}])"),
        std::string::npos)
        << json;
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

    const RunView view = read_run_status(dir.string());
    EXPECT_EQ(view.snapshot.count(SitePhase::kQuarantined), 1u);
    const std::string anomalies = joined(view.anomalies);
    EXPECT_NE(anomalies.find("quarantine spike"), std::string::npos)
        << anomalies;
}

// One --status directory per run: a second snapshot (here a hunt's left
// beside a lot's) is refused by name instead of mixing two campaigns.
TEST_F(ObsFleetViewTest, TwoSnapshotsAreAnError) {
    StatusSnapshot hunt;
    hunt.kind = "hunt";
    hunt.sites_total = 1;
    hunt.sites.push_back(done_site(0, -3.0, 20.0));
    write_file(dir / "hunt.status", encode_status(hunt));

    StatusSnapshot lot;
    lot.kind = "lot";
    lot.sites_total = 2;
    lot.sites.push_back(done_site(0, -3.5, 21.0));
    write_file(dir / "lot.status", encode_status(lot));

    try {
        (void)read_run_status(dir.string());
        FAIL() << "two snapshots accepted";
    } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find((dir / "hunt.status").string()), std::string::npos)
            << what;
        EXPECT_NE(what.find((dir / "lot.status").string()), std::string::npos)
            << what;
        EXPECT_NE(what.find("--status directory"), std::string::npos) << what;
    }
}

TEST_F(ObsFleetViewTest, EmptyDirectoryDegradesGracefully) {
    const RunView view = read_run_status(dir.string());
    EXPECT_TRUE(view.snapshot_path.empty());
    EXPECT_TRUE(view.sites.empty());
    EXPECT_TRUE(view.anomalies.empty());
    EXPECT_FALSE(view.stalled);
    // Rendering an empty view must not throw or divide by zero.
    EXPECT_NE(render_run_text(view).find("no snapshot yet"),
              std::string::npos);
    EXPECT_FALSE(render_run_json(view).empty());
    EXPECT_FALSE(render_run_top(view).empty());
    // A directory the run has not created yet reads the same.
    EXPECT_TRUE(read_run_status((dir / "missing").string()).sites.empty());
}

// A snapshot that fails to decode is reported, not fatal, so `cichar
// top` keeps running while the file is unreadable.
TEST_F(ObsFleetViewTest, UnreadableSnapshotIsAnAnomaly) {
    const fs::path path = dir / "lot.status";
    write_file(path, std::string(kStatusMagic) + "garbage");

    const RunView view = read_run_status(dir.string());
    EXPECT_TRUE(view.snapshot_path.empty());
    EXPECT_TRUE(view.sites.empty());
    ASSERT_EQ(view.anomalies.size(), 1u);
    EXPECT_EQ(view.anomalies[0], "unreadable snapshot: " + path.string());
    EXPECT_NE(render_run_text(view).find("! unreadable snapshot"),
              std::string::npos);
}

// A CISTAT1 snapshot (the previous seal) is not corrupt but unreadable
// by this build: reading refuses it with an error naming the format, so
// `cichar status` fails instead of reporting an empty run.
TEST_F(ObsFleetViewTest, OlderFormatSnapshotIsAnError) {
    std::string older = encode_status(StatusSnapshot{});
    older.replace(0, kOlderStatusMagic.size(), kOlderStatusMagic);
    write_file(dir / "hunt.status", older);
    try {
        (void)read_run_status(dir.string());
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

    const RunView view = read_run_status(dir.string(), ledger_dir.string());
    // Capped to the newest eight, oldest first.
    ASSERT_EQ(view.ledger_tail.size(), 8u);
    EXPECT_EQ(view.ledger_tail.front().site, 2u);
    EXPECT_EQ(view.ledger_tail.back().site, 9u);
    EXPECT_DOUBLE_EQ(view.ledger_tail.back().trip_point, 29.0);
    EXPECT_DOUBLE_EQ(view.ledger_tail.back().wcr, -12.0);

    // Read-only contract: the torn tail is still on disk afterwards.
    const auto after = util::read_file(segment_path.string());
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*after, segment);
    EXPECT_NE(*after, clean);
}

}  // namespace
}  // namespace cichar::obs
