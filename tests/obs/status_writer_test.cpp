#include "obs/status_writer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "obs/status_board.hpp"
#include "obs/status_format.hpp"
#include "util/binio.hpp"

namespace cichar::obs {
namespace {

namespace fs = std::filesystem;

struct ObsStatusWriterTest : ::testing::Test {
    ObsStatusWriterTest()
        : dir(std::string("obs_writer_test_dir_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()) {
        fs::remove_all(dir);
        StatusBoard::instance().reset_for_test();
        set_status_enabled(true);
    }
    ~ObsStatusWriterTest() override {
        set_status_enabled(false);
        StatusBoard::instance().reset_for_test();
        fs::remove_all(dir);
    }

    std::optional<StatusSnapshot> read_snapshot(const std::string& path) {
        const auto contents = util::read_file(path);
        if (!contents) return std::nullopt;
        return decode_status(*contents);
    }

    fs::path dir;
};

TEST_F(ObsStatusWriterTest, PublishesImmediatelyAndOnStop) {
    StatusBoard::instance().begin_campaign("lot", "fp-writer", 7, 2);

    StatusWriterOptions options;
    options.directory = dir.string();
    options.name = "worker_a";
    options.interval_seconds = 60.0;  // only the immediate + final writes
    StatusWriter writer(std::move(options));
    EXPECT_EQ(writer.path(), (dir / "worker_a.status").string());

    // The first snapshot is published on construction, not a tick later.
    for (int i = 0; i < 200 && !fs::exists(writer.path()); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    auto first = read_snapshot(writer.path());
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->kind, "lot");
    EXPECT_EQ(first->fingerprint, "fp-writer");

    // stop() joins and republishes the terminal state.
    StatusBoard::instance().site_finished(0, SitePhase::kDone, {}, 1.0, 0,
                                          0);
    writer.stop();
    auto final_snap = read_snapshot(writer.path());
    ASSERT_TRUE(final_snap.has_value());
    EXPECT_GT(final_snap->sequence, first->sequence);
    EXPECT_EQ(final_snap->finished_sites(), 1u);
    writer.stop();  // idempotent
}

TEST_F(ObsStatusWriterTest, TicksOnIntervalAndFiresOnTick) {
    StatusBoard::instance().begin_campaign("hunt", "fp-tick", 1, 1);

    std::atomic<int> ticks{0};
    StatusWriterOptions options;
    options.directory = dir.string();
    options.name = "worker_b";
    options.interval_seconds = 0.02;
    options.on_tick = [&ticks] { ++ticks; };
    StatusWriter writer(std::move(options));

    for (int i = 0; i < 500 && ticks.load() < 3; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    writer.stop();
    EXPECT_GE(ticks.load(), 3);

    auto snap = read_snapshot(writer.path());
    ASSERT_TRUE(snap.has_value());
    EXPECT_GE(snap->sequence, 2u);
}

TEST_F(ObsStatusWriterTest, WriteNowIsAtomicAndDecodable) {
    StatusBoard::instance().begin_campaign("lot", "fp-now", 3, 8);
    StatusWriterOptions options;
    options.directory = dir.string();
    options.name = "worker_c";
    options.interval_seconds = 60.0;
    StatusWriter writer(std::move(options));
    writer.write_now();
    auto snap = read_snapshot(writer.path());
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->sites_total, 8u);
    // No stray temp files linger after a publish.
    writer.stop();
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace cichar::obs
