#include "obs/status_board.hpp"

#include <gtest/gtest.h>

namespace cichar::obs {
namespace {

GenerationPost sample_post(std::uint64_t generation) {
    GenerationPost post;
    post.generation = generation;
    post.generations_total = 14;
    post.evaluations = 10 * generation;
    post.best_wcr = -2.0 - static_cast<double>(generation);
    post.ate_applications = 25 * generation;
    post.cache_hits = 4 * generation;
    post.cache_misses = generation;
    post.inflight = 4;
    return post;
}

struct ObsStatusBoardTest : ::testing::Test {
    ObsStatusBoardTest() { StatusBoard::instance().reset_for_test(); }
    ~ObsStatusBoardTest() override {
        StatusBoard::instance().reset_for_test();
        set_status_enabled(false);
    }
};

TEST_F(ObsStatusBoardTest, FeedIsOffByDefault) {
    EXPECT_FALSE(status_enabled());
    set_status_enabled(true);
    EXPECT_TRUE(status_enabled());
    set_status_enabled(false);
    EXPECT_FALSE(status_enabled());
}

TEST_F(ObsStatusBoardTest, CampaignIdentityAndSequence) {
    StatusBoard& board = StatusBoard::instance();
    board.begin_campaign("lot", "fp-abc", 77, 4);
    StatusSnapshot first = board.snapshot();
    EXPECT_EQ(first.kind, "lot");
    EXPECT_EQ(first.fingerprint, "fp-abc");
    EXPECT_EQ(first.seed, 77u);
    EXPECT_EQ(first.sites_total, 4u);
    EXPECT_NE(first.pid, 0u);
    EXPECT_GE(first.uptime_seconds, 0.0);
    StatusSnapshot second = board.snapshot();
    EXPECT_GT(second.sequence, first.sequence);
}

TEST_F(ObsStatusBoardTest, SiteLifecyclePhases) {
    StatusBoard& board = StatusBoard::instance();
    board.begin_campaign("lot", "fp", 1, 2);

    board.begin_site(0);
    StatusSnapshot snap = board.snapshot();
    ASSERT_EQ(snap.sites.size(), 1u);
    EXPECT_EQ(snap.sites[0].phase, SitePhase::kTraining);

    // A lot site that hunts with its reference site's committee starts
    // hunting; it never trains.
    board.begin_site(1, SitePhase::kHunting);
    snap = board.snapshot();
    ASSERT_EQ(snap.sites.size(), 2u);
    EXPECT_EQ(snap.sites[1].phase, SitePhase::kHunting);

    board.post_generation(0, sample_post(3));
    snap = board.snapshot();
    EXPECT_EQ(snap.sites[0].phase, SitePhase::kHunting);
    EXPECT_EQ(snap.sites[0].generation, 3u);
    EXPECT_EQ(snap.sites[0].generations_total, 14u);
    EXPECT_EQ(snap.sites[0].evaluations, 30u);
    EXPECT_EQ(snap.sites[0].ate_applications, 75u);
    EXPECT_EQ(snap.sites[0].cache_hits, 12u);
    EXPECT_EQ(snap.sites[0].inflight, 4u);
    EXPECT_GE(snap.sites[0].elapsed_seconds, 0.0);

    SiteOutcomeEntry outcome;
    outcome.parameter = "T_DQ";
    outcome.found = true;
    outcome.trip_point = 21.5;
    outcome.wcr = -3.0;
    board.site_finished(0, SitePhase::kDone, {outcome}, 2.5,
                        /*policy_retries=*/2, /*policy_interventions=*/1);
    snap = board.snapshot();
    EXPECT_EQ(snap.sites[0].phase, SitePhase::kDone);
    ASSERT_EQ(snap.sites[0].outcomes.size(), 1u);
    EXPECT_EQ(snap.sites[0].outcomes[0], outcome);
    EXPECT_DOUBLE_EQ(snap.sites[0].elapsed_seconds, 2.5);
    EXPECT_EQ(snap.policy_retries, 2u);
    EXPECT_EQ(snap.policy_interventions, 1u);
    ASSERT_EQ(snap.completed_seconds.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.completed_seconds[0], 2.5);
    EXPECT_EQ(snap.finished_sites(), 1u);
}

TEST_F(ObsStatusBoardTest, RestoredSitesDoNotFeedEtaHistogram) {
    StatusBoard& board = StatusBoard::instance();
    board.begin_campaign("lot", "fp", 1, 2);
    board.site_finished(0, SitePhase::kDone, {}, 0.0, 0, 0,
                        /*restored=*/true);
    const StatusSnapshot snap = board.snapshot();
    ASSERT_EQ(snap.sites.size(), 1u);
    EXPECT_EQ(snap.sites[0].phase, SitePhase::kDone);
    EXPECT_TRUE(snap.completed_seconds.empty());
}

TEST_F(ObsStatusBoardTest, QuarantineCountsAsFinished) {
    StatusBoard& board = StatusBoard::instance();
    board.begin_campaign("lot", "fp", 1, 3);
    board.site_finished(1, SitePhase::kQuarantined, {}, 1.0, 0, 4);
    const StatusSnapshot snap = board.snapshot();
    EXPECT_EQ(snap.count(SitePhase::kQuarantined), 1u);
    EXPECT_EQ(snap.finished_sites(), 1u);
    // Quarantined sites never enter the completion-time histogram.
    EXPECT_TRUE(snap.completed_seconds.empty());
}

TEST_F(ObsStatusBoardTest, BeginCampaignResetsState) {
    StatusBoard& board = StatusBoard::instance();
    board.begin_campaign("lot", "fp-a", 1, 2);
    board.begin_site(0);
    board.site_finished(0, SitePhase::kDone, {}, 1.0, 5, 5);
    board.begin_campaign("hunt", "fp-b", 2, 1);
    const StatusSnapshot snap = board.snapshot();
    EXPECT_EQ(snap.kind, "hunt");
    EXPECT_EQ(snap.fingerprint, "fp-b");
    EXPECT_TRUE(snap.sites.empty());
    EXPECT_EQ(snap.policy_retries, 0u);
    EXPECT_TRUE(snap.completed_seconds.empty());
}

}  // namespace
}  // namespace cichar::obs
