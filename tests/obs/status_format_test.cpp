#include "obs/status_format.hpp"

#include <gtest/gtest.h>

#include <string>

namespace cichar::obs {
namespace {

StatusSnapshot sample_snapshot() {
    StatusSnapshot snap;
    snap.kind = "lot";
    snap.fingerprint = "fp-1234abcd";
    snap.seed = 77;
    snap.pid = 4242;
    snap.sequence = 9;
    snap.uptime_seconds = 12.5;
    snap.sites_total = 4;
    snap.policy_retries = 3;
    snap.policy_interventions = 1;

    SiteStatusEntry hunting;
    hunting.site = 0;
    hunting.phase = SitePhase::kHunting;
    hunting.generation = 5;
    hunting.generations_total = 14;
    hunting.evaluations = 120;
    hunting.best_wcr = -4.25;
    hunting.ate_applications = 220;
    hunting.cache_hits = 40;
    hunting.cache_misses = 80;
    hunting.inflight = 4;
    hunting.elapsed_seconds = 3.25;
    snap.sites.push_back(hunting);

    SiteStatusEntry done;
    done.site = 1;
    done.phase = SitePhase::kDone;
    done.generation = 14;
    done.generations_total = 14;
    done.elapsed_seconds = 8.0;
    SiteOutcomeEntry outcome;
    outcome.parameter = "T_DQ";
    outcome.found = true;
    outcome.trip_point = 21.75;
    outcome.wcr = -3.5;
    outcome.margin_risk = 0.125;
    done.outcomes.push_back(outcome);
    snap.sites.push_back(done);

    snap.completed_seconds = {8.0, 7.5};
    return snap;
}

TEST(ObsStatusFormatTest, RoundTripsEveryField) {
    const StatusSnapshot snap = sample_snapshot();
    const std::string bytes = encode_status(snap);
    ASSERT_EQ(bytes.substr(0, kStatusMagic.size()), kStatusMagic);
    const auto decoded = decode_status(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, snap);
}

TEST(ObsStatusFormatTest, EncodingIsByteStable) {
    EXPECT_EQ(encode_status(sample_snapshot()),
              encode_status(sample_snapshot()));
}

TEST(ObsStatusFormatTest, AggregateHelpers) {
    const StatusSnapshot snap = sample_snapshot();
    EXPECT_EQ(snap.count(SitePhase::kHunting), 1u);
    EXPECT_EQ(snap.count(SitePhase::kDone), 1u);
    EXPECT_EQ(snap.finished_sites(), 1u);
    EXPECT_EQ(snap.ate_applications(), 220u);
    EXPECT_EQ(snap.cache_hits(), 40u);
    EXPECT_EQ(snap.cache_misses(), 80u);
}

TEST(ObsStatusFormatTest, PhaseNamesAndTerminality) {
    EXPECT_STREQ(to_string(SitePhase::kPending), "pending");
    EXPECT_STREQ(to_string(SitePhase::kHunting), "hunting");
    EXPECT_TRUE(is_terminal(SitePhase::kDone));
    EXPECT_TRUE(is_terminal(SitePhase::kQuarantined));
    EXPECT_TRUE(is_terminal(SitePhase::kDead));
    EXPECT_FALSE(is_terminal(SitePhase::kPending));
    EXPECT_FALSE(is_terminal(SitePhase::kTraining));
    EXPECT_FALSE(is_terminal(SitePhase::kHunting));
}

TEST(ObsStatusFormatTest, CacheHitRate) {
    SiteStatusEntry entry;
    EXPECT_DOUBLE_EQ(entry.cache_hit_rate(), 0.0);
    entry.cache_hits = 3;
    entry.cache_misses = 1;
    EXPECT_DOUBLE_EQ(entry.cache_hit_rate(), 0.75);
}

}  // namespace
}  // namespace cichar::obs
