#include "lot/lot_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>

#include "lot/lot_report.hpp"

namespace cichar::lot {
namespace {

LotOptions fast_lot(std::size_t sites, std::size_t jobs) {
    LotOptions options;
    options.sites = sites;
    options.jobs = jobs;
    options.seed = 77;
    options.characterizer.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.characterizer.learner.training_tests = 24;
    options.characterizer.learner.max_rounds = 1;
    options.characterizer.learner.committee.members = 2;
    options.characterizer.learner.committee.hidden_layers = {8};
    options.characterizer.learner.committee.train.max_epochs = 40;
    options.characterizer.optimizer.ga.population.size = 8;
    options.characterizer.optimizer.ga.populations = 2;
    options.characterizer.optimizer.ga.max_generations = 4;
    options.characterizer.optimizer.nn_candidates = 80;
    options.characterizer.optimizer.nn_seed_count = 4;
    return options;
}

/// One T_DQ campaign per site, distinct dies, and a merged ledger that
/// sums the sites'.
void expect_one_campaign_per_site(const LotResult& result) {
    for (std::size_t s = 0; s < result.sites.size(); ++s) {
        const SiteResult& site = result.sites[s];
        EXPECT_EQ(site.site, s);
        ASSERT_EQ(site.campaigns.size(), 1u);  // default parameter: T_DQ
        EXPECT_EQ(site.campaigns[0].parameter.name, "T_DQ");
        EXPECT_GT(site.log.total().applications, 0u);
        EXPECT_GE(site.max_risk, 0.0);
        EXPECT_LE(site.max_risk, 1.0);
    }
    // Sites are distinct dies, not clones of one another.
    EXPECT_NE(result.sites[0].die, result.sites[1].die);
    // The merged ledger is the sum of the per-site ledgers.
    std::uint64_t applications = 0;
    for (const SiteResult& site : result.sites) {
        applications += site.log.total().applications;
    }
    EXPECT_EQ(result.merged_log.total().applications, applications);
}

TEST(LotRunnerTest, RunsOneCampaignPerSite) {
    const LotRunner runner(fast_lot(3, 2));
    const LotResult result = runner.run();
    ASSERT_EQ(result.sites.size(), 3u);
    expect_one_campaign_per_site(result);
}

TEST(LotRunnerTest, LearnsOncePerLot) {
    const LotResult result = LotRunner(fast_lot(3, 2)).run();
    ASSERT_EQ(result.sites.size(), 3u);
    expect_one_campaign_per_site(result);

    // Site 0 learned for the lot; every site hunted with its committee.
    ASSERT_EQ(result.reference_site, std::optional<std::size_t>{0});
    ASSERT_EQ(result.learned.size(), 1u);
    ASSERT_NE(result.learned[0], nullptr);
    const std::uint64_t reference_learning =
        result.sites[0].log.phase_counters("learning").applications;
    EXPECT_GT(reference_learning, 0u);
    for (const SiteResult& site : result.sites) {
        SCOPED_TRACE("site " + std::to_string(site.site));
        if (site.site != 0) {
            EXPECT_EQ(site.log.phase_counters("learning").applications, 0u);
        }
        EXPECT_GT(site.log.phase_counters("ga-optimization").applications,
                  0u);
        ASSERT_EQ(site.campaigns.size(), 1u);
        EXPECT_EQ(site.campaigns[0].learned, result.learned[0]);
    }
    EXPECT_EQ(result.merged_log.phase_counters("learning").applications,
              reference_learning);
}

TEST(LotRunnerTest, DifferentSeedsGiveDifferentLots) {
    LotOptions a = fast_lot(2, 2);
    LotOptions b = fast_lot(2, 2);
    b.seed = a.seed + 1;
    const LotResult ra = LotRunner(a).run();
    const LotResult rb = LotRunner(b).run();
    EXPECT_NE(ra.sites[0].die, rb.sites[0].die);
}

TEST(LotRunnerTest, ZeroSitesYieldsEmptyResult) {
    const LotRunner runner(fast_lot(0, 2));
    const LotResult result = runner.run();
    EXPECT_TRUE(result.sites.empty());
    EXPECT_EQ(result.merged_log.total().applications, 0u);
}

TEST(LotRunnerTest, ProgressCallbackSeesEverySite) {
    LotOptions options = fast_lot(3, 2);
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> last_total{0};
    options.on_progress = [&](std::size_t done, std::size_t total) {
        (void)done;
        ++calls;
        last_total = total;
    };
    (void)LotRunner(options).run();
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_EQ(last_total.load(), 3u);
}

TEST(LotReportTest, FusedSpecGuardBandsTheWorstSite) {
    const LotResult result = LotRunner(fast_lot(4, 2)).run();
    const LotReport report = LotReport::build(result);

    ASSERT_EQ(report.aggregates().size(), 1u);
    const ParameterAggregate& agg = report.aggregates()[0];
    EXPECT_EQ(agg.parameter.name, "T_DQ");
    EXPECT_EQ(agg.sites_found, 4u);
    EXPECT_GE(agg.trip_spread, 0.0);
    // Min-limit parameter: the fused limit sits below every site's worst.
    EXPECT_LE(agg.fused.proposed_limit, agg.trip.min + 1e-9);
    EXPECT_DOUBLE_EQ(agg.fused.observed_worst, agg.trip.min);

    // The outlier rule in the report matches the flags on the sites.
    for (const SiteSummary& site : report.sites()) {
        const bool flagged =
            std::find(agg.outlier_sites.begin(), agg.outlier_sites.end(),
                      site.site) != agg.outlier_sites.end();
        const bool should_flag =
            !site.found[0] ||
            site.risk[0] > agg.median_risk + 0.25 /* default margin */;
        EXPECT_EQ(flagged, should_flag) << "site " << site.site;
        EXPECT_EQ(site.outlier, flagged) << "site " << site.site;
    }
    EXPECT_EQ(report.outlier_sites(), agg.outlier_sites);
}

TEST(LotReportTest, RenderMentionsEverySiteAndTheFusedSpec) {
    const LotResult result = LotRunner(fast_lot(3, 2)).run();
    const std::string text = LotReport::build(result).render();
    EXPECT_NE(text.find("lot characterization report: 3 sites"),
              std::string::npos);
    EXPECT_NE(text.find("T_DQ"), std::string::npos);
    EXPECT_NE(text.find("specification proposal"), std::string::npos);
    EXPECT_NE(text.find("merged lot ledger"), std::string::npos);
}

}  // namespace
}  // namespace cichar::lot
