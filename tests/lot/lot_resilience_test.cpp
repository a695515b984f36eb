// Lot-level fault tolerance: deterministic per-site fault injection,
// graceful degradation over dead/quarantined sites, a lost reference
// site's fallback, and stop-and-go resume. Byte identity across jobs,
// ring depth and resume for every fault class is the identity table's
// (tests/identity).
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"

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

LotOptions faulted_lot(std::size_t sites, std::size_t jobs) {
    LotOptions options = fast_lot(sites, jobs);
    options.faults.transient_rate = 0.02;
    options.faults.transient_span_fraction = 0.2;
    options.faults.timeout_rate = 0.005;
    options.faults.seed = 11;
    options.policy.enabled = true;
    options.policy.quarantine_after = 8;
    return options;
}

TEST(LotResilienceTest, FaultFreeLotRendersNoHealthSection) {
    const std::string text =
        LotReport::build(LotRunner(fast_lot(2, 2)).run()).render();
    EXPECT_EQ(text.find("site health"), std::string::npos);
}

TEST(LotResilienceTest, FaultedLotRendersHealthAndQuarantineCounters) {
    const std::string text =
        LotReport::build(LotRunner(faulted_lot(2, 2)).run()).render();
    EXPECT_NE(text.find("site health"), std::string::npos);
    EXPECT_NE(text.find("sites quarantined:"), std::string::npos);
    EXPECT_NE(text.find("lot injected faults:"), std::string::npos);
    EXPECT_NE(text.find("lot policy activity:"), std::string::npos);
}

TEST(LotResilienceTest, DeadSitesDegradeGracefully) {
    // An aggressive death rate kills sites mid-campaign; the lot must
    // still complete and report on whatever survived.
    LotOptions options = faulted_lot(4, 2);
    options.faults.site_death_rate = 0.002;
    options.faults.seed = 5;
    const LotResult result = LotRunner(options).run();

    ASSERT_TRUE(result.complete());
    std::size_t dead = 0;
    for (const SiteResult& site : result.sites) {
        if (site.status == SiteStatus::kDead) {
            ++dead;
            EXPECT_TRUE(site.outcomes.empty());
            EXPECT_EQ(site.max_risk, 1.0);
            EXPECT_GT(site.injected.site_deaths, 0u);
        }
    }
    EXPECT_GT(dead, 0u) << "death rate chosen to kill at least one site";

    // The report never throws over lost sites and labels them.
    const LotReport report = LotReport::build(result);
    EXPECT_EQ(report.failed_site_count(), dead);
    const std::string text = report.render();
    EXPECT_NE(text.find("dead"), std::string::npos);
    // Dead sites are outliers by definition (no found trip).
    for (const SiteSummary& site : report.sites()) {
        if (site.status == SiteStatus::kDead) {
            EXPECT_TRUE(site.outlier);
        }
    }
}

TEST(LotResilienceTest, AllSitesDeadStillEmitsReport) {
    LotOptions options = faulted_lot(2, 1);
    options.faults.site_death_rate = 0.2;  // nothing survives this
    const LotResult result = LotRunner(options).run();
    for (const SiteResult& site : result.sites) {
        EXPECT_EQ(site.status, SiteStatus::kDead);
    }
    const std::string text = LotReport::build(result).render();
    EXPECT_NE(text.find("no surviving site found a worst case"),
              std::string::npos);
    EXPECT_NE(text.find("dead: 2"), std::string::npos);
}

struct LotLeg {
    LotResult result;
    std::string last_checkpoint;
    std::size_t checkpoints = 0;
};

LotLeg run_leg(LotOptions options, const std::string& resume_blob,
               std::size_t max_sites_per_run) {
    LotLeg leg;
    options.checkpoint.resume_blob = resume_blob;
    options.checkpoint.max_sites_per_run = max_sites_per_run;
    options.checkpoint.save = [&leg](const std::string& blob) {
        leg.last_checkpoint = blob;
        ++leg.checkpoints;
    };
    leg.result = LotRunner(options).run();
    return leg;
}

/// Stops `options` after `stop_after` sites, resumes the rest from the
/// last checkpoint, and requires the resumed lot to match an
/// uninterrupted one: report, ledger, per-site health, and final
/// checkpoint bytes. Returns the resumed result.
LotResult expect_stop_and_go_matches(const LotOptions& options,
                                     std::size_t stop_after = 2) {
    const LotLeg reference = run_leg(options, "", 0);
    EXPECT_TRUE(reference.result.complete());
    EXPECT_EQ(reference.checkpoints, options.sites);

    // First leg characterizes only `stop_after` sites ("the process was
    // killed after them"), the second leg resumes from its checkpoint.
    const LotLeg first = run_leg(options, "", stop_after);
    EXPECT_FALSE(first.result.complete());
    EXPECT_EQ(first.result.finished_sites(), stop_after);
    EXPECT_FALSE(first.last_checkpoint.empty());

    LotLeg second = run_leg(options, first.last_checkpoint, 0);
    EXPECT_TRUE(second.result.complete());
    std::size_t restored = 0;
    for (const SiteResult& site : second.result.sites) {
        if (site.restored) ++restored;
    }
    EXPECT_EQ(restored, stop_after);
    // The resumed run re-learned on the same reference site.
    EXPECT_EQ(second.result.reference_site, reference.result.reference_site);

    // Restored sites re-encode exactly as they were written, so the
    // resumed run's final checkpoint is the uninterrupted run's.
    EXPECT_EQ(second.last_checkpoint, reference.last_checkpoint);
    EXPECT_EQ(LotReport::build(second.result).render(),
              LotReport::build(reference.result).render());
    EXPECT_EQ(second.result.merged_log.report(),
              reference.result.merged_log.report());
    for (std::size_t s = 0; s < options.sites; ++s) {
        EXPECT_EQ(second.result.sites[s].status,
                  reference.result.sites[s].status);
        EXPECT_EQ(second.result.sites[s].faults,
                  reference.result.sites[s].faults);
        EXPECT_EQ(second.result.sites[s].injected,
                  reference.result.sites[s].injected);
    }
    return std::move(second.result);
}

/// A replica lot whose site 0 dies while it learns for the lot, and
/// whose sites 1-3 complete (fault seed chosen for that).
LotOptions lost_reference_lot(std::size_t jobs, std::size_t inflight) {
    LotOptions options = faulted_lot(4, jobs);
    options.inflight = inflight;
    options.faults.site_death_rate = 0.002;
    options.faults.seed = 40;
    return options;
}

TEST(LotResilienceTest, ReferenceFallsBackWhenSiteZeroDiesLearning) {
    const LotResult lot = LotRunner(lost_reference_lot(1, 1)).run();
    ASSERT_TRUE(lot.complete());

    // Site 0 died before it finished learning: no hunt, no committee.
    const SiteResult& lost = lot.sites[0];
    EXPECT_EQ(lost.status, SiteStatus::kDead);
    EXPECT_GT(lost.injected.site_deaths, 0u);
    EXPECT_TRUE(lost.outcomes.empty());
    EXPECT_TRUE(lost.campaigns.empty());
    EXPECT_EQ(lost.max_risk, 1.0);
    EXPECT_GT(lost.log.phase_counters("learning").applications, 0u);
    EXPECT_EQ(lost.log.phase_counters("ga-optimization").applications, 0u);

    // Site 1 learned for the lot instead, and every other site survived.
    ASSERT_EQ(lot.reference_site, std::optional<std::size_t>{1});
    ASSERT_EQ(lot.learned.size(), 1u);
    EXPECT_GT(lot.sites[1].log.phase_counters("learning").applications, 0u);
    for (std::size_t s = 1; s < lot.sites.size(); ++s) {
        SCOPED_TRACE("site " + std::to_string(s));
        EXPECT_EQ(lot.sites[s].status, SiteStatus::kCompleted);
        ASSERT_EQ(lot.sites[s].campaigns.size(), 1u);
        EXPECT_EQ(lot.sites[s].campaigns[0].learned, lot.learned[0]);
        if (s > 1) {
            EXPECT_EQ(
                lot.sites[s].log.phase_counters("learning").applications, 0u);
        }
    }

    // The fallback is serial, so jobs and ring depth change no byte.
    const std::string report = LotReport::build(lot).render();
    const std::string ledger = lot.merged_log.report();
    for (const std::size_t inflight : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            if (inflight == 1 && jobs == 1) continue;  // the reference
            SCOPED_TRACE("inflight=" + std::to_string(inflight) +
                         " jobs=" + std::to_string(jobs));
            const LotResult run =
                LotRunner(lost_reference_lot(jobs, inflight)).run();
            EXPECT_EQ(LotReport::build(run).render(), report);
            EXPECT_EQ(run.merged_log.report(), ledger);
        }
    }

    // Stopped after the lost candidate alone (before any site learned
    // for the lot) or after the fallback reference finished, a resumed
    // lot re-learns on site 1 and matches.
    (void)expect_stop_and_go_matches(lost_reference_lot(2, 4), 1);
    (void)expect_stop_and_go_matches(lost_reference_lot(2, 4), 2);
}

TEST(LotResilienceTest, PartialLotReportThrows) {
    const LotLeg first = run_leg(fast_lot(3, 1), "", 1);
    EXPECT_FALSE(first.result.complete());
    EXPECT_THROW((void)LotReport::build(first.result), std::invalid_argument);
}

TEST(LotResilienceTest, ResumeRejectsMismatchedConfiguration) {
    const LotLeg first = run_leg(fast_lot(2, 1), "", 1);
    ASSERT_FALSE(first.last_checkpoint.empty());

    LotOptions other = fast_lot(2, 1);
    other.seed = 78;  // different lot: different dies, different streams
    other.checkpoint.resume_blob = first.last_checkpoint;
    EXPECT_THROW((void)LotRunner(other).run(), std::runtime_error);

    // The same lot's checkpoint written under the fingerprint of the
    // time before sites shared the reference site's learning: its sites
    // trained their own committees, so it is refused.
    const std::string fingerprint = LotRunner(fast_lot(2, 1)).fingerprint();
    const std::string token = ":learn=reference";
    ASSERT_NE(fingerprint.find(token), std::string::npos);
    std::string old_fingerprint = fingerprint;
    old_fingerprint.erase(old_fingerprint.find(token), token.size());
    std::string payload;
    ASSERT_TRUE(
        core::decode_checkpoint(first.last_checkpoint, fingerprint, payload));
    LotOptions older = fast_lot(2, 1);
    older.checkpoint.resume_blob =
        core::encode_checkpoint(old_fingerprint, payload);
    EXPECT_THROW((void)LotRunner(older).run(), std::runtime_error);

    // A truncated blob is corruption, not a different lot — also rejected.
    LotOptions same = fast_lot(2, 1);
    same.checkpoint.resume_blob =
        first.last_checkpoint.substr(0, first.last_checkpoint.size() / 2);
    EXPECT_THROW((void)LotRunner(same).run(), std::runtime_error);
}

}  // namespace
}  // namespace cichar::lot
