// Lot-level fault tolerance: deterministic per-site fault injection,
// graceful degradation over dead/quarantined sites, and crash-safe
// stop-and-go resume that reproduces the uninterrupted LotReport byte
// for byte.
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

TEST(LotResilienceTest, FaultedLotIsByteIdenticalAcrossThreadCounts) {
    const LotResult serial = LotRunner(faulted_lot(3, 1)).run();
    const LotResult parallel = LotRunner(faulted_lot(3, 4)).run();

    EXPECT_EQ(LotReport::build(serial).render(),
              LotReport::build(parallel).render());
    ASSERT_EQ(serial.sites.size(), parallel.sites.size());
    for (std::size_t s = 0; s < serial.sites.size(); ++s) {
        EXPECT_EQ(serial.sites[s].status, parallel.sites[s].status);
        EXPECT_EQ(serial.sites[s].faults, parallel.sites[s].faults);
        EXPECT_EQ(serial.sites[s].injected, parallel.sites[s].injected);
    }
    // The profile really fired somewhere in the lot.
    std::uint64_t injected = 0;
    for (const SiteResult& site : serial.sites) {
        injected += site.injected.injected();
    }
    EXPECT_GT(injected, 0u);

    // Replica lots under the same faults and policy: byte-identical at
    // any inflight x jobs against the blocking one-worker replica lot.
    const auto replica = [](std::size_t jobs, std::size_t inflight) {
        LotOptions options = faulted_lot(3, jobs);
        options.inflight = inflight;
        return LotRunner(options).run();
    };
    const LotResult reference = replica(1, 1);
    const std::string reference_report = LotReport::build(reference).render();
    const std::string reference_ledger = reference.merged_log.report();
    for (const std::size_t inflight :
         {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            if (inflight == 1 && jobs == 1) continue;  // the reference
            SCOPED_TRACE("inflight=" + std::to_string(inflight) +
                         " jobs=" + std::to_string(jobs));
            const LotResult run = replica(jobs, inflight);
            EXPECT_EQ(LotReport::build(run).render(), reference_report);
            EXPECT_EQ(run.merged_log.report(), reference_ledger);
        }
    }
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
        if (site.status == SiteStatus::kDead) EXPECT_TRUE(site.outlier);
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

/// Stops `options` after two sites, resumes the rest from the last
/// checkpoint, and requires the resumed lot to match an uninterrupted
/// one: report, ledger, per-site health, and final checkpoint bytes.
/// Returns the resumed result.
LotResult expect_stop_and_go_matches(const LotOptions& options) {
    const LotLeg reference = run_leg(options, "", 0);
    EXPECT_TRUE(reference.result.complete());
    EXPECT_EQ(reference.checkpoints, options.sites);

    // First leg characterizes only two sites ("the process was killed
    // after the second"), the second leg resumes from its checkpoint.
    const LotLeg first = run_leg(options, "", 2);
    EXPECT_FALSE(first.result.complete());
    EXPECT_EQ(first.result.finished_sites(), 2u);
    EXPECT_FALSE(first.last_checkpoint.empty());

    LotLeg second = run_leg(options, first.last_checkpoint, 0);
    EXPECT_TRUE(second.result.complete());
    std::size_t restored = 0;
    for (const SiteResult& site : second.result.sites) {
        if (site.restored) ++restored;
    }
    EXPECT_EQ(restored, 2u);

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

TEST(LotResilienceTest, StopAndGoResumeMatchesUninterruptedLot) {
    (void)expect_stop_and_go_matches(faulted_lot(4, 2));

    // Site deaths on top of the profile degrade a site before the stop;
    // its health must survive the checkpoint codec into the report.
    LotOptions deadly = faulted_lot(4, 2);
    deadly.faults.site_death_rate = 0.002;
    deadly.faults.seed = 5;
    const LotResult resumed = expect_stop_and_go_matches(deadly);
    std::size_t restored_degraded = 0;
    for (const SiteResult& site : resumed.sites) {
        if (site.restored && site.status != SiteStatus::kCompleted) {
            ++restored_degraded;
        }
    }
    EXPECT_GT(restored_degraded, 0u)
        << "fault profile chosen to degrade a restored site";
    EXPECT_NE(LotReport::build(resumed).render().find("site health"),
              std::string::npos);
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

    // A truncated blob is corruption, not a different lot — also rejected.
    LotOptions same = fast_lot(2, 1);
    same.checkpoint.resume_blob =
        first.last_checkpoint.substr(0, first.last_checkpoint.size() / 2);
    EXPECT_THROW((void)LotRunner(same).run(), std::runtime_error);
}

}  // namespace
}  // namespace cichar::lot
