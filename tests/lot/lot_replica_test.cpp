// Lot-wide replica hunts, one measurement ring per site: switching a lot
// from classic serial in-situ site hunts (inflight 0) to replica
// evaluation (inflight >= 1) is fingerprinted, but *within* replica mode
// every inflight x jobs configuration must render a byte-identical
// LotReport and measurement ledger — including a lot killed mid-run and
// resumed under a different ring depth, and a lot whose emulated tester
// latency keeps several requests in each ring.
#include "lot/lot_runner.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/checkpoint.hpp"
#include "lot/lot_report.hpp"
#include "util/telemetry.hpp"

namespace cichar::lot {
namespace {

LotOptions replica_lot(std::size_t sites, std::size_t jobs,
                       std::size_t inflight) {
    LotOptions options;
    options.sites = sites;
    options.jobs = jobs;
    options.inflight = inflight;
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

struct LotRun {
    std::string report;
    std::string ledger;
};

LotRun run_lot(const LotOptions& options) {
    const LotResult result = LotRunner(options).run();
    LotRun run;
    run.report = LotReport::build(result).render();
    run.ledger = result.merged_log.report();
    return run;
}

TEST(LotReplicaTest, ReportByteIdenticalAcrossDepthJobsSlabAndSharing) {
    // One site at a time at ring depth 1: the reference discipline. Each
    // site hunt's slab holds `inflight` replicas, so the depth sweeps
    // slab size too. With no emulated latency every completion ripens at
    // once, so no ring here ever holds two requests; the latency row
    // below covers deeper rings.
    const LotRun reference = run_lot(replica_lot(3, 1, 1));

    struct Config {
        std::size_t jobs;
        std::size_t inflight;
    };
    const Config configs[] = {
        {1, 16},
        {4, 16},
        {2, 4},
        {4, 1},  // four sites at a time, each at ring depth 1
    };
    for (const Config& config : configs) {
        SCOPED_TRACE("jobs=" + std::to_string(config.jobs) +
                     " inflight=" + std::to_string(config.inflight));
        const LotRun run =
            run_lot(replica_lot(3, config.jobs, config.inflight));
        EXPECT_EQ(run.report, reference.report);
        EXPECT_EQ(run.ledger, reference.ledger);
    }
}

TEST(LotReplicaTest, FaultedReportByteIdenticalAcrossDepthAndJobs) {
    // Moderate faults with the policy on, quarantining after eight
    // consecutive unrecoverable tests as `cichar lot` sets it: the retries,
    // screens and votes run inside the async engine's measurement tasks,
    // and every row must match one site at a time at ring depth 1.
    const auto faulted_lot = [](std::size_t jobs, std::size_t inflight) {
        LotOptions options = replica_lot(3, jobs, inflight);
        options.faults = ate::FaultProfile::moderate();
        options.policy.enabled = true;
        options.policy.quarantine_after = 8;
        return options;
    };
    const LotRun reference = run_lot(faulted_lot(1, 1));
    // The policy had work to do.
    ASSERT_NE(reference.report.find("lot policy activity: "),
              std::string::npos);
    EXPECT_EQ(reference.report.find("lot policy activity: clean"),
              std::string::npos);
    for (const std::size_t inflight : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " inflight=" + std::to_string(inflight));
            const LotRun run = run_lot(faulted_lot(jobs, inflight));
            EXPECT_EQ(run.report, reference.report);
            EXPECT_EQ(run.ledger, reference.ledger);
        }
    }
}

TEST(LotReplicaTest, StopAndGoResumeAcrossRingDepths) {
    // Kill after two sites at ring depth 16, resume at ring depth 1: the
    // checkpoint carries no ring state, so the fused lot must match an
    // uninterrupted run at yet another depth.
    const LotRun reference = run_lot(replica_lot(4, 2, 8));

    LotOptions first_leg = replica_lot(4, 2, 16);
    first_leg.checkpoint.max_sites_per_run = 2;
    std::string checkpoint;
    first_leg.checkpoint.save = [&checkpoint](const std::string& blob) {
        checkpoint = blob;
    };
    const LotResult partial = LotRunner(first_leg).run();
    EXPECT_FALSE(partial.complete());
    ASSERT_FALSE(checkpoint.empty());

    LotOptions second_leg = replica_lot(4, 2, 1);
    second_leg.checkpoint.resume_blob = checkpoint;
    const LotResult fused = LotRunner(second_leg).run();
    ASSERT_TRUE(fused.complete());
    EXPECT_EQ(LotReport::build(fused).render(), reference.report);
    EXPECT_EQ(fused.merged_log.report(), reference.ledger);
}

TEST(LotReplicaTest, EmulatedLatencyRingDepthIsByteIdentical) {
    // Emulated tester latency: completions ripen at submit time plus a
    // per-pattern deadline, so a deep ring really holds several requests
    // and harvests them out of submission order. Reports and checkpoints
    // must still match ring depth 1, faults and policy included.
    namespace telem = util::telemetry;
    const auto latency_lot = [](std::size_t inflight) {
        LotOptions options = replica_lot(3, 2, inflight);
        // Per-cycle time dominates the fixed setup, so deadlines follow
        // pattern length and a short pattern overtakes a long one.
        options.tester.cycle_seconds = 1e-5;
        options.tester.realtime_fraction = 1e-2;
        options.faults = ate::FaultProfile::moderate();
        options.policy.enabled = true;
        options.policy.quarantine_after = 8;
        return options;
    };
    struct Run {
        std::string report;
        std::string checkpoint;
    };
    const auto run = [](LotOptions options) {
        Run out;
        options.checkpoint.save = [&out](const std::string& blob) {
            out.checkpoint = blob;
        };
        out.report = LotReport::build(LotRunner(options).run()).render();
        return out;
    };

    const Run shallow = run(latency_lot(1));
    telem::set_metrics_enabled(true);
    const Run deep = run(latency_lot(8));
    telem::set_metrics_enabled(false);
    const std::uint64_t reordered =
        telem::Registry::instance()
            .counter("cichar_ate_async_completions_reordered_total")
            .value();
    telem::Registry::instance().reset_values();

    ASSERT_FALSE(shallow.checkpoint.empty());
    EXPECT_EQ(deep.report, shallow.report);
    EXPECT_EQ(deep.checkpoint, shallow.checkpoint);
    // The deep rings held more than one request at a time.
    EXPECT_GT(reordered, 0u);
}

TEST(LotReplicaTest, FingerprintSeparatesReplicaFromClassicOnly) {
    // The 0 -> >=1 switch changes the measurement discipline and must be
    // fingerprinted; depth and jobs are perf knobs and must not be (a
    // checkpoint resumes across both).
    const std::string classic = LotRunner(replica_lot(3, 1, 0)).fingerprint();
    const std::string replica = LotRunner(replica_lot(3, 1, 1)).fingerprint();
    EXPECT_NE(classic, replica);
    // Pre-replica checkpoints stay valid: the classic fingerprint does
    // not mention the replica bit at all.
    EXPECT_EQ(classic.find("replica"), std::string::npos);

    EXPECT_EQ(LotRunner(replica_lot(3, 4, 16)).fingerprint(), replica);

    // Replica sites now learn on replicas too, so the replica token moved
    // on: a checkpoint from when they learned in situ must not resume.
    EXPECT_NE(replica.find(":replica=2"), std::string::npos);
    EXPECT_EQ(replica.find(":replica=1"), std::string::npos);
    const std::string stale_replica = classic + ":replica=1";
    EXPECT_NE(replica, stale_replica);
    LotOptions resumed = replica_lot(3, 1, 1);
    resumed.checkpoint.resume_blob =
        core::encode_checkpoint(stale_replica, encode_finished_sites({}));
    EXPECT_THROW((void)LotRunner(resumed).run(), std::runtime_error);
}

TEST(LotReplicaTest, ClassicLotDiffersFromReplicaLot) {
    // inflight 0 keeps the pre-replica serial in-situ discipline; its
    // results are expected to differ from replica hunts (same contract
    // as --jobs on a single hunt). This pins the mode switch as a real
    // discipline change rather than a silent default flip.
    const LotRun classic = run_lot(replica_lot(2, 1, 0));
    const LotRun replica = run_lot(replica_lot(2, 1, 1));
    EXPECT_NE(classic.report, replica.report);
}

}  // namespace
}  // namespace cichar::lot
