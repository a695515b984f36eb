// Crash-safe hunt checkpointing: a hunt aborted mid-run (deterministic
// stand-in for SIGKILL) and resumed from its checkpoint blob must finish
// byte-identical to a hunt that was never interrupted — including live
// measurement counts, cache statistics, fault/policy counters, and the
// rendered report.
#include <string>

#include <gtest/gtest.h>

#include "ate/fault_injector.hpp"
#include "core/characterizer.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "device/memory_chip.hpp"
#include "small_model.hpp"

namespace cichar::core {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

OptimizerOptions hunt_options(bool parallel) {
    OptimizerOptions opts;
    opts.ga.population.size = 10;
    opts.ga.populations = 2;
    opts.ga.max_generations = 8;
    opts.ga.stagnation_limit = 4;
    opts.ga.max_restarts = 2;
    opts.ga.migration_interval = 3;
    opts.parallel.enabled = parallel;
    opts.parallel.jobs = 2;
    opts.cache.enabled = true;
    return opts;
}

ate::FaultProfile mild_profile() {
    ate::FaultProfile profile;
    profile.transient_rate = 0.02;
    profile.transient_span_fraction = 0.2;
    profile.timeout_rate = 0.005;
    profile.seed = 7;
    return profile;
}

struct HuntLeg {
    WorstCaseReport report;
    std::string rendered;
    std::uint64_t applications = 0;
    std::string last_checkpoint;
};

/// `anchored` hunts with small_learned_model() (NN seeding, and trip
/// searches anchored at the committee's predicted trip point).
HuntLeg run_leg(OptimizerOptions opts, bool faults,
                const std::string& resume_blob,
                std::size_t abort_after_generation, bool anchored = false) {
    HuntLeg leg;
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    ate::FaultInjector injector(faults ? mild_profile()
                                       : ate::FaultProfile::none());
    if (faults) {
        tester.attach_fault_injector(&injector);
        opts.trip.policy.enabled = true;
    }
    opts.checkpoint.resume_blob = resume_blob;
    opts.checkpoint.abort_after_generation = abort_after_generation;
    opts.checkpoint.save = [&leg](const std::string& blob) {
        leg.last_checkpoint = blob;
    };

    util::Rng rng(2005);
    testgen::RandomGeneratorOptions generator;
    generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    use_small_seeding(opts);
    const WorstCaseOptimizer optimizer(opts);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    leg.report = anchored ? optimizer.run(tester, param, small_learned_model(),
                                          Objective::kDriftToMinimum, rng)
                          : optimizer.run_unseeded(tester, param, generator,
                                                   Objective::kDriftToMinimum,
                                                   rng);
    ReportInputs inputs;
    inputs.seed = 2005;
    inputs.hunt = &leg.report;
    leg.rendered = render_report(inputs);
    leg.applications = tester.log().total().applications;
    return leg;
}

void expect_identical(const HuntLeg& resumed, const HuntLeg& reference) {
    EXPECT_EQ(resumed.report.outcome.best_fitness,
              reference.report.outcome.best_fitness);
    EXPECT_EQ(resumed.report.outcome.best.sequence,
              reference.report.outcome.best.sequence);
    EXPECT_EQ(resumed.report.outcome.best.condition,
              reference.report.outcome.best.condition);
    EXPECT_EQ(resumed.report.outcome.best.pattern_seed,
              reference.report.outcome.best.pattern_seed);
    EXPECT_EQ(resumed.report.outcome.evaluations,
              reference.report.outcome.evaluations);
    EXPECT_EQ(resumed.report.outcome.best_history,
              reference.report.outcome.best_history);
    EXPECT_EQ(resumed.report.worst_record.trip_point,
              reference.report.worst_record.trip_point);
    EXPECT_EQ(resumed.report.worst_record.measurements,
              reference.report.worst_record.measurements);
    EXPECT_EQ(resumed.report.ate_measurements,
              reference.report.ate_measurements);
    EXPECT_EQ(resumed.report.cache_stats.hits, reference.report.cache_stats.hits);
    EXPECT_EQ(resumed.report.cache_stats.misses,
              reference.report.cache_stats.misses);
    EXPECT_EQ(resumed.report.faults, reference.report.faults);
    EXPECT_EQ(resumed.report.injected, reference.report.injected);
    EXPECT_EQ(resumed.report.database.size(), reference.report.database.size());
    EXPECT_EQ(resumed.rendered, reference.rendered);
    EXPECT_EQ(resumed.applications, reference.applications);
}

// Kills a hunt after `abort_after_generation`, resumes it from the last
// checkpoint, and checks it against a hunt that was never interrupted: every
// engine's measurement state (session RTP and policy, replica noise stream
// and RTP, injector, cache, database) must survive the kill.
void expect_kill_and_resume_matches(bool parallel, bool faults,
                                    std::size_t abort_after_generation,
                                    bool anchored = false) {
    const OptimizerOptions opts = hunt_options(parallel);
    const HuntLeg reference = run_leg(opts, faults, "", 0, anchored);
    EXPECT_FALSE(reference.report.aborted);
    EXPECT_FALSE(reference.last_checkpoint.empty());

    HuntLeg aborted =
        run_leg(opts, faults, "", abort_after_generation, anchored);
    EXPECT_TRUE(aborted.report.aborted);
    ASSERT_FALSE(aborted.last_checkpoint.empty());

    const HuntLeg resumed =
        run_leg(opts, faults, aborted.last_checkpoint, 0, anchored);
    EXPECT_FALSE(resumed.report.aborted);
    expect_identical(resumed, reference);
    if (faults) {
        // The faulted leg really saw faults; the policy really intervened.
        EXPECT_GT(resumed.report.injected.measurements, 0u);
        EXPECT_TRUE(resumed.report.faults.any());
    }
}

TEST(HuntCheckpointTest, SerialKillAndResumeMatchesUninterrupted) {
    expect_kill_and_resume_matches(/*parallel=*/false, /*faults=*/false, 3);
}

TEST(HuntCheckpointTest, SerialFaultedKillAndResumeMatchesUninterrupted) {
    expect_kill_and_resume_matches(/*parallel=*/false, /*faults=*/true, 3);
}

TEST(HuntCheckpointTest, ParallelKillAndResumeMatchesUninterrupted) {
    expect_kill_and_resume_matches(/*parallel=*/true, /*faults=*/false, 3);
}

TEST(HuntCheckpointTest, ParallelFaultedKillAndResumeMatchesUninterrupted) {
    expect_kill_and_resume_matches(/*parallel=*/true, /*faults=*/true, 4);
}

// Model-driven hunts: every measured evaluation's search starts at the
// committee's predicted trip point, which the checkpoint never carries.
TEST(HuntCheckpointTest, AnchoredSerialKillAndResumeMatchesUninterrupted) {
    expect_kill_and_resume_matches(/*parallel=*/false, /*faults=*/false, 3,
                                   /*anchored=*/true);
}

TEST(HuntCheckpointTest, AnchoredSerialFaultedKillAndResumeMatches) {
    expect_kill_and_resume_matches(/*parallel=*/false, /*faults=*/true, 3,
                                   /*anchored=*/true);
}

TEST(HuntCheckpointTest, AnchoredParallelFaultedKillAndResumeMatches) {
    expect_kill_and_resume_matches(/*parallel=*/true, /*faults=*/true, 4,
                                   /*anchored=*/true);
}

// Killed after its residual memory has wrapped (more measured
// evaluations than the memory holds), a model-driven hunt resumes with
// the memory's entries in their saved age order and matches the hunt
// that was never interrupted.
TEST(HuntCheckpointTest, AnchoredKillAfterResidualMemoryWrapsMatches) {
    OptimizerOptions opts = hunt_options(/*parallel=*/false);
    opts.ga.max_generations = 24;
    const HuntLeg reference = run_leg(opts, false, "", 0, /*anchored=*/true);
    EXPECT_FALSE(reference.report.aborted);

    const HuntLeg aborted = run_leg(opts, false, "", 18, /*anchored=*/true);
    EXPECT_TRUE(aborted.report.aborted);
    ASSERT_FALSE(aborted.last_checkpoint.empty());
    const std::size_t measured = aborted.report.outcome.evaluations -
                                 aborted.report.cache_stats.hits;
    EXPECT_GT(measured, ResidualMemory::kCapacity + 20);

    const HuntLeg resumed =
        run_leg(opts, false, aborted.last_checkpoint, 0, /*anchored=*/true);
    EXPECT_FALSE(resumed.report.aborted);
    expect_identical(resumed, reference);
}

// A replica campaign learns on replicas, then hunts. Killed mid-hunt and
// resumed — learning re-run from the same seed, the hunt restored from
// its checkpoint — it must match a campaign that was never interrupted.
HuntLeg run_replica_campaign(const std::string& resume_blob,
                             std::size_t abort_after_generation) {
    HuntLeg leg;
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    ate::FaultInjector injector(mild_profile());
    tester.attach_fault_injector(&injector);
    CharacterizerOptions options;
    options.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.learner.training_tests = 40;
    options.learner.max_rounds = 1;
    options.learner.committee.members = 2;
    options.learner.committee.hidden_layers = {8};
    options.learner.committee.train.max_epochs = 40;
    options.learner.trip.policy.enabled = true;
    options.optimizer = hunt_options(/*parallel=*/true);
    options.optimizer.parallel.inflight = 4;
    options.optimizer.nn_candidates = 100;
    options.optimizer.nn_seed_count = 4;
    options.optimizer.trip.policy.enabled = true;
    options.optimizer.checkpoint.resume_blob = resume_blob;
    options.optimizer.checkpoint.abort_after_generation =
        abort_after_generation;
    options.optimizer.checkpoint.save = [&leg](const std::string& blob) {
        leg.last_checkpoint = blob;
    };
    const DeviceCharacterizer characterizer(
        tester, ate::Parameter::data_valid_time(), options);
    util::Rng rng(2005);
    const LearnResult learned = characterizer.learn(rng);
    EXPECT_GT(tester.log().phase_counters("learning").applications, 0u);
    leg.report = characterizer.optimize(learned.model, rng);
    ReportInputs inputs;
    inputs.seed = 2005;
    inputs.learned = &learned;
    inputs.hunt = &leg.report;
    inputs.ledger = &tester.log();
    leg.rendered = render_report(inputs);
    leg.applications = tester.log().total().applications;
    return leg;
}

TEST(HuntCheckpointTest, ReplicaCampaignKillAndResumeRelearnsAndMatches) {
    const HuntLeg reference = run_replica_campaign("", 0);
    EXPECT_FALSE(reference.report.aborted);

    const HuntLeg aborted = run_replica_campaign("", 3);
    EXPECT_TRUE(aborted.report.aborted);
    ASSERT_FALSE(aborted.last_checkpoint.empty());

    const HuntLeg resumed = run_replica_campaign(aborted.last_checkpoint, 0);
    EXPECT_FALSE(resumed.report.aborted);
    expect_identical(resumed, reference);
}

TEST(HuntCheckpointTest, AbortedReportIsPartial) {
    const HuntLeg aborted = run_leg(hunt_options(false), false, "", 2);
    EXPECT_TRUE(aborted.report.aborted);
    EXPECT_EQ(aborted.report.outcome.generations_run, 2u);
    // The final re-measure is skipped on abort.
    EXPECT_EQ(aborted.report.worst_record.measurements, 0u);
}

TEST(HuntCheckpointTest, ResumeRejectsMismatchedConfiguration) {
    const OptimizerOptions opts = hunt_options(false);
    HuntLeg aborted = run_leg(opts, false, "", 2);
    ASSERT_FALSE(aborted.last_checkpoint.empty());

    // Resuming a no-fault checkpoint into a faulted run must throw, not
    // silently mix states.
    EXPECT_THROW((void)run_leg(opts, true, aborted.last_checkpoint, 0),
                 std::runtime_error);

    // Nor may a checkpoint cross between the in-situ and replica engines,
    // in either direction: the in-situ RTP lives in the hunt's session,
    // the replica RTP and noise stream beside it.
    EXPECT_THROW((void)run_leg(hunt_options(true), false,
                               aborted.last_checkpoint, 0),
                 std::runtime_error);
    HuntLeg replica_aborted = run_leg(hunt_options(true), false, "", 2);
    ASSERT_FALSE(replica_aborted.last_checkpoint.empty());
    EXPECT_THROW((void)run_leg(opts, false, replica_aborted.last_checkpoint,
                               0),
                 std::runtime_error);
}

}  // namespace
}  // namespace cichar::core
