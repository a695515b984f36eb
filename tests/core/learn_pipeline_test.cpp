// Replica-mode learning's determinism contract: DeviceCharacterizer::learn
// takes its engine from OptimizerOptions::parallel, and the learning
// loop's random and acquired batches then measure on replicas through the
// hunt's evaluation pipeline. The DSV, the committee weight file, the
// measured-test count, the main tester's ledger and the policy and
// injector counters must be byte-identical to the jobs-1, depth-1 replica
// reference at any jobs x inflight combination — for every acquisition
// strategy, under faults with the policy on, and on a site that dies
// mid-learning.
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ate/fault_injector.hpp"
#include "core/characterizer.hpp"
#include "device/memory_chip.hpp"
#include "nn/weights_io.hpp"

namespace cichar::core {
namespace {

struct LearnConfig {
    std::size_t jobs = 1;
    std::size_t inflight = 1;
    Acquisition acquisition = Acquisition::kRandom;
    /// Moderate fault profile with the measurement policy on.
    bool faults = false;
    /// Per-reading site-death probability on top of the profile.
    double death_rate = 0.0;
};

struct LearnRun {
    std::optional<LearnResult> result;
    bool died = false;
    std::string committee;
    std::string dsv;
    std::string ledger;
    ate::PhaseCounters learning;
    ate::InjectionStats injected;
};

LearnRun learn(const LearnConfig& config) {
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    ate::FaultProfile profile = config.faults ? ate::FaultProfile::moderate()
                                              : ate::FaultProfile::none();
    profile.site_death_rate = config.death_rate;
    ate::FaultInjector injector(profile);
    if (profile.any()) tester.attach_fault_injector(&injector);

    CharacterizerOptions options;
    options.learner.training_tests = 60;
    options.learner.additional_tests_per_round = 30;
    options.learner.min_rounds = 2;
    options.learner.max_rounds = 2;
    options.learner.acquisition = config.acquisition;
    options.learner.acquisition_pool = 200;
    options.learner.committee.members = 3;
    options.learner.committee.hidden_layers = {12};
    options.learner.committee.train.max_epochs = 120;
    options.learner.trip.policy.enabled = config.faults;
    options.optimizer.parallel.enabled = true;
    options.optimizer.parallel.jobs = config.jobs;
    options.optimizer.parallel.inflight = config.inflight;
    const DeviceCharacterizer characterizer(
        tester, ate::Parameter::data_valid_time(), options);

    LearnRun run;
    util::Rng rng(2005);
    try {
        run.result.emplace(characterizer.learn(rng));
    } catch (const ate::SiteDeadError&) {
        run.died = true;
    }
    if (run.result) {
        std::ostringstream committee;
        nn::save_committee(committee, run.result->model.committee());
        run.committee = committee.str();
        for (const TripPointRecord& record : run.result->dsv.records()) {
            record.save(run.dsv);
        }
    }
    tester.log().save(run.ledger);
    run.learning = tester.log().phase_counters("learning");
    run.injected = injector.stats();
    return run;
}

void expect_identical(const LearnRun& run, const LearnRun& reference) {
    EXPECT_EQ(run.died, reference.died);
    ASSERT_EQ(run.result.has_value(), reference.result.has_value());
    if (run.result) {
        EXPECT_EQ(run.result->tests_measured, reference.result->tests_measured);
        EXPECT_EQ(run.result->faults, reference.result->faults);
    }
    EXPECT_EQ(run.committee, reference.committee);
    EXPECT_EQ(run.dsv, reference.dsv);
    EXPECT_EQ(run.ledger, reference.ledger);
    EXPECT_EQ(run.learning.applications, reference.learning.applications);
    EXPECT_EQ(run.learning.vector_cycles, reference.learning.vector_cycles);
    EXPECT_EQ(run.learning.tester_seconds, reference.learning.tester_seconds);
    EXPECT_EQ(run.injected, reference.injected);
    EXPECT_GT(run.learning.applications, 0u);
}

// Runs the jobs {1, 4} x inflight {1, 4, 16} matrix against the jobs-1,
// depth-1 reference.
LearnRun expect_engine_independent(LearnConfig config) {
    const LearnRun reference = learn(config);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t inflight :
             {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
            if (jobs == 1 && inflight == 1) continue;
            SCOPED_TRACE("jobs " + std::to_string(jobs) + " inflight " +
                         std::to_string(inflight));
            config.jobs = jobs;
            config.inflight = inflight;
            expect_identical(learn(config), reference);
        }
    }
    return reference;
}

TEST(LearnPipelineTest, RandomAcquisitionIdenticalAcrossEngines) {
    const LearnRun reference = expect_engine_independent({});
    ASSERT_TRUE(reference.result.has_value());
    EXPECT_EQ(reference.result->tests_measured, 60u + 30u);
    EXPECT_EQ(reference.result->dsv.size(), 90u);
}

TEST(LearnPipelineTest, PredictedWorstAcquisitionIdenticalAcrossEngines) {
    LearnConfig config;
    config.acquisition = Acquisition::kPredictedWorst;
    const LearnRun reference = expect_engine_independent(config);
    ASSERT_TRUE(reference.result.has_value());
    EXPECT_EQ(reference.result->tests_measured, 60u + 30u);
}

TEST(LearnPipelineTest, UncertaintyAcquisitionIdenticalAcrossEngines) {
    LearnConfig config;
    config.acquisition = Acquisition::kUncertainty;
    const LearnRun reference = expect_engine_independent(config);
    ASSERT_TRUE(reference.result.has_value());
    EXPECT_EQ(reference.result->tests_measured, 60u + 30u);
}

TEST(LearnPipelineTest, FaultedLearningIdenticalAcrossEngines) {
    LearnConfig config;
    config.faults = true;
    config.acquisition = Acquisition::kUncertainty;
    const LearnRun reference = expect_engine_independent(config);
    ASSERT_TRUE(reference.result.has_value());
    // The faults really fired on the replicas, and the policy really
    // intervened.
    EXPECT_GT(reference.injected.injected(), 0u);
    EXPECT_TRUE(reference.result->faults.any());
}

// A replica whose site dies mid-batch ends learning with SiteDeadError.
// Every engine measures the whole batch, then reduces in submission
// order up to the first failing test, so the partial ledger and the
// injector's counters do not depend on which replica finished first.
TEST(LearnPipelineTest, SiteDeathDuringLearningIdenticalAcrossEngines) {
    LearnConfig config;
    config.faults = true;
    config.death_rate = 0.002;
    const LearnRun reference = expect_engine_independent(config);
    EXPECT_TRUE(reference.died);
    EXPECT_EQ(reference.injected.site_deaths, 1u);
}

// The in-situ default and replica mode are different measurement
// disciplines: learning on replicas is not a silent no-op.
TEST(LearnPipelineTest, ReplicaLearningDiffersFromInSitu) {
    CharacterizerOptions options;
    options.learner.training_tests = 40;
    options.learner.max_rounds = 1;
    options.learner.committee.members = 2;
    options.learner.committee.hidden_layers = {8};
    options.learner.committee.train.max_epochs = 40;
    const auto dsv_bytes = [&](bool replicas) {
        device::MemoryTestChip chip;
        ate::Tester tester(chip);
        options.optimizer.parallel.enabled = replicas;
        const DeviceCharacterizer characterizer(
            tester, ate::Parameter::data_valid_time(), options);
        util::Rng rng(7);
        const LearnResult result = characterizer.learn(rng);
        std::string bytes;
        for (const TripPointRecord& record : result.dsv.records()) {
            record.save(bytes);
        }
        return bytes;
    };
    EXPECT_NE(dsv_bytes(false), dsv_bytes(true));
}

}  // namespace
}  // namespace cichar::core
