// Crash-safe hunt checkpointing: an aborted hunt reports itself partial,
// and a checkpoint from another configuration is refused on resume.
// Kill-and-resume byte identity is the identity table's (tests/identity).
#include <string>

#include <gtest/gtest.h>

#include "ate/fault_injector.hpp"
#include "core/optimizer.hpp"
#include "device/memory_chip.hpp"

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
    std::string last_checkpoint;
};

HuntLeg run_leg(OptimizerOptions opts, bool faults,
                const std::string& resume_blob,
                std::size_t abort_after_generation) {
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
    const WorstCaseOptimizer optimizer(opts);
    leg.report = optimizer.run_unseeded(tester,
                                        ate::Parameter::data_valid_time(),
                                        generator, Objective::kDriftToMinimum,
                                        rng);
    return leg;
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
