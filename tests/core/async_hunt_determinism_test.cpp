// The async pipeline's determinism contract: with `inflight > 1` the
// hunt overlaps chromosome decoding and scoring with pending tester
// requests, yet the rendered report, the measurement ledger and the
// final checkpoint blob (trip cache body and counters included) must be
// byte-identical to the blocking replica path at any jobs x inflight
// combination — including a hunt killed with requests in flight and
// resumed under a different inflight depth, and faulted hunts whose
// policy retries, screens and votes run as steps of the async engine's
// measurement tasks.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "ate/fault_injector.hpp"
#include "cold_rebuild_chip.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "device/memory_chip.hpp"
#include "util/binio.hpp"

namespace cichar::core {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

struct HuntConfig {
    std::size_t jobs = 1;
    std::size_t inflight = 1;
    /// Hunt a chip whose replicas refuse reset_warm, so every slab lease
    /// is a cold clone_cold rebuild: the reference for the warm slab.
    bool cold_rebuilds = false;
    double realtime_fraction = 0.0;
    /// Moderate fault profile with the measurement policy on.
    bool faults = false;
    std::string resume_blob;
    std::size_t abort_after_generation = 0;
};

struct HuntResult {
    WorstCaseReport report;
    std::string rendered;
    std::uint64_t applications = 0;
    std::string last_checkpoint;
};

OptimizerOptions hunt_options(const HuntConfig& config) {
    OptimizerOptions opts;
    opts.ga.population.size = 10;
    opts.ga.populations = 2;
    opts.ga.max_generations = 8;
    opts.ga.stagnation_limit = 4;
    opts.ga.max_restarts = 2;
    opts.ga.migration_interval = 3;
    // Blocking reference runs use the replica path too (parallel enabled
    // at inflight 1): the CLI-style serial in-situ hunt is a different
    // measurement discipline and differs by design.
    opts.parallel.enabled = true;
    opts.parallel.jobs = config.jobs;
    opts.parallel.inflight = config.inflight;
    opts.cache.enabled = true;
    opts.checkpoint.resume_blob = config.resume_blob;
    opts.checkpoint.abort_after_generation = config.abort_after_generation;
    opts.trip.policy.enabled = config.faults;
    return opts;
}

HuntResult run_hunt(const HuntConfig& config) {
    HuntResult result;
    OptimizerOptions opts = hunt_options(config);
    opts.checkpoint.save = [&result](const std::string& blob) {
        result.last_checkpoint = blob;
    };

    const std::unique_ptr<device::DeviceUnderTest> chip =
        config.cold_rebuilds
            ? std::unique_ptr<device::DeviceUnderTest>(
                  std::make_unique<ColdRebuildChip>(
                      device::DieParameters{}, noiseless()))
            : std::make_unique<device::MemoryTestChip>(
                  device::DieParameters{}, noiseless());
    ate::TesterOptions tester_options;
    tester_options.realtime_fraction = config.realtime_fraction;
    ate::Tester tester(*chip, tester_options);
    ate::FaultInjector injector(ate::FaultProfile::moderate());
    if (config.faults) tester.attach_fault_injector(&injector);
    util::Rng rng(2005);
    testgen::RandomGeneratorOptions generator;
    generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    const WorstCaseOptimizer optimizer(opts);

    result.report = optimizer.run_unseeded(tester,
                                           ate::Parameter::data_valid_time(),
                                           generator,
                                           Objective::kDriftToMinimum, rng);
    ReportInputs inputs;
    inputs.seed = 2005;
    inputs.hunt = &result.report;
    result.rendered = render_report(inputs);
    result.applications = tester.log().total().applications;
    return result;
}

// The checkpoint payload's cache counters as the hunt writes them after
// the cache body: hits, misses, evictions and the reserved zero slot.
std::string cache_counter_bytes(const TripCacheStats& stats) {
    std::string out;
    util::put_u64(out, stats.hits);
    util::put_u64(out, stats.misses);
    util::put_u64(out, stats.evictions);
    util::put_u64(out, 0);
    return out;
}

// Compares everything the byte-identity contract covers. Checkpoint
// blobs are only required to match between *cold* runs: a resumed leg
// re-serializes from restored state, which the existing checkpoint
// contract (HuntCheckpointTest) does not promise to be blob-identical —
// only result-identical.
void expect_identical(const HuntResult& actual, const HuntResult& reference,
                      bool compare_checkpoint = true) {
    EXPECT_EQ(actual.report.outcome.best_fitness,
              reference.report.outcome.best_fitness);
    EXPECT_EQ(actual.report.outcome.best.sequence,
              reference.report.outcome.best.sequence);
    EXPECT_EQ(actual.report.outcome.best.condition,
              reference.report.outcome.best.condition);
    EXPECT_EQ(actual.report.outcome.evaluations,
              reference.report.outcome.evaluations);
    EXPECT_EQ(actual.report.outcome.best_history,
              reference.report.outcome.best_history);
    EXPECT_EQ(actual.report.ate_measurements, reference.report.ate_measurements);
    EXPECT_EQ(actual.report.cache_stats.hits, reference.report.cache_stats.hits);
    EXPECT_EQ(actual.report.cache_stats.misses,
              reference.report.cache_stats.misses);
    EXPECT_EQ(actual.rendered, reference.rendered);
    EXPECT_EQ(actual.applications, reference.applications);
    if (compare_checkpoint) {
        EXPECT_EQ(actual.last_checkpoint, reference.last_checkpoint);
    }
}

TEST(AsyncHuntDeterminismTest, ByteIdenticalAcrossJobsAndInflight) {
    HuntConfig reference_config;
    reference_config.jobs = 1;
    reference_config.inflight = 1;  // blocking replica path
    const HuntResult reference = run_hunt(reference_config);
    ASSERT_FALSE(reference.last_checkpoint.empty());
    // The last checkpoint follows the final generation, so the blob pins
    // the hunt's final trip cache: its counters are the report's.
    EXPECT_NE(reference.last_checkpoint.find(
                  cache_counter_bytes(reference.report.cache_stats)),
              std::string::npos);

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t inflight :
             {std::size_t{4}, std::size_t{16}}) {
            HuntConfig config;
            config.jobs = jobs;
            config.inflight = inflight;
            const HuntResult async = run_hunt(config);
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " inflight=" + std::to_string(inflight));
            expect_identical(async, reference);
            EXPECT_EQ(async.report.inflight, inflight);
        }
    }

    // Faults + policy: every jobs x inflight combination runs the engine
    // it asks for and matches the blocking jobs-1 faulted hunt.
    HuntConfig faulted_config;
    faulted_config.faults = true;
    const HuntResult faulted = run_hunt(faulted_config);
    EXPECT_GT(faulted.report.injected.measurements, 0u);
    EXPECT_TRUE(faulted.report.faults.any());
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t inflight : {std::size_t{1}, std::size_t{16}}) {
            HuntConfig config = faulted_config;
            config.jobs = jobs;
            config.inflight = inflight;
            const HuntResult result = run_hunt(config);
            SCOPED_TRACE("faulted jobs=" + std::to_string(jobs) +
                         " inflight=" + std::to_string(inflight));
            expect_identical(result, faulted);
            EXPECT_EQ(result.report.inflight, inflight);
            EXPECT_EQ(result.report.faults, faulted.report.faults);
            EXPECT_EQ(result.report.injected, faulted.report.injected);
        }
    }
}

TEST(AsyncHuntDeterminismTest, ByteIdenticalAcrossReplicaSlabSizes) {
    // The warm slab (jobs or inflight slots, recycled via reset_warm) must
    // match a hunt whose every lease is a cold clone_cold rebuild — at
    // slab sizes 1, 4 and 16 across both engines.
    HuntConfig reference_config;
    reference_config.jobs = 1;
    reference_config.inflight = 1;
    reference_config.cold_rebuilds = true;
    const HuntResult reference = run_hunt(reference_config);
    EXPECT_EQ(reference.report.slab.recycles, 0u);
    EXPECT_GT(reference.report.slab.cold_clones, 0u);

    for (const std::size_t inflight : {std::size_t{1}, std::size_t{16}}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            HuntConfig config;
            config.jobs = jobs;
            config.inflight = inflight;
            const HuntResult warm = run_hunt(config);
            SCOPED_TRACE("inflight=" + std::to_string(inflight) +
                         " jobs=" + std::to_string(jobs));
            expect_identical(warm, reference);
            EXPECT_GT(warm.report.slab.recycles, 0u);
        }
    }
}

TEST(AsyncHuntDeterminismTest, KillAndResumeAcrossInflightDepths) {
    // Kill the async hunt with requests pending at snapshot time, then
    // resume under a *different* inflight depth: the checkpoint
    // fingerprint deliberately excludes inflight (drain-before-checkpoint
    // means the blob never holds queue state), so the resumed hunt must
    // still finish byte-identical to an uninterrupted blocking run.
    HuntConfig reference_config;
    reference_config.jobs = 2;
    reference_config.inflight = 1;
    const HuntResult reference = run_hunt(reference_config);
    EXPECT_FALSE(reference.report.aborted);

    HuntConfig abort_config;
    abort_config.jobs = 2;
    abort_config.inflight = 8;
    abort_config.abort_after_generation = 3;
    const HuntResult aborted = run_hunt(abort_config);
    EXPECT_TRUE(aborted.report.aborted);
    ASSERT_FALSE(aborted.last_checkpoint.empty());

    HuntConfig resume_config;
    resume_config.jobs = 2;
    resume_config.inflight = 4;
    resume_config.resume_blob = aborted.last_checkpoint;
    const HuntResult resumed = run_hunt(resume_config);
    EXPECT_FALSE(resumed.report.aborted);
    expect_identical(resumed, reference, /*compare_checkpoint=*/false);

    // The same kill and resume under faults and the policy, against the
    // faulted blocking jobs-1 reference.
    HuntConfig faulted_reference_config;
    faulted_reference_config.faults = true;
    const HuntResult faulted_reference = run_hunt(faulted_reference_config);

    HuntConfig faulted_abort = abort_config;
    faulted_abort.faults = true;
    const HuntResult faulted_aborted = run_hunt(faulted_abort);
    EXPECT_TRUE(faulted_aborted.report.aborted);
    ASSERT_FALSE(faulted_aborted.last_checkpoint.empty());

    HuntConfig faulted_resume = resume_config;
    faulted_resume.faults = true;
    faulted_resume.resume_blob = faulted_aborted.last_checkpoint;
    const HuntResult faulted_resumed = run_hunt(faulted_resume);
    EXPECT_FALSE(faulted_resumed.report.aborted);
    EXPECT_EQ(faulted_resumed.report.inflight, 4u);
    expect_identical(faulted_resumed, faulted_reference,
                     /*compare_checkpoint=*/false);
    EXPECT_EQ(faulted_resumed.report.faults, faulted_reference.report.faults);
    EXPECT_EQ(faulted_resumed.report.injected,
              faulted_reference.report.injected);
}

TEST(AsyncHuntDeterminismTest, EmulatedLatencyDoesNotChangeResults) {
    // A small nonzero realtime_fraction exercises the deadline machinery
    // (the blocking path sleeps inline, the async path schedules
    // completion deadlines); neither may perturb the hunt.
    HuntConfig blocking;
    blocking.jobs = 2;
    blocking.inflight = 1;
    const HuntResult reference = run_hunt(blocking);

    HuntConfig emulated;
    emulated.jobs = 2;
    emulated.inflight = 8;
    emulated.realtime_fraction = 1e-4;
    const HuntResult async = run_hunt(emulated);
    expect_identical(async, reference);
}

}  // namespace
}  // namespace cichar::core
