// Cache-efficiency and fallback tests for the replica worst-case hunt:
// the trip-point cache must cut live ATE measurements without changing
// the hunt's outcome on a noiseless DUT, and a DUT that refuses
// replication must fall back to the serial in-situ hunt. Byte identity
// across ring depth, jobs and slab is the identity table's
// (tests/identity).
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "device/memory_chip.hpp"

namespace cichar::core {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

OptimizerOptions parallel_options(std::size_t jobs, bool cache) {
    OptimizerOptions opts;
    opts.ga.population.size = 10;
    opts.ga.populations = 3;
    opts.ga.max_generations = 10;
    opts.ga.stagnation_limit = 6;
    opts.ga.max_restarts = 2;
    opts.ga.migration_interval = 4;
    // Calm operators (lower mutation and reset rates than the hunt
    // default) so the GA re-emits enough duplicate chromosomes to
    // exercise the cache-hit path.
    opts.ga.population.operators.crossover_rate = 0.8;
    opts.ga.population.operators.mutation_rate = 0.10;
    opts.ga.population.operators.reset_rate = 0.01;
    opts.ga.population.operators.seed_mutation_rate = 0.05;
    opts.parallel.enabled = true;
    opts.parallel.jobs = jobs;
    opts.cache.enabled = cache;
    return opts;
}

struct HuntResult {
    WorstCaseReport report;
    std::string rendered;
    std::uint64_t applications = 0;
};

HuntResult hunt_on(device::DeviceUnderTest& chip,
                   const OptimizerOptions& opts) {
    ate::Tester tester(chip);
    util::Rng rng(2005);
    testgen::RandomGeneratorOptions generator;
    generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    const WorstCaseOptimizer optimizer(opts);

    HuntResult result;
    result.report = optimizer.run_unseeded(
        tester, ate::Parameter::data_valid_time(), generator,
        Objective::kDriftToMinimum, rng);
    ReportInputs inputs;
    inputs.seed = 2005;
    inputs.hunt = &result.report;
    result.rendered = render_report(inputs);
    result.applications = tester.log().total().applications;
    return result;
}

HuntResult run_hunt(std::size_t jobs, bool cache) {
    device::MemoryTestChip chip({}, noiseless());
    return hunt_on(chip, parallel_options(jobs, cache));
}

TEST(ParallelHuntTest, CacheCutsMeasurementsWithoutChangingOutcome) {
    const HuntResult cached = run_hunt(2, true);
    const HuntResult uncached = run_hunt(2, false);

    EXPECT_GT(cached.report.cache_stats.hits, 0u);
    EXPECT_GT(cached.report.cache_stats.misses, 0u);
    EXPECT_LT(cached.applications, uncached.applications);
    EXPECT_LT(cached.report.ate_measurements, uncached.report.ate_measurements);
    // A hit replays the measured record; with a noiseless DUT that equals
    // what a re-measurement would have returned, so the hunt trajectory
    // (and thus the winner) is unchanged.
    EXPECT_EQ(cached.report.outcome.best_fitness,
              uncached.report.outcome.best_fitness);
    EXPECT_EQ(uncached.report.cache_stats.lookups(), 0u);
}

TEST(ParallelHuntTest, CacheStatsSurfaceInReport) {
    const HuntResult cached = run_hunt(2, true);
    EXPECT_NE(cached.rendered.find("trip cache:"), std::string::npos);
    const HuntResult uncached = run_hunt(2, false);
    EXPECT_EQ(uncached.rendered.find("trip cache:"), std::string::npos);
}

/// A chip that refuses replication: clone_cold returns nullptr (the
/// DeviceUnderTest default), so every parallel or async configuration
/// must fall back to the classic serial in-situ hunt (the pipeline's
/// clone_cold gate). Delegates measurements to a real MemoryTestChip so
/// the serial hunt itself is unchanged.
class UnclonableChip : public device::DeviceUnderTest {
public:
    UnclonableChip(device::DieParameters die,
                   device::MemoryChipOptions options)
        : inner_(die, options) {}

    [[nodiscard]] bool passes(const testgen::Test& test,
                              device::ParameterKind parameter,
                              double setting) override {
        return inner_.passes(test, parameter, setting);
    }
    [[nodiscard]] device::FunctionalResult run_functional(
        const testgen::Test& test) override {
        return inner_.run_functional(test);
    }
    void settle() override { inner_.settle(); }

private:
    device::MemoryTestChip inner_;
};

TEST(ParallelHuntTest, UnclonableDutFallsBackToSerialUnderAsyncAndSlab) {
    device::MemoryTestChip serial_chip({}, noiseless());
    OptimizerOptions serial_opts = parallel_options(1, true);
    serial_opts.parallel.enabled = false;
    const HuntResult serial = hunt_on(serial_chip, serial_opts);

    // --jobs 4 --inflight 16 on an unclonable DUT.
    UnclonableChip async_chip({}, noiseless());
    OptimizerOptions async_opts = parallel_options(4, true);
    async_opts.parallel.inflight = 16;
    const HuntResult fallback = hunt_on(async_chip, async_opts);
    EXPECT_EQ(fallback.report.jobs, 1u);
    EXPECT_EQ(fallback.report.slab.acquires, 0u);
    EXPECT_EQ(fallback.rendered, serial.rendered);
    EXPECT_EQ(fallback.applications, serial.applications);

    // --jobs 4 at ring depth 1 falls back the same way.
    UnclonableChip depth1_chip({}, noiseless());
    const HuntResult depth1 = hunt_on(depth1_chip, parallel_options(4, true));
    EXPECT_EQ(depth1.report.jobs, 1u);
    EXPECT_EQ(depth1.rendered, serial.rendered);
}

}  // namespace
}  // namespace cichar::core
