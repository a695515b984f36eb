// Extension bench: parallel worst-case hunt scaling. Runs the same GA
// worst-case hunt (replica fitness evaluation + trip-point cache) at
// 1/2/4/8 worker threads and reports wall-clock speedup (the 8-thread
// gate is the median of paired per-rep ratios against 1 thread), a
// byte-level determinism check of the rendered hunt report, and a
// cache-on vs cache-off ablation of ATE measurements.
//
// Like bench_lot_scaling, the rig emulates the physical tester's
// measurement latency (TesterOptions::realtime_fraction): a fitness
// evaluation spends most of its wall clock waiting on the modeled
// hardware, and parallel replica evaluation overlaps those waits.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "util/ascii.hpp"

using namespace cichar;

namespace {

constexpr std::uint64_t kSeed = 2005;
// Fraction of modeled tester time actually slept per measurement.
constexpr double kRealtimeFraction = 0.35;

core::OptimizerOptions hunt_options(std::size_t jobs, bool cache) {
    core::OptimizerOptions options;
    options.ga.population.size = 10;
    options.ga.populations = 3;
    options.ga.max_generations = 10;
    options.ga.stagnation_limit = 6;
    options.ga.max_restarts = 2;
    options.ga.migration_interval = 4;
    // Calmer operators than the hunt default: more GA children survive
    // untouched, exercising the duplicate-detection path the cache exists
    // for (the hunt itself still evolves).
    options.ga.population.operators.crossover_rate = 0.8;
    options.ga.population.operators.mutation_rate = 0.10;
    options.ga.population.operators.reset_rate = 0.01;
    options.ga.population.operators.seed_mutation_rate = 0.05;
    // Replica evaluation at every jobs count — including 1 — so the only
    // thing that varies across rows is the worker count.
    options.parallel.enabled = true;
    options.parallel.jobs = jobs;
    options.cache.enabled = cache;
    return options;
}

struct HuntRun {
    core::WorstCaseReport report;
    std::string rendered;
    std::uint64_t applications = 0;
};

HuntRun run_hunt(std::size_t jobs, bool cache) {
    ate::TesterOptions tester_options;
    tester_options.realtime_fraction = kRealtimeFraction;
    bench::Rig rig({}, {}, tester_options);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    util::Rng rng(kSeed);
    const core::WorstCaseOptimizer optimizer(hunt_options(jobs, cache));

    HuntRun run;
    run.report = optimizer.run_unseeded(rig.tester, param,
                                        bench::nominal_generator(),
                                        core::objective_for(param), rng);
    core::ReportInputs inputs;
    inputs.device_name = "bench-hunt";
    inputs.seed = kSeed;
    inputs.hunt = &run.report;
    inputs.ledger = &rig.tester.log();
    run.rendered = core::render_report(inputs);
    run.applications = rig.tester.log().total().applications;
    return run;
}

}  // namespace

int main() {
    bench::header("Extension",
                  "hunt scaling: parallel GA fitness at 1/2/4/8 workers",
                  kSeed);
    bench::print_host();

    const std::vector<std::size_t> job_counts = {1, 2, 4, 8};
    std::vector<double> medians(job_counts.size());
    std::vector<HuntRun> runs(job_counts.size());

    // The speedup gate times jobs 1 and jobs 8 alternately, rep by rep, so
    // each pair sees the same host speed; jobs 2 and 4 only fill in the
    // table.
    const auto [serial, wide] = bench::time_interleaved(
        /*warmup=*/1, /*reps=*/5, [&] { runs[0] = run_hunt(1, true); },
        [&] { runs[3] = run_hunt(8, true); });
    medians[0] = serial.median();
    medians[3] = wide.median();
    for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
        medians[i] = bench::time_runs(/*warmup=*/1, /*reps=*/3, [&] {
                         runs[i] = run_hunt(job_counts[i], true);
                     }).median();
    }
    for (std::size_t i = 0; i < job_counts.size(); ++i) {
        std::printf("jobs=%zu: median %.2f s\n", job_counts[i], medians[i]);
    }

    bench::section("scaling");
    util::TextTable table({"jobs", "median s", "speedup", "report identical"});
    bool deterministic = true;
    for (std::size_t i = 0; i < job_counts.size(); ++i) {
        const bool identical = runs[i].rendered == runs[0].rendered;
        deterministic = deterministic && identical;
        table.add_row({std::to_string(job_counts[i]),
                       util::fixed(medians[i], 2),
                       util::fixed(medians[0] / medians[i], 2),
                       identical ? "yes" : "NO"});
    }
    std::printf("%s", table.render().c_str());

    const core::TripCacheStats& stats = runs.back().report.cache_stats;
    std::printf("trip cache: %llu hits / %llu misses (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                100.0 * stats.hit_rate());

    bench::section("cache ablation (jobs=8)");
    const HuntRun uncached = run_hunt(8, false);
    const std::uint64_t with_cache = runs.back().applications;
    const std::uint64_t without_cache = uncached.applications;
    std::printf("ATE applications: %llu with cache, %llu without (saved "
                "%llu)\n",
                static_cast<unsigned long long>(with_cache),
                static_cast<unsigned long long>(without_cache),
                static_cast<unsigned long long>(without_cache - with_cache));
    const bool cache_saves =
        stats.hits > 0 && with_cache < without_cache;
    std::printf("cache reduces measured ATE evaluations: %s\n",
                cache_saves ? "PASS" : "FAIL");

    // Per-pair jobs-1 / jobs-8 wall ratios: the median is the gate.
    const bench::TimedRuns speedups = bench::paired_ratios(serial, wide);
    const double speedup8 = speedups.median();
    std::printf("\nspeedup at 8 threads: median paired %.2fx (min %.2f, max "
                "%.2f; target >= 2.5x): %s\n",
                speedup8, speedups.min(), speedups.max(),
                speedup8 >= 2.5 ? "PASS" : "FAIL");
    std::printf("thread-count determinism (byte-identical reports): %s\n",
                deterministic ? "PASS" : "FAIL");

    bench::BenchJson json;
    json.set_string("bench", "hunt_scaling");
    json.set_string("host", bench::host_line());
    json.set_integer("seed", kSeed);
    json.set_numbers("jobs", {1, 2, 4, 8});
    json.set_numbers("median_seconds", medians);
    json.set_number("speedup_8", speedup8);
    json.set_bool("deterministic", deterministic);
    json.set_integer("cache_hits", stats.hits);
    json.set_integer("cache_misses", stats.misses);
    json.set_number("cache_hit_rate", stats.hit_rate());
    json.set_integer("ate_applications_cache_on", with_cache);
    json.set_integer("ate_applications_cache_off", without_cache);
    json.write("BENCH_hunt.json");

    bench::section("hunt report (jobs=1 == jobs=8)");
    std::printf("%s", runs[0].rendered.c_str());

    std::printf(
        "\npaper context: GA fitness is a live trip-point measurement, so "
        "the hunt is rate-limited by tester I/O; replica evaluation plus "
        "the memoizing trip cache attack exactly that cost while the "
        "deterministic scheduler keeps one seed -> one report.\n");
    return (speedup8 >= 2.5 && deterministic && cache_saves) ? 0 : 1;
}
