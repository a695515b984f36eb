// Extension bench: multi-site lot scaling. Runs the same 8-site lot
// characterization at 1/2/4/8 worker threads and reports wall-clock
// speedup (the 4-thread gate is the median of paired per-rep ratios
// against 1 thread) plus a byte-level determinism check of the lot
// report.
//
// The rig emulates the physical tester's measurement latency
// (TesterOptions::realtime_fraction): a site spends most of its wall
// clock waiting on the modeled hardware, so a multi-site lot speeds up by
// overlapping those waits across sites — the real economics of multi-site
// ATE, and a speedup that materializes even on a single-core host.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"
#include "util/ascii.hpp"

using namespace cichar;

namespace {

// Fraction of modeled tester time actually slept per measurement.
constexpr double kRealtimeFraction = 0.2;

lot::LotOptions lot_options(std::size_t jobs) {
    lot::LotOptions options;
    options.sites = 8;
    options.jobs = jobs;
    options.seed = 2005;
    options.characterizer.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    // Small campaign per site: the bench measures scheduling, not depth.
    options.characterizer.learner.training_tests = 24;
    options.characterizer.learner.max_rounds = 1;
    options.characterizer.learner.committee.members = 2;
    options.characterizer.learner.committee.hidden_layers = {8};
    options.characterizer.learner.committee.train.max_epochs = 40;
    options.characterizer.optimizer.ga.population.size = 8;
    options.characterizer.optimizer.ga.populations = 2;
    options.characterizer.optimizer.ga.max_generations = 4;
    options.characterizer.optimizer.nn_candidates = 100;
    options.characterizer.optimizer.nn_seed_count = 4;
    // Emulated hardware latency dominates each site's wall clock; it is
    // what parallel sites overlap.
    options.tester.realtime_fraction = kRealtimeFraction;
    return options;
}

struct LotRun {
    std::string render;
    double modeled_seconds = 0.0;
};

LotRun run_lot(std::size_t jobs) {
    const lot::LotRunner runner(lot_options(jobs));
    const lot::LotResult result = runner.run();
    return {lot::LotReport::build(result).render(),
            result.merged_log.total().tester_seconds};
}

}  // namespace

int main() {
    constexpr std::uint64_t kSeed = 2005;
    bench::header("Extension",
                  "lot scaling: 8-site lot at 1/2/4/8 worker threads", kSeed);
    bench::print_host();

    const std::vector<std::size_t> job_counts = {1, 2, 4, 8};
    std::vector<double> wall(job_counts.size());
    std::vector<LotRun> runs(job_counts.size());

    // The speedup gate times jobs 1 and jobs 4 alternately, rep by rep, so
    // each pair sees the same host speed; jobs 2 and 8 only fill in the
    // table.
    const auto [serial, four] = bench::time_interleaved(
        /*warmup=*/1, /*reps=*/5, [&] { runs[0] = run_lot(1); },
        [&] { runs[2] = run_lot(4); });
    wall[0] = serial.median();
    wall[2] = four.median();
    for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
        wall[i] = bench::time_runs(/*warmup=*/0, /*reps=*/1, [&] {
                      runs[i] = run_lot(job_counts[i]);
                  }).median();
    }
    for (std::size_t i = 0; i < job_counts.size(); ++i) {
        std::printf("jobs=%zu: %.2f s wall\n", job_counts[i], wall[i]);
    }
    const double modeled_seconds = runs[0].modeled_seconds;

    bench::section("scaling");
    util::TextTable table({"jobs", "wall s", "speedup", "report identical"});
    bool deterministic = true;
    for (std::size_t i = 0; i < job_counts.size(); ++i) {
        const bool identical = runs[i].render == runs[0].render;
        deterministic = deterministic && identical;
        table.add_row({std::to_string(job_counts[i]), util::fixed(wall[i], 2),
                       util::fixed(wall[0] / wall[i], 2),
                       identical ? "yes" : "NO"});
    }
    std::printf("%s", table.render().c_str());
    std::printf("modeled tester time for the lot: %.1f s (emulated at %.0f%%)\n",
                modeled_seconds, 100.0 * kRealtimeFraction);

    // Per-pair jobs-1 / jobs-4 wall ratios: the median is the gate.
    const bench::TimedRuns speedups = bench::paired_ratios(serial, four);
    const double speedup4 = speedups.median();
    std::printf("\nspeedup at 4 threads: median paired %.2fx (min %.2f, max "
                "%.2f; target >= 2x): %s\n",
                speedup4, speedups.min(), speedups.max(),
                speedup4 >= 2.0 ? "PASS" : "FAIL");
    std::printf("thread-count determinism (byte-identical reports): %s\n",
                deterministic ? "PASS" : "FAIL");

    bench::BenchJson json;
    json.set_string("bench", "lot_scaling");
    json.set_string("host", bench::host_line());
    json.set_integer("seed", kSeed);
    json.set_numbers("jobs", {1, 2, 4, 8});
    json.set_numbers("wall_seconds", wall);
    json.set_number("speedup_4", speedup4);
    json.set_number("modeled_tester_seconds", modeled_seconds);
    json.set_bool("deterministic", deterministic);
    json.write("BENCH_lot.json");

    bench::section("lot report (jobs=1 == jobs=8)");
    std::printf("%s", runs[0].render.c_str());

    std::printf(
        "\npaper context: the method's end goal is \"the development of a "
        "production test program\" — production ATEs amortize tester time "
        "by characterizing many sites of a lot concurrently; the lot "
        "engine keeps that bit-reproducible from one seed.\n");
    return (speedup4 >= 2.0 && deterministic) ? 0 : 1;
}
