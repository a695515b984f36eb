// Extension bench: the async submission/completion pipeline. The GA
// hunt's fitness batch is rate-limited by emulated tester I/O
// (TesterOptions::realtime_fraction); the blocking replica path sleeps
// that latency inline per worker, while the async path turns it into
// completion deadlines and keeps decoding/scoring underneath. Three
// timed configurations at a fixed worker count:
//
//   C   blocking, fraction 0     -> the pure CPU (decode/eval/score) cost
//   T_b blocking, fraction 0.35  -> CPU + latency, serialized per worker
//   T_a async x16, fraction 0.35 -> CPU overlapped with in-flight latency
//
// hidden = (T_b - T_a) / C: how much of the CPU cost the pipeline moved
// off the critical path, in units of that cost. Target: >= 0.8 (a ratio
// above 1 means the deeper in-flight window also overlapped latency the
// blocking path serialized). Byte-identical reports across all rows.
//
// `--quick` (CI smoke) skips the latency rig and asserts the async
// engine is not slower than the blocking path at fraction 0 — the queue
// machinery must be free when there is no latency to hide. It times a
// longer hunt (>= 0.2 s per run) rep by rep and gates the median of the
// paired per-rep ratios, so fixed start-up costs and host speed wander
// do not decide the verdict.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "util/ascii.hpp"

using namespace cichar;

namespace {

constexpr std::uint64_t kSeed = 2005;
constexpr std::size_t kJobs = 4;
constexpr std::size_t kInflight = 16;
// Fraction of modeled tester time actually spent per measurement (as
// inline sleep or completion deadline).
constexpr double kRealtimeFraction = 0.35;

core::OptimizerOptions hunt_options(std::size_t inflight) {
    core::OptimizerOptions options;
    options.ga.population.size = 10;
    options.ga.populations = 3;
    options.ga.max_generations = 10;
    options.ga.stagnation_limit = 6;
    options.ga.max_restarts = 2;
    options.ga.migration_interval = 4;
    options.ga.population.operators.crossover_rate = 0.8;
    options.ga.population.operators.mutation_rate = 0.10;
    options.ga.population.operators.reset_rate = 0.01;
    options.ga.population.operators.seed_mutation_rate = 0.05;
    options.parallel.enabled = true;
    options.parallel.jobs = kJobs;
    options.parallel.inflight = inflight;
    options.cache.enabled = true;
    return options;
}

// The --quick workload: the same hunt, longer (bigger populations, no
// early stop), so one run takes >= 0.2 s and the ratio compares the
// engines rather than their fixed start-up costs.
core::OptimizerOptions quick_options(std::size_t inflight) {
    core::OptimizerOptions options = hunt_options(inflight);
    options.ga.population.size = 16;
    options.ga.populations = 4;
    options.ga.max_generations = 80;
    options.ga.stagnation_limit = 80;
    return options;
}

struct HuntRun {
    core::WorstCaseReport report;
    std::string rendered;
};

HuntRun run_hunt(const core::OptimizerOptions& options,
                 double realtime_fraction) {
    ate::TesterOptions tester_options;
    tester_options.realtime_fraction = realtime_fraction;
    bench::Rig rig({}, {}, tester_options);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    util::Rng rng(kSeed);
    const core::WorstCaseOptimizer optimizer(options);

    HuntRun run;
    run.report = optimizer.run_unseeded(rig.tester, param,
                                        bench::nominal_generator(),
                                        core::objective_for(param), rng);
    core::ReportInputs inputs;
    inputs.device_name = "bench-async";
    inputs.seed = kSeed;
    inputs.hunt = &run.report;
    inputs.ledger = &rig.tester.log();
    run.rendered = core::render_report(inputs);
    return run;
}

struct TimedConfig {
    double median = 0.0;
    HuntRun last;
};

TimedConfig time_config(const char* label, std::size_t inflight,
                        double realtime_fraction, std::size_t reps) {
    TimedConfig timed;
    const bench::TimedRuns runs = bench::time_runs(
        /*warmup=*/1, reps,
        [&] {
            timed.last = run_hunt(hunt_options(inflight), realtime_fraction);
        });
    timed.median = runs.median();
    std::printf("%s: median %.2f s over %zu runs\n", label, timed.median,
                runs.seconds.size());
    return timed;
}

int run_quick() {
    // CI smoke: with no latency to hide, the async engine's queue
    // machinery must not cost wall clock (20% noise margin for shared
    // runners) and the report must stay byte-identical.
    HuntRun blocking;
    HuntRun async_run;
    const auto run_blocking = [&] {
        blocking = run_hunt(quick_options(1), 0.0);
    };
    const auto run_async = [&] {
        async_run = run_hunt(quick_options(kInflight), 0.0);
    };
    const auto [blocking_runs, async_runs] =
        bench::time_interleaved(/*warmup=*/1, /*reps=*/5, run_blocking,
                                run_async);
    const bench::TimedRuns ratios =
        bench::paired_ratios(async_runs, blocking_runs);
    const double ratio = ratios.median();
    const bool identical = async_run.rendered == blocking.rendered;
    std::printf("blocking (fraction 0): median %.3f s over %zu runs\n",
                blocking_runs.median(), blocking_runs.seconds.size());
    std::printf("async x16 (fraction 0): median %.3f s over %zu runs\n",
                async_runs.median(), async_runs.seconds.size());
    std::printf("async/blocking paired wall ratio: median %.2f "
                "(min %.2f, max %.2f; target <= 1.20): %s\n",
                ratio, ratios.min(), ratios.max(),
                ratio <= 1.20 ? "PASS" : "FAIL");
    std::printf("report identical: %s\n", identical ? "PASS" : "FAIL");
    return (ratio <= 1.20 && identical) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    bench::header("Extension",
                  quick ? "async pipeline smoke: no-latency overhead check"
                        : "async pipeline: hiding decode/scoring cost "
                          "behind in-flight tester latency",
                  kSeed);
    bench::print_host();
    if (quick) return run_quick();

    const TimedConfig cpu_only =
        time_config("blocking, fraction 0 (CPU cost C)", 1, 0.0, 3);
    const TimedConfig blocking = time_config(
        "blocking, fraction 0.35 (T_b)", 1, kRealtimeFraction, 3);
    const TimedConfig async_run = time_config(
        "async x16, fraction 0.35 (T_a)", kInflight, kRealtimeFraction, 3);

    bench::section("latency hiding (jobs=4)");
    util::TextTable table(
        {"config", "inflight", "fraction", "median s", "report identical"});
    const std::string& reference = cpu_only.last.rendered;
    const bool identical_blocking = blocking.last.rendered == reference;
    const bool identical_async = async_run.last.rendered == reference;
    table.add_row({"blocking (CPU)", "1", "0", util::fixed(cpu_only.median, 2),
                   "yes"});
    table.add_row({"blocking", "1", util::fixed(kRealtimeFraction, 2),
                   util::fixed(blocking.median, 2),
                   identical_blocking ? "yes" : "NO"});
    table.add_row({"async", std::to_string(kInflight),
                   util::fixed(kRealtimeFraction, 2),
                   util::fixed(async_run.median, 2),
                   identical_async ? "yes" : "NO"});
    std::printf("%s", table.render().c_str());

    const bool deterministic = identical_blocking && identical_async;
    const double hidden =
        cpu_only.median > 0.0
            ? (blocking.median - async_run.median) / cpu_only.median
            : 0.0;
    const double speedup =
        async_run.median > 0.0 ? blocking.median / async_run.median : 0.0;
    std::printf("\nwall clock removed by the queue: %.2f s (%.0f%% of the "
                "%.2f s CPU cost)\n",
                blocking.median - async_run.median, 100.0 * hidden,
                cpu_only.median);
    std::printf("hidden cost fraction: %.2f (target >= 0.80): %s\n", hidden,
                hidden >= 0.80 ? "PASS" : "FAIL");
    std::printf("speedup over blocking at fraction %.2f: %.2fx\n",
                kRealtimeFraction, speedup);
    std::printf("inflight determinism (byte-identical reports): %s\n",
                deterministic ? "PASS" : "FAIL");

    bench::BenchJson json;
    json.set_string("bench", "async_pipeline");
    json.set_string("host", bench::host_line());
    json.set_integer("seed", kSeed);
    json.set_integer("jobs", kJobs);
    json.set_integer("inflight", kInflight);
    json.set_number("realtime_fraction", kRealtimeFraction);
    json.set_number("cpu_seconds", cpu_only.median);
    json.set_number("blocking_seconds", blocking.median);
    json.set_number("async_seconds", async_run.median);
    json.set_number("hidden_cost_fraction", hidden);
    json.set_number("speedup", speedup);
    json.set_bool("deterministic", deterministic);
    json.write("BENCH_async.json");

    std::printf(
        "\npaper context: every GA fitness evaluation is a live trip-point "
        "search on the modeled ATE, so the hunt pays tester I/O latency per "
        "probe; the submission/completion queue keeps chromosome decoding, "
        "cache lookups and scoring running under those in-flight waits "
        "while the submission-order reduction keeps one seed -> one "
        "report.\n");
    return (hidden >= 0.80 && deterministic) ? 0 : 1;
}
