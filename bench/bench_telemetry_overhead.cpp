// Extension bench: telemetry overhead. Runs the same worst-case hunt
// with telemetry fully off, fully on (metrics registry + span tracing),
// and with the live status feed publishing at its default 1 s interval,
// and asserts each enabled run costs < 2% extra process CPU time
// (paired rep-by-rep against the off arm to cancel host speed wander).
// Also re-checks the determinism contract at the bench level: the
// rendered hunt report must be byte-identical in all modes.
#include <ctime>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "obs/status_board.hpp"
#include "obs/status_writer.hpp"
#include "util/telemetry.hpp"

using namespace cichar;

namespace {

constexpr std::uint64_t kSeed = 2005;
constexpr double kMaxOverheadFraction = 0.02;

core::OptimizerOptions hunt_options() {
    core::OptimizerOptions options;
    // Sized so one hunt takes ~0.2 s: long enough that measurement jitter
    // amortizes below the 2% budget the bench is resolving, short enough
    // to keep the full three-arm run in CI-smoke territory.
    options.ga.population.size = 16;
    options.ga.populations = 3;
    options.ga.max_generations = 48;
    options.ga.stagnation_limit = 48;
    options.ga.max_restarts = 2;
    options.ga.migration_interval = 4;
    // No realtime emulation and no worker threads: the bench measures
    // pure single-threaded compute, which is the worst case for relative
    // instrumentation overhead (sleeping on emulated tester latency or
    // idle pool workers would only dilute it), and it keeps the CPU-time
    // samples free of the pool's spin-before-park jitter.
    options.parallel.enabled = false;
    options.cache.enabled = true;
    return options;
}

std::string run_hunt() {
    bench::Rig rig;
    const ate::Parameter param = ate::Parameter::data_valid_time();
    util::Rng rng(kSeed);
    core::OptimizerOptions options = hunt_options();
    if (obs::status_enabled()) {
        obs::StatusBoard::instance().begin_site(0);
        options.on_generation = [](const core::HuntProgress& hunt) {
            obs::GenerationPost post;
            post.generation = hunt.next_generation;
            post.generations_total = hunt.max_generations;
            post.evaluations = hunt.evaluations;
            post.best_wcr = hunt.best_fitness;
            post.ate_applications = hunt.ate_applications;
            post.cache_hits = hunt.cache.hits;
            post.cache_misses = hunt.cache.misses;
            post.inflight = hunt.inflight;
            obs::StatusBoard::instance().post_generation(0, post);
        };
    }
    const core::WorstCaseOptimizer optimizer(options);
    const core::WorstCaseReport report = optimizer.run_unseeded(
        rig.tester, param, bench::nominal_generator(),
        core::objective_for(param), rng);
    core::ReportInputs inputs;
    inputs.device_name = "bench-telemetry";
    inputs.seed = kSeed;
    inputs.hunt = &report;
    inputs.ledger = &rig.tester.log();
    return core::render_report(inputs);
}

}  // namespace

int main() {
    bench::header("Extension",
                  "telemetry overhead: hunt with metrics+tracing on vs off",
                  kSeed);
    bench::print_host();

    namespace telem = util::telemetry;
    std::string report_off;
    std::string report_on;
    std::string report_status;

    telem::set_metrics_enabled(false);
    telem::set_tracing_enabled(false);

    const std::filesystem::path status_dir = "bench_status_feed";
    std::filesystem::remove_all(status_dir);
    obs::StatusBoard::instance().begin_campaign("hunt", "bench-telemetry",
                                                kSeed, 1);

    // The budget is about CPU the instrumentation burns, so the gate runs
    // on process CPU time: wall clock on a shared host carries scheduler
    // and steal-time noise far above the 2% the bench has to resolve.
    const auto cpu_now = [] {
        timespec ts{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
    };
    using Clock = std::chrono::steady_clock;
    const auto timed = [&](auto&& fn, std::vector<double>& cpu) {
        const Clock::time_point start = Clock::now();
        const double cpu_start = cpu_now();
        fn();
        cpu.push_back(cpu_now() - cpu_start);
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    const auto run_off = [&] { report_off = run_hunt(); };
    const auto run_on = [&] {
        telem::set_metrics_enabled(true);
        telem::set_tracing_enabled(true);
        report_on = run_hunt();
        telem::set_metrics_enabled(false);
        telem::set_tracing_enabled(false);
    };
    // Status arm: board posts on every GA generation plus the background
    // snapshot writer at its default 1 s interval — exactly the
    // `--status` production path.
    const auto run_status = [&] {
        obs::set_status_enabled(true);
        report_status = run_hunt();
        obs::set_status_enabled(false);
    };

    bench::TimedRuns off;
    bench::TimedRuns on;
    bench::TimedRuns with_status;
    bench::TimedRuns off_cpu;
    bench::TimedRuns on_cpu;
    bench::TimedRuns status_cpu;
    constexpr std::size_t kReps = 7;
    {
        obs::StatusWriterOptions writer_options;
        writer_options.directory = status_dir.string();
        writer_options.name = "bench";
        writer_options.interval_seconds = 1.0;
        const obs::StatusWriter writer(std::move(writer_options));
        // Interleave the arms rep by rep: slow machine drift (frequency
        // scaling, thermal, background load) then hits every arm equally
        // instead of biasing whichever block happened to run last.
        run_off();
        run_on();
        run_status();
        for (std::size_t i = 0; i < kReps; ++i) {
            off.seconds.push_back(timed(run_off, off_cpu.seconds));
            on.seconds.push_back(timed(run_on, on_cpu.seconds));
            with_status.seconds.push_back(
                timed(run_status, status_cpu.seconds));
        }
    }
    const bool status_published =
        std::filesystem::exists(status_dir / "bench.status");
    obs::StatusBoard::instance().reset_for_test();
    std::filesystem::remove_all(status_dir);

    // Gate on the cleanest per-rep paired CPU ratio (the minimum): a
    // systematic instrumentation cost shows up in every pair — it
    // survives the min — while host speed wander (roughly symmetric
    // around zero) is shed. The byte-identity check below, not this
    // tripwire, is what enforces the invisibility contract exactly.
    const bench::TimedRuns on_ratios = bench::paired_ratios(on_cpu, off_cpu);
    const bench::TimedRuns status_ratios =
        bench::paired_ratios(status_cpu, off_cpu);
    const double overhead = on_ratios.min() - 1.0;
    const double status_overhead = status_ratios.min() - 1.0;
    const bool identical =
        report_on == report_off && report_status == report_off;
    const std::size_t spans = telem::Trace::instance().event_count() / 2;
    const std::uint64_t measurements =
        telem::Registry::instance()
            .counter("cichar_ate_measurements_total")
            .value();

    std::printf(
        "telemetry off: best %.3f s cpu (wall median %.3f) over %zu runs\n",
        off_cpu.min(), off.median(), off.seconds.size());
    std::printf(
        "telemetry on:  best %.3f s cpu (wall median %.3f) over %zu runs\n",
        on_cpu.min(), on.median(), on.seconds.size());
    std::printf(
        "status feed:   best %.3f s cpu (wall median %.3f) over %zu runs\n",
        status_cpu.min(), with_status.median(), with_status.seconds.size());
    std::printf("overhead: %.2f%% cpu (paired median %.2f%%, budget %.1f%%)\n",
                100.0 * overhead, 100.0 * (on_ratios.median() - 1.0),
                100.0 * kMaxOverheadFraction);
    std::printf(
        "status feed overhead: %.2f%% cpu (paired median %.2f%%, budget "
        "%.1f%%)\n",
        100.0 * status_overhead, 100.0 * (status_ratios.median() - 1.0),
        100.0 * kMaxOverheadFraction);
    std::printf("spans recorded: %zu; measurements counted: %llu\n", spans,
                static_cast<unsigned long long>(measurements));
    std::printf("report byte-identical across all modes: %s\n",
                identical ? "PASS" : "FAIL");

    const bool overhead_ok = overhead < kMaxOverheadFraction &&
                             status_overhead < kMaxOverheadFraction;
    const bool recorded = spans > 0 && measurements > 0 && status_published;
    std::printf("overhead < %.0f%%: %s\n", 100.0 * kMaxOverheadFraction,
                overhead_ok ? "PASS" : "FAIL");
    std::printf("telemetry and status feed actually recorded: %s\n",
                recorded ? "PASS" : "FAIL");

    bench::BenchJson json;
    json.set_string("bench", "telemetry_overhead");
    json.set_string("host", bench::host_line());
    json.set_integer("seed", kSeed);
    json.set_number("median_seconds_off", off.median());
    json.set_number("median_seconds_on", on.median());
    json.set_number("median_seconds_status", with_status.median());
    json.set_number("min_cpu_seconds_off", off_cpu.min());
    json.set_number("min_cpu_seconds_on", on_cpu.min());
    json.set_number("min_cpu_seconds_status", status_cpu.min());
    json.set_number("overhead_fraction", overhead);
    json.set_number("status_overhead_fraction", status_overhead);
    json.set_number("overhead_fraction_median", on_ratios.median() - 1.0);
    json.set_number("status_overhead_fraction_median",
                    status_ratios.median() - 1.0);
    json.set_number("overhead_budget", kMaxOverheadFraction);
    json.set_bool("report_identical", identical);
    json.set_integer("spans_recorded", spans);
    json.set_integer("ate_measurements_counted", measurements);
    json.write("BENCH_telemetry.json");

    std::printf(
        "\npaper context: the telemetry layer makes the paper's "
        "measurement-economics claims continuously observable; the budget "
        "here guarantees watching the hunt never meaningfully slows it.\n");
    return (overhead_ok && identical && recorded) ? 0 : 1;
}
