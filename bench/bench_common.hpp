// Shared scaffolding for the paper-reproduction benches: a standard device
// + tester bring-up, uniform report formatting (figure/table id, paper's
// reported values, our measured ones), repeated-run timing with warmup +
// median-of-N, and machine-readable BENCH_*.json emission for tracking
// results across commits.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ate/parameter.hpp"
#include "ate/tester.hpp"
#include "device/memory_chip.hpp"
#include "testgen/random_gen.hpp"
#include "util/rng.hpp"

namespace cichar::bench {

/// One die + tester, the standard bench rig.
struct Rig {
    device::MemoryTestChip chip;
    ate::Tester tester;

    explicit Rig(device::MemoryChipOptions options = {},
                 device::DieParameters die = {},
                 ate::TesterOptions tester_options = {})
        : chip(die, options), tester(chip, tester_options) {}
};

inline void header(std::string_view experiment, std::string_view description,
                   std::uint64_t seed) {
    std::printf("==============================================================\n");
    std::printf("%.*s  --  %.*s\n", static_cast<int>(experiment.size()),
                experiment.data(), static_cast<int>(description.size()),
                description.data());
    std::printf("seed: %llu\n", static_cast<unsigned long long>(seed));
    std::printf("==============================================================\n");
}

inline void section(std::string_view title) {
    std::printf("\n--- %.*s ---\n", static_cast<int>(title.size()),
                title.data());
}

/// One line naming the machine a timing came from: logical CPUs, CPU
/// model, compiler and whether asserts are compiled out. Wall-clock gates
/// print it so a number can be read against its host.
[[nodiscard]] inline std::string host_line() {
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) cpu = line.substr(colon + 2);
            break;
        }
    }
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown compiler";
#endif
#ifdef NDEBUG
    const char* build = "NDEBUG";
#else
    const char* build = "asserts on";
#endif
    return std::to_string(std::thread::hardware_concurrency()) + " CPUs, " +
           cpu + ", " + compiler + ", " + build;
}

inline void print_host() { std::printf("host: %s\n", host_line().c_str()); }

/// Fixed-nominal generator options (Table 1 runs at Vdd = 1.8 V).
inline testgen::RandomGeneratorOptions nominal_generator() {
    testgen::RandomGeneratorOptions g;
    g.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    return g;
}

/// Wall-clock samples of repeated runs of one configuration.
struct TimedRuns {
    std::vector<double> seconds;  ///< one entry per measured (post-warmup) run

    [[nodiscard]] double median() const {
        if (seconds.empty()) return 0.0;
        std::vector<double> sorted = seconds;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t n = sorted.size();
        return n % 2 == 1 ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    }
    [[nodiscard]] double min() const {
        return seconds.empty()
                   ? 0.0
                   : *std::min_element(seconds.begin(), seconds.end());
    }
    [[nodiscard]] double max() const {
        return seconds.empty()
                   ? 0.0
                   : *std::max_element(seconds.begin(), seconds.end());
    }
};

/// Runs `fn` `warmup` times untimed (cache/allocator/branch-predictor
/// warm-up), then `reps` more times, wall-timing each. Report the median:
/// it is robust against one run absorbing a scheduler hiccup.
template <typename Fn>
[[nodiscard]] TimedRuns time_runs(std::size_t warmup, std::size_t reps,
                                  Fn&& fn) {
    using Clock = std::chrono::steady_clock;
    for (std::size_t i = 0; i < warmup; ++i) fn();
    TimedRuns runs;
    runs.seconds.reserve(reps);
    for (std::size_t i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        fn();
        runs.seconds.push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
    }
    return runs;
}

/// Times `reference` and `arm` alternately, rep by rep, after `warmup`
/// untimed rounds of each — the input paired_ratios() expects.
template <typename Ref, typename Arm>
[[nodiscard]] std::pair<TimedRuns, TimedRuns> time_interleaved(
    std::size_t warmup, std::size_t reps, Ref&& reference, Arm&& arm) {
    for (std::size_t i = 0; i < warmup; ++i) {
        reference();
        arm();
    }
    std::pair<TimedRuns, TimedRuns> runs;
    for (std::size_t i = 0; i < reps; ++i) {
        runs.first.seconds.push_back(time_runs(0, 1, reference).seconds[0]);
        runs.second.seconds.push_back(time_runs(0, 1, arm).seconds[0]);
    }
    return runs;
}

/// Per-rep ratios arm[i] / reference[i] for two arms timed rep by rep
/// (interleaved, back to back). Each pair sees nearly the same effective
/// host speed, so a systematic difference between the arms shows up in
/// every ratio while the multi-percent CPU-speed wander of a shared host
/// — which would swamp a comparison of two medians — cancels.
[[nodiscard]] inline TimedRuns paired_ratios(const TimedRuns& arm,
                                             const TimedRuns& reference) {
    TimedRuns ratios;
    const std::size_t n = std::min(arm.seconds.size(),
                                   reference.seconds.size());
    for (std::size_t i = 0; i < n; ++i) {
        ratios.seconds.push_back(arm.seconds[i] / reference.seconds[i]);
    }
    return ratios;
}

/// Insertion-ordered flat JSON object writer for BENCH_*.json files —
/// small enough on purpose; benches emit one object of scalars/arrays.
class BenchJson {
public:
    void set_number(const std::string& key, double value) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        entries_.emplace_back(key, buf);
    }
    void set_integer(const std::string& key, std::uint64_t value) {
        entries_.emplace_back(key,
                              std::to_string(value));
    }
    void set_bool(const std::string& key, bool value) {
        entries_.emplace_back(key, value ? "true" : "false");
    }
    void set_string(const std::string& key, const std::string& value) {
        entries_.emplace_back(key, "\"" + escape(value) + "\"");
    }
    void set_numbers(const std::string& key, const std::vector<double>& values) {
        std::string raw = "[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", values[i]);
            if (i > 0) raw += ", ";
            raw += buf;
        }
        raw += "]";
        entries_.emplace_back(key, std::move(raw));
    }

    [[nodiscard]] std::string render() const {
        std::string out = "{\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            out += "  \"" + escape(entries_[i].first) +
                   "\": " + entries_[i].second;
            if (i + 1 < entries_.size()) out += ",";
            out += "\n";
        }
        out += "}\n";
        return out;
    }

    /// Writes the object to `path`; prints a note either way.
    bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        out << render();
        std::printf("machine-readable results written to %s\n", path.c_str());
        return true;
    }

private:
    static std::string escape(const std::string& s) {
        std::string out;
        out.reserve(s.size());
        for (const char c : s) {
            if (c == '"' || c == '\\') out += '\\';
            out += c;
        }
        return out;
    }

    std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace cichar::bench
