// Shared scaffolding for the paper-reproduction benches: a standard device
// + tester bring-up and uniform report formatting (figure/table id, paper's
// reported values, our measured ones). These benches reproduce results;
// speed is measured by perfbench/ (BENCHMARK.json), whose workloads report
// ATE measurements, tester time, host CPU and wall clock with their spread.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string_view>

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

/// Fixed-nominal generator options (Table 1 runs at Vdd = 1.8 V).
inline testgen::RandomGeneratorOptions nominal_generator() {
    testgen::RandomGeneratorOptions g;
    g.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    return g;
}

}  // namespace cichar::bench
