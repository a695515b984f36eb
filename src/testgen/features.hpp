// Pattern/condition feature extraction: the observable statistics of a
// test. They serve two roles:
//   1. NN input space — the committee learns feature vector -> trip point.
//   2. Device sensitivity inputs — the behavioral timing model responds to
//      the same measurable statistics (SSN from data toggling, coupling
//      from address transitions, bank-conflict stress, ...), which is what
//      makes the trip point genuinely "test dependent" as in the paper.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "testgen/conditions.hpp"
#include "testgen/test.hpp"

namespace cichar::testgen {

inline constexpr std::size_t kPatternFeatureCount = 10;
inline constexpr std::size_t kConditionFeatureCount = 4;
inline constexpr std::size_t kFeatureCount =
    kPatternFeatureCount + kConditionFeatureCount;

/// Indices into FeatureVector::values (pattern part).
enum PatternFeature : std::size_t {
    kToggleDensity = 0,      ///< mean Hamming distance of written data / 16
    kAddrTransition = 1,     ///< mean Hamming distance of addresses / bits
    kBankConflictRate = 2,   ///< same bank + different row, consecutive ops
    kRowLocality = 3,        ///< same row, consecutive ops
    kReadFraction = 4,       ///< reads / cycles
    kWriteFraction = 5,      ///< writes / cycles
    kRwSwitchRate = 6,       ///< read<->write flips between consecutive ops
    kBurstiness = 7,         ///< burst-flagged cycles / cycles
    kAlternatingData = 8,    ///< writes of 0x5555/0xAAAA / writes
    kControlActivity = 9,    ///< CE/OE changes per cycle
};

/// Indices into FeatureVector::values (condition part).
enum ConditionFeature : std::size_t {
    kVddNorm = kPatternFeatureCount + 0,
    kTemperatureNorm = kPatternFeatureCount + 1,
    kClockPeriodNorm = kPatternFeatureCount + 2,
    kOutputLoadNorm = kPatternFeatureCount + 3,
};

/// All features are normalized to [0, 1].
struct FeatureVector {
    std::array<double, kFeatureCount> values{};

    [[nodiscard]] double operator[](std::size_t i) const noexcept {
        return values[i];
    }
    [[nodiscard]] static std::string_view name(std::size_t i) noexcept;
};

/// Pattern features of a `cycles`-long sequence with statistics `stats`
/// (condition slots left at 0).
[[nodiscard]] FeatureVector extract_pattern_features(const PatternStats& stats,
                                                     std::size_t cycles);

/// Extracts pattern features only (condition slots left at 0).
[[nodiscard]] FeatureVector extract_pattern_features(const TestPattern& pattern);

/// The full feature vector of a `cycles`-long sequence with statistics
/// `stats` under `conditions`, normalized against `bounds` (a collapsed
/// bound maps to 0.5).
[[nodiscard]] FeatureVector extract_features(const PatternStats& stats,
                                             std::size_t cycles,
                                             const TestConditions& conditions,
                                             const ConditionBounds& bounds);

/// Extracts the full feature vector of `test` (see the stats overload).
[[nodiscard]] FeatureVector extract_features(const Test& test,
                                             const ConditionBounds& bounds);

}  // namespace cichar::testgen
