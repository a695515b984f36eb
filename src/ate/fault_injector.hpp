// Deterministic ATE fault injection. Real testers exhibit contact faults,
// transient noise spikes, measurement timeouts, and whole-site dropouts;
// this module reproduces those failure modes from a seeded profile so a
// given (seed, profile) replays the exact fault sequence — which is what
// makes fault-tolerance testable: the retry/screening policy can be
// asserted to recover the fault-free answer byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ate/parameter.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace cichar::ate {

/// Configurable fault mix. All rates are per-measurement probabilities.
struct FaultProfile {
    /// P(transient disturbance on one reading): Gaussian wobble of the
    /// forced level, occasionally a full spike.
    double transient_rate = 0.0;
    /// Transient sigma as a fraction of the parameter's characterization
    /// range (spikes draw uniformly over +-CR/2 instead).
    double transient_span_fraction = 0.02;
    /// P(a stuck/open contact episode begins). During an episode every
    /// reading returns the same bogus outcome regardless of the setting.
    double stuck_rate = 0.0;
    /// Measurements one stuck episode lasts.
    std::uint32_t stuck_duration = 5;
    /// P(the measurement times out; the attempt costs tester time and
    /// must be retried).
    double timeout_rate = 0.0;
    /// P(the whole site dies on this measurement and stays dead).
    double site_death_rate = 0.0;
    /// Seed of the fault stream. Independent of the device/measurement
    /// seeds, so the same campaign can be replayed with faults on or off.
    std::uint64_t seed = 0x0FA17ULL;

    [[nodiscard]] bool operator==(const FaultProfile&) const = default;

    /// True when any fault can ever fire; false means the injector is
    /// a strict no-op and the measurement path is byte-identical to an
    /// uninstrumented tester.
    [[nodiscard]] bool any() const noexcept;

    /// No faults at all (the default).
    [[nodiscard]] static FaultProfile none() noexcept;
    /// Only transient noise at `rate`.
    [[nodiscard]] static FaultProfile transient_only(
        double rate, std::uint64_t seed = 0x0FA17ULL) noexcept;
    /// A realistic mixed profile: transients, occasional stuck contacts
    /// and timeouts, very rare site death.
    [[nodiscard]] static FaultProfile moderate(
        std::uint64_t seed = 0x0FA17ULL) noexcept;

    /// Parses a CLI spec. Accepted forms:
    ///   "off" | "none"                  -> none()
    ///   "transient" | "transient:0.05"  -> transient_only(rate)
    ///   "moderate"                      -> moderate()
    ///   "transient=0.05,stuck=0.01,timeout=0.02,death=0.001,
    ///    span=0.02,stuck-len=5,seed=42" (any subset, any order)
    /// Returns nullopt on a malformed spec.
    [[nodiscard]] static std::optional<FaultProfile> parse(
        std::string_view spec);

    /// Compact "transient=0.05 stuck=0.01 ..." summary (only nonzero
    /// knobs; "off" when none).
    [[nodiscard]] std::string describe() const;
};

/// What the injector actually did, for reports.
struct InjectionStats {
    std::uint64_t measurements = 0;       ///< readings seen by the injector
    std::uint64_t transients = 0;         ///< perturbed readings
    std::uint64_t stuck_measurements = 0; ///< readings with forced outcome
    std::uint64_t stuck_episodes = 0;     ///< distinct contact episodes
    std::uint64_t timeouts = 0;
    std::uint64_t site_deaths = 0;

    [[nodiscard]] bool operator==(const InjectionStats&) const = default;

    /// Total faulted readings (everything except clean measurements).
    [[nodiscard]] std::uint64_t injected() const noexcept {
        return transients + stuck_measurements + timeouts + site_deaths;
    }
    void merge(const InjectionStats& other) noexcept;

    /// Checkpoint serialization (hunt and lot resume blobs).
    void save(std::string& out) const;
    [[nodiscard]] static InjectionStats load(util::ByteReader& in);
};

/// A measurement attempt that timed out; costs tester time, retryable.
class MeasurementTimeout : public std::runtime_error {
public:
    MeasurementTimeout() : std::runtime_error("ATE measurement timeout") {}
};

/// The site's contact/electronics died; no further measurement on this
/// tester can succeed.
class SiteDeadError : public std::runtime_error {
public:
    SiteDeadError() : std::runtime_error("ATE site dead") {}
};

/// Per-tester fault source. Attach to a Tester (or a replica) via
/// Tester::attach_fault_injector; each replica gets its own fork so
/// parallel schedules cannot perturb the fault sequence.
class FaultInjector {
public:
    explicit FaultInjector(FaultProfile profile);

    /// Outcome of consulting the injector for one reading.
    struct Decision {
        bool forced = false;          ///< outcome overridden (stuck contact)
        bool forced_outcome = false;  ///< the override, when forced
        double setting_offset = 0.0;  ///< transient wobble on the level
    };

    /// Draws the fate of one parametric reading. Throws
    /// MeasurementTimeout / SiteDeadError for those faults; a dead site
    /// throws SiteDeadError on every subsequent call.
    [[nodiscard]] Decision on_measurement(const Parameter& parameter);

    /// Child injector with an independent deterministic fault stream
    /// (fresh contact state, its own stats). Advances this injector's
    /// stream by one draw — fork in submission order.
    [[nodiscard]] FaultInjector fork(std::uint64_t salt);

    [[nodiscard]] const FaultProfile& profile() const noexcept {
        return profile_;
    }
    [[nodiscard]] const InjectionStats& stats() const noexcept {
        return stats_;
    }
    [[nodiscard]] bool dead() const noexcept { return dead_; }

    /// Folds a child's stats back into this injector's ledger.
    void absorb_stats(const InjectionStats& stats) noexcept;

    /// Serializes the dynamic state (fault stream position, contact
    /// episode, death flag, stats); the profile itself is configuration
    /// and travels with the checkpoint fingerprint instead.
    void save(std::string& out) const;
    void load(util::ByteReader& in);

private:
    FaultProfile profile_;
    util::Rng rng_;
    std::uint32_t stuck_remaining_ = 0;
    bool stuck_outcome_ = false;
    bool dead_ = false;
    InjectionStats stats_;
};

}  // namespace cichar::ate
