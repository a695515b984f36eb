// Tester latency model shared by the synchronous and asynchronous
// measurement paths. The modeled per-measurement seconds (relay/level
// setup + vector cycles) feed the ledger either way; what differs is how
// the emulated hardware latency (`realtime_fraction`) is *spent*: the
// blocking Tester sleeps it inline, while AsyncTester turns it into a
// completion deadline and keeps the CPU busy underneath. Computing both
// numbers in one place keeps the two paths ledger- and wall-clock
// consistent, and the injectable sleep hook lets unit tests run the
// emulated path against a fake clock.
#pragma once

#include <cstdint>
#include <functional>

namespace cichar::ate {

/// Sets the calling thread's timer slack to 1 ns, once per thread (Linux;
/// a no-op elsewhere). Linux lets a timed sleep or wait of a normal thread
/// wake up to 50 us late by default; emulated tester latency is spent in
/// waits of tens of microseconds, so every such wait calls this first.
void tighten_timer_slack() noexcept;

class LatencyModel {
public:
    /// Replaces the real `sleep_for` in `block()`; receives the seconds
    /// that would have been slept. For fake-clock unit tests.
    using SleepFn = std::function<void(double seconds)>;

    LatencyModel() = default;
    LatencyModel(double setup_seconds, double cycle_seconds_override,
                 double realtime_fraction)
        : setup_seconds_(setup_seconds),
          cycle_seconds_override_(cycle_seconds_override),
          realtime_fraction_(realtime_fraction) {}

    /// Modeled tester time for one measurement: setup plus `cycles` at the
    /// test's clock period (or the configured override). Ledger currency —
    /// identical whether latency emulation is on or off.
    [[nodiscard]] double modeled_seconds(std::uint64_t cycles,
                                         double clock_period_ns) const noexcept {
        const double cycle_s = cycle_seconds_override_ > 0.0
                                   ? cycle_seconds_override_
                                   : clock_period_ns * 1e-9;
        return setup_seconds_ + static_cast<double>(cycles) * cycle_s;
    }

    /// Wall-clock seconds a request of `modeled` tester-seconds keeps the
    /// (emulated) hardware busy: the sync path sleeps this, the async path
    /// schedules its completion deadline this far out.
    [[nodiscard]] double inflight_seconds(double modeled) const noexcept {
        return modeled * realtime_fraction_;
    }

    [[nodiscard]] bool emulated() const noexcept {
        return realtime_fraction_ > 0.0;
    }
    [[nodiscard]] double realtime_fraction() const noexcept {
        return realtime_fraction_;
    }

    /// Blocks the calling thread for `seconds` (no-op when <= 0), through
    /// the test hook when one is installed.
    void block(double seconds) const;

    void set_sleep(SleepFn fn) { sleep_ = std::move(fn); }

private:
    double setup_seconds_ = 5e-4;
    double cycle_seconds_override_ = 0.0;
    double realtime_fraction_ = 0.0;
    SleepFn sleep_;  // empty = real std::this_thread::sleep_for
};

}  // namespace cichar::ate
