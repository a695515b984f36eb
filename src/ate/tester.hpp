// The modeled industrial ATE. Owns the connection to one DUT, applies
// tests at forced parameter settings, quantizes settings to the tester's
// edge resolution, and ledgers every measurement.
#pragma once

#include <functional>

#include "ate/fault_injector.hpp"
#include "ate/latency_model.hpp"
#include "ate/measurement_log.hpp"
#include "ate/parameter.hpp"
#include "device/dut.hpp"
#include "testgen/test.hpp"

namespace cichar::ate {

/// Tester timing model for the ledger.
struct TesterOptions {
    double setup_seconds_per_measurement = 5e-4;  ///< relay/level setup
    /// When > 0, overrides the test's own clock period for time accounting.
    double cycle_seconds = 0.0;
    /// When > 0, each measurement also *blocks the calling thread* for
    /// `modeled seconds * realtime_fraction`, emulating the physical
    /// tester's I/O latency. A single-site run is rate-limited by this
    /// wait; a multi-site lot overlaps the waits across sites — exactly
    /// the economics that justify multi-site ATE. Off (0) by default so
    /// simulations run at CPU speed.
    double realtime_fraction = 0.0;
};

/// Pass/fail oracle for one (test, parameter) pair. Search algorithms are
/// written against this signature, independent of the tester.
using Oracle = std::function<bool(double setting)>;

class Tester {
public:
    /// The tester borrows the DUT; the DUT must outlive the tester.
    explicit Tester(device::DeviceUnderTest& dut, TesterOptions options = {});

    /// Applies `test` with `parameter` forced to `setting` (quantized to
    /// the parameter resolution). Records the measurement.
    [[nodiscard]] bool apply(const testgen::Test& test,
                             const Parameter& parameter, double setting);

    /// Runs the pattern functionally at its own conditions (also ledgered).
    [[nodiscard]] device::FunctionalResult run_functional(
        const testgen::Test& test);

    /// Binds (test, parameter) into a counting pass/fail oracle. The
    /// returned callable borrows this tester and the test.
    [[nodiscard]] Oracle oracle(const testgen::Test& test,
                                const Parameter& parameter);

    /// Idles the DUT (cooling pause between devices/tests).
    void settle();

    [[nodiscard]] MeasurementLog& log() noexcept { return log_; }
    [[nodiscard]] const MeasurementLog& log() const noexcept { return log_; }

    [[nodiscard]] device::DeviceUnderTest& dut() noexcept { return *dut_; }
    [[nodiscard]] const device::DeviceUnderTest& dut() const noexcept {
        return *dut_;
    }

    /// Timing model, e.g. to construct identically-configured replica
    /// testers for parallel measurement.
    [[nodiscard]] const TesterOptions& options() const noexcept {
        return options_;
    }

    /// The latency model derived from the options: modeled seconds for the
    /// ledger plus the emulated-hardware wait. Mutable so tests can install
    /// a fake-clock sleep hook; the async path reads its own copy instead.
    [[nodiscard]] LatencyModel& latency_model() noexcept { return latency_; }
    [[nodiscard]] const LatencyModel& latency_model() const noexcept {
        return latency_;
    }

    /// Attaches a fault source consulted on every parametric measurement
    /// (nullptr detaches; the injector must outlive the tester). With no
    /// injector — or one whose profile has no enabled fault — apply() is
    /// byte-identical to the uninstrumented tester.
    void attach_fault_injector(FaultInjector* injector) noexcept {
        injector_ = injector;
    }
    [[nodiscard]] FaultInjector* fault_injector() const noexcept {
        return injector_;
    }

private:
    void record(const testgen::Test& test);

    device::DeviceUnderTest* dut_;
    TesterOptions options_;
    LatencyModel latency_;
    MeasurementLog log_;
    FaultInjector* injector_ = nullptr;
};

}  // namespace cichar::ate
