#include "ate/tester.hpp"

#include "util/telemetry.hpp"

namespace cichar::ate {

Tester::Tester(device::DeviceUnderTest& dut, TesterOptions options)
    : dut_(&dut),
      options_(options),
      latency_(options.setup_seconds_per_measurement, options.cycle_seconds,
               options.realtime_fraction) {}

void Tester::record(const testgen::Test& test) {
    const auto cycles = static_cast<std::uint64_t>(test.pattern.size());
    const double seconds =
        latency_.modeled_seconds(cycles, test.conditions.clock_period_ns);
    log_.record(cycles, seconds);
    if (util::telemetry::metrics_enabled()) {
        namespace telem = util::telemetry;
        static auto& measurements = telem::Registry::instance().counter(
            "cichar_ate_measurements_total");
        static auto& vector_cycles = telem::Registry::instance().counter(
            "cichar_ate_vector_cycles_total");
        static auto& tester_seconds = telem::Registry::instance().gauge(
            "cichar_ate_tester_seconds_total");
        measurements.add();
        vector_cycles.add(cycles);
        tester_seconds.add(seconds);
    }
    // Emulated hardware latency; only the wall clock is affected, the
    // ledger above stays identical with the emulation on or off.
    if (latency_.emulated()) latency_.block(latency_.inflight_seconds(seconds));
}

bool Tester::apply(const testgen::Test& test, const Parameter& parameter,
                   double setting) {
    record(test);
    const double quantized = parameter.quantize(setting);
    bool pass = false;
    if (injector_ != nullptr && injector_->profile().any()) {
        // The attempt above is already ledgered, so a thrown timeout /
        // site death still costs tester time — like real hardware.
        const FaultInjector::Decision fate =
            injector_->on_measurement(parameter);
        if (fate.forced) {
            pass = fate.forced_outcome;
        } else {
            pass = dut_->passes(
                test, parameter.kind,
                parameter.quantize(quantized + fate.setting_offset));
        }
    } else {
        pass = dut_->passes(test, parameter.kind, quantized);
    }
    return pass;
}

device::FunctionalResult Tester::run_functional(const testgen::Test& test) {
    record(test);
    return dut_->run_functional(test);
}

Oracle Tester::oracle(const testgen::Test& test, const Parameter& parameter) {
    return [this, &test, parameter](double setting) {
        return apply(test, parameter, setting);
    };
}

void Tester::settle() { dut_->settle(); }

}  // namespace cichar::ate
