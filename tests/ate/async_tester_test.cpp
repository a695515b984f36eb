// AsyncTester queue-pair semantics: submitted measurements return the
// same verdicts as blocking Tester::apply on an identical DUT, each is
// evaluated on the owner thread before submit returns, the bounded ring
// rejects over-submission, emulated-latency deadlines let completions
// ripen out of submission order (tracked by the reorder stat), and the
// LatencyModel shared by both paths sleeps through its injectable hook so
// the emulated path is unit-testable on a fake clock.
#include "ate/async_tester.hpp"

#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ate/tester.hpp"
#include "device/memory_chip.hpp"

namespace cichar::ate {
namespace {

testgen::Test sized_test(const char* name, std::uint32_t writes) {
    testgen::TestPattern p(name);
    for (std::uint32_t i = 0; i < writes; ++i) {
        p.write(i % 32, static_cast<std::uint16_t>(i));
    }
    return testgen::make_test(std::move(p));
}

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

TEST(LatencyModelTest, ModeledSecondsFollowSetupAndCycles) {
    const LatencyModel m(5e-4, 0.0, 0.0);
    // 100 cycles at a 10 ns period: setup + 100 * 10e-9.
    EXPECT_NEAR(m.modeled_seconds(100, 10.0), 5e-4 + 1e-6, 1e-15);
    // A cycle-seconds override displaces the test's own clock period.
    const LatencyModel o(0.0, 1e-6, 0.0);
    EXPECT_NEAR(o.modeled_seconds(100, 10.0), 100e-6, 1e-15);
}

TEST(LatencyModelTest, InflightSecondsScaleByRealtimeFraction) {
    const LatencyModel off(5e-4, 0.0, 0.0);
    EXPECT_FALSE(off.emulated());
    EXPECT_EQ(off.inflight_seconds(2.0), 0.0);

    const LatencyModel on(5e-4, 0.0, 0.25);
    EXPECT_TRUE(on.emulated());
    EXPECT_NEAR(on.inflight_seconds(2.0), 0.5, 1e-15);
}

TEST(LatencyModelTest, SleepHookReplacesRealSleep) {
    // A tester with latency emulation on, but with the sleep routed into
    // a fake clock: the measurement must "sleep" exactly the modeled
    // in-flight seconds without any real wall-clock delay.
    device::MemoryTestChip chip({}, noiseless());
    TesterOptions options;
    options.setup_seconds_per_measurement = 1e-3;
    options.cycle_seconds = 0.0;
    options.realtime_fraction = 0.5;
    Tester tester(chip, options);

    double fake_clock = 0.0;
    tester.latency_model().set_sleep(
        [&fake_clock](double seconds) { fake_clock += seconds; });

    const testgen::Test t = sized_test("t", 100);
    (void)tester.apply(t, Parameter::data_valid_time(), 20.0);

    const double modeled = tester.latency_model().modeled_seconds(
        t.pattern.size(), t.conditions.clock_period_ns);
    EXPECT_GT(fake_clock, 0.0);
    EXPECT_NEAR(fake_clock, 0.5 * modeled, 1e-12);
    // The ledger logs full modeled seconds regardless of the fraction.
    EXPECT_NEAR(tester.log().total().tester_seconds, modeled, 1e-12);
}

TEST(LatencyModelTest, BlockIgnoresNonPositiveSeconds) {
    LatencyModel m(0.0, 0.0, 1.0);
    int calls = 0;
    m.set_sleep([&calls](double) { ++calls; });
    m.block(0.0);
    m.block(-1.0);
    EXPECT_EQ(calls, 0);
    m.block(1e-9);
    EXPECT_EQ(calls, 1);
}

TEST(AsyncTesterTest, VerdictsMatchBlockingApply) {
    // The same ladder of settings on two identical noiseless chips: one
    // measured inline, one through the queue. Verdicts and ledger counts
    // must agree exactly.
    device::MemoryTestChip sync_chip({}, noiseless());
    device::MemoryTestChip async_chip({}, noiseless());
    Tester sync_tester(sync_chip);
    Tester async_tester_backend(async_chip);
    const testgen::Test t = sized_test("t", 100);
    const Parameter p = Parameter::data_valid_time();
    const double truth =
        sync_chip.true_parameter(t, device::ParameterKind::kDataValidTime);

    std::vector<double> settings;
    for (int i = -4; i <= 4; ++i) settings.push_back(truth + 0.7 * i);

    std::vector<bool> sync_verdicts;
    for (const double s : settings) {
        sync_verdicts.push_back(sync_tester.apply(t, p, s));
    }

    AsyncTesterOptions options;
    options.queue_depth = settings.size();
    AsyncTester queue(options);
    std::map<std::uint64_t, bool> async_verdicts;
    for (std::size_t i = 0; i < settings.size(); ++i) {
        ASSERT_TRUE(queue.submit(i, async_tester_backend, t, p, settings[i],
                                 [&async_verdicts](const AsyncCompletion& c) {
                                     if (c.error) std::rethrow_exception(c.error);
                                     async_verdicts[c.id] = c.pass;
                                 }));
    }
    queue.drain();

    ASSERT_EQ(async_verdicts.size(), settings.size());
    for (std::size_t i = 0; i < settings.size(); ++i) {
        EXPECT_EQ(async_verdicts[i], sync_verdicts[i]) << "setting " << i;
    }
    EXPECT_EQ(async_tester_backend.log().total().applications,
              sync_tester.log().total().applications);
    EXPECT_EQ(queue.stats().submitted, settings.size());
    EXPECT_EQ(queue.stats().completed, settings.size());
    EXPECT_EQ(queue.in_flight(), 0u);
}

TEST(AsyncTesterTest, FunctionalSubmission) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 50);

    AsyncTester queue({});
    bool harvested = false;
    ASSERT_TRUE(queue.submit_functional(
        7, tester, t, [&harvested](const AsyncCompletion& c) {
            if (c.error) std::rethrow_exception(c.error);
            EXPECT_TRUE(c.is_functional);
            EXPECT_EQ(c.id, 7u);
            harvested = true;
        }));
    queue.drain();
    EXPECT_TRUE(harvested);
    EXPECT_EQ(tester.log().total().applications, 1u);
}

TEST(AsyncTesterTest, BoundedRingRejectsWhenFull) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);
    const Parameter p = Parameter::data_valid_time();

    AsyncTesterOptions options;
    options.queue_depth = 2;
    AsyncTester queue(options);
    const auto ignore = [](const AsyncCompletion&) {};
    EXPECT_TRUE(queue.can_submit());
    ASSERT_TRUE(queue.submit(0, tester, t, p, 20.0, ignore));
    ASSERT_TRUE(queue.submit(1, tester, t, p, 20.0, ignore));
    EXPECT_FALSE(queue.can_submit());
    // The ring is full until a completion is harvested.
    EXPECT_FALSE(queue.submit(2, tester, t, p, 20.0, ignore));
    EXPECT_EQ(queue.in_flight(), 2u);

    queue.drain();
    EXPECT_EQ(queue.in_flight(), 0u);
    EXPECT_TRUE(queue.can_submit());
    ASSERT_TRUE(queue.submit(2, tester, t, p, 20.0, ignore));
    queue.drain();
    EXPECT_EQ(queue.stats().completed, 3u);
}

TEST(AsyncTesterTest, EmulatedLatencyCompletesOutOfOrder) {
    // A long test submitted before a short one: the short one's deadline
    // ripens first, so it harvests first and the long one counts as
    // reordered relative to it. Deadlines are a few milliseconds so the
    // test stays fast.
    device::MemoryTestChip chip({}, noiseless());
    // Replica testers never sleep inline; the queue's deadlines carry the
    // emulated latency.
    TesterOptions emulated;
    emulated.setup_seconds_per_measurement = 0.0;
    emulated.cycle_seconds = 2e-4;
    emulated.realtime_fraction = 1.0;
    Tester tester(chip, AsyncTester::replica_options(emulated));
    const testgen::Test long_test = sized_test("long", 100);   // 20 ms
    const testgen::Test short_test = sized_test("short", 10);  // 2 ms
    const Parameter p = Parameter::data_valid_time();

    AsyncTesterOptions options;
    options.queue_depth = 2;
    options.latency = LatencyModel(0.0, 2e-4, 1.0);
    AsyncTester queue(options);

    std::vector<std::uint64_t> harvest_order;
    const auto record = [&harvest_order](const AsyncCompletion& c) {
        if (c.error) std::rethrow_exception(c.error);
        harvest_order.push_back(c.id);
    };
    ASSERT_TRUE(queue.submit(0, tester, long_test, p, 20.0, record));
    ASSERT_TRUE(queue.submit(1, tester, short_test, p, 20.0, record));
    queue.drain();

    ASSERT_EQ(harvest_order.size(), 2u);
    EXPECT_EQ(harvest_order[0], 1u);  // short ripened first
    EXPECT_EQ(harvest_order[1], 0u);
    EXPECT_EQ(queue.stats().reordered, 1u);
}

TEST(AsyncTesterTest, SubmitMeasuresInlineAndHarvestsOnOwnerThread) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 50);
    const Parameter p = Parameter::data_valid_time();

    AsyncTesterOptions options;
    options.queue_depth = 8;
    AsyncTester queue(options);
    const std::thread::id owner = std::this_thread::get_id();
    std::size_t harvested = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        ASSERT_TRUE(queue.submit(i, tester, t, p, 20.0,
                                 [&](const AsyncCompletion& c) {
                                     if (c.error) std::rethrow_exception(c.error);
                                     EXPECT_EQ(std::this_thread::get_id(),
                                               owner);
                                     ++harvested;
                                 }));
        // The measurement already ran; only its callback is pending.
        EXPECT_EQ(tester.log().total().applications, i + 1);
    }
    EXPECT_EQ(harvested, 0u);
    while (queue.in_flight() > 0) (void)queue.wait();
    EXPECT_EQ(harvested, 8u);
    EXPECT_EQ(tester.log().total().applications, 8u);
}

/// A DUT whose every measurement throws, as a tester fault would.
class ThrowingChip : public device::DeviceUnderTest {
public:
    [[nodiscard]] bool passes(const testgen::Test&, device::ParameterKind,
                              double) override {
        throw std::runtime_error("probe fault");
    }
    [[nodiscard]] device::FunctionalResult run_functional(
        const testgen::Test&) override {
        throw std::runtime_error("functional fault");
    }
    void settle() override {}
};

TEST(AsyncTesterTest, ThrowingMeasurementArrivesAsCompletionError) {
    ThrowingChip chip;
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);
    const Parameter p = Parameter::data_valid_time();

    AsyncTesterOptions options;
    options.queue_depth = 2;
    AsyncTester queue(options);
    std::vector<std::string> errors;
    const auto record = [&errors](const AsyncCompletion& c) {
        ASSERT_TRUE(c.error);
        try {
            std::rethrow_exception(c.error);
        } catch (const std::runtime_error& e) {
            errors.emplace_back(e.what());
        }
    };
    bool accepted = false;
    EXPECT_NO_THROW(accepted = queue.submit(0, tester, t, p, 20.0, record));
    EXPECT_TRUE(accepted);
    EXPECT_NO_THROW(accepted = queue.submit_functional(1, tester, t, record));
    EXPECT_TRUE(accepted);
    EXPECT_TRUE(errors.empty());  // nothing surfaces before harvest
    queue.drain();
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_EQ(errors[0], "probe fault");
    EXPECT_EQ(errors[1], "functional fault");
    EXPECT_EQ(queue.stats().completed, 2u);
}

TEST(AsyncTesterTest, CallbacksMayResubmitIntoFreedSlot) {
    // A harvested completion has already freed its ring slot, so a 1:1
    // follow-up submission from inside the callback never overflows even
    // at queue_depth 1 — the pattern the optimizer's trip-search drivers
    // rely on.
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);
    const Parameter p = Parameter::data_valid_time();

    AsyncTesterOptions options;
    options.queue_depth = 1;
    AsyncTester queue(options);
    std::size_t remaining = 5;
    AsyncTester::CompletionFn chain = [&](const AsyncCompletion& c) {
        if (c.error) std::rethrow_exception(c.error);
        if (--remaining > 0) {
            ASSERT_TRUE(queue.submit(c.id + 1, tester, t, p, 20.0, chain));
        }
    };
    ASSERT_TRUE(queue.submit(0, tester, t, p, 20.0, chain));
    queue.drain();
    EXPECT_EQ(remaining, 0u);
    EXPECT_EQ(queue.stats().completed, 5u);
}

TEST(AsyncTesterTest, QuiesceDropsPendingCallbacks) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);
    const Parameter p = Parameter::data_valid_time();

    AsyncTester queue({});
    bool invoked = false;
    ASSERT_TRUE(queue.submit(0, tester, t, p, 20.0,
                             [&invoked](const AsyncCompletion&) {
                                 invoked = true;
                             }));
    queue.quiesce();
    EXPECT_FALSE(invoked);
    EXPECT_EQ(queue.in_flight(), 0u);
    // The measurement itself still happened (it ran at submit; quiesce
    // only drops the callback).
    EXPECT_EQ(tester.log().total().applications, 1u);
}

TEST(AsyncTesterTest, ReplicaOptionsStripOnlyTheEmulation) {
    TesterOptions options;
    options.setup_seconds_per_measurement = 2e-3;
    options.cycle_seconds = 1e-6;
    options.realtime_fraction = 0.5;
    const TesterOptions replica = AsyncTester::replica_options(options);
    EXPECT_EQ(replica.setup_seconds_per_measurement, 2e-3);
    EXPECT_EQ(replica.cycle_seconds, 1e-6);
    EXPECT_EQ(replica.realtime_fraction, 0.0);
}

TEST(AsyncTesterTest, QuiesceSkipsUnripeDeadlines) {
    // Emulated deadlines far in the future: quiesce must not wait them
    // out. It returns at once and drops every callback.
    device::MemoryTestChip chip({}, noiseless());
    TesterOptions emulated;
    emulated.setup_seconds_per_measurement = 60.0;
    emulated.realtime_fraction = 1.0;
    Tester tester(chip, AsyncTester::replica_options(emulated));
    const testgen::Test t = sized_test("t", 20);
    const Parameter p = Parameter::data_valid_time();

    AsyncTesterOptions options;
    options.queue_depth = 3;
    options.latency = LatencyModel(60.0, 0.0, 1.0);
    AsyncTester queue(options);
    bool invoked = false;
    const auto flag = [&invoked](const AsyncCompletion&) { invoked = true; };
    ASSERT_TRUE(queue.submit(0, tester, t, p, 20.0, flag));
    ASSERT_TRUE(queue.submit(1, tester, t, p, 20.0, flag));
    ASSERT_TRUE(queue.submit(2, tester, t, p, 20.0, flag));
    EXPECT_EQ(queue.poll(), 0u);  // nothing is ripe for a minute

    const auto start = std::chrono::steady_clock::now();
    queue.quiesce();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    EXPECT_FALSE(invoked);
    EXPECT_EQ(queue.in_flight(), 0u);
    EXPECT_EQ(tester.log().total().applications, 3u);
}

}  // namespace
}  // namespace cichar::ate
