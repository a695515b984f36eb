#include "core/measurement_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ate/fault_injector.hpp"
#include "ate/parameter.hpp"
#include "ate/search.hpp"
#include "ate/tester.hpp"
#include "core/multi_trip.hpp"
#include "device/memory_chip.hpp"
#include "testgen/random_gen.hpp"

namespace cichar::core {
namespace {

MeasurementPolicyOptions enabled_options() {
    MeasurementPolicyOptions o;
    o.enabled = true;
    return o;
}

/// One scripted reading: a pass/fail outcome, or a timeout.
struct Reading {
    bool pass = false;
    bool timeout = false;
};
using Script = std::function<Reading(double setting)>;

/// Noiseless synthetic device: pass strictly on the pass side of `trip`.
Script truth(const ate::Parameter& parameter, double trip) {
    const double toward_fail = parameter.toward_fail();
    return [toward_fail, trip](double setting) {
        return Reading{(setting - trip) * toward_fail <= 0.0};
    };
}

/// Truth at `trip`, except that the first reading strictly inside
/// (lo, hi) reads `outcome`: a one-shot transient.
Script one_shot(const ate::Parameter& parameter, double trip, double lo,
                double hi, bool outcome) {
    return [base = truth(parameter, trip), lo, hi, outcome,
            fired = false](double setting) mutable {
        if (!fired && setting > lo && setting < hi) {
            fired = true;
            return Reading{outcome};
        }
        return base(setting);
    };
}

/// A stuck contact: every reading fails.
Reading stuck_fail(double) { return Reading{false}; }

/// A trip session whose measurement tasks are stepped against a script
/// instead of the tester, like TripSession::measure steps them against
/// the live one.
struct ScriptedSession {
    explicit ScriptedSession(MeasurementPolicyOptions policy)
        : session(tester, parameter, MultiTripOptions{.policy = policy}) {
        test.name = "scripted";
    }

    TripPointRecord measure(const Script& script) {
        TripMeasureTask task = session.begin(test);
        while (!task.done()) {
            const double setting = task.pending_setting();
            settings.push_back(setting);
            const Reading reading = script(setting);
            if (reading.timeout) {
                task.complete_timeout();
            } else {
                task.complete(reading.pass);
            }
        }
        return task.record();
    }

    [[nodiscard]] const FaultCounters& counters() const {
        return session.policy().counters();
    }

    const ate::Parameter parameter = ate::Parameter::data_valid_time();
    device::MemoryTestChip chip{{}, {}};
    ate::Tester tester{chip};
    testgen::Test test;
    TripSession session;
    /// Every setting read, in order (timeouts included).
    std::vector<double> settings;
};

TEST(MeasurementPolicyTest, DisabledPolicyRunsAttemptOnceUntouched) {
    ScriptedSession rig(MeasurementPolicyOptions{});  // default: disabled
    EXPECT_FALSE(rig.session.policy().enabled());
    // A false pass deep on the fail side: an enabled policy would reject
    // the search's trace and re-search.
    const auto steered = [&] {
        return one_shot(rig.parameter, 20.0, 29.0, 44.0, /*outcome=*/true);
    };
    const TripPointRecord out = rig.measure(steered());

    // Exactly one search, read exactly like the plain search reads it.
    const Script reference = steered();
    const ate::SearchResult plain = ate::SuccessiveApproximation().find(
        [&](double setting) { return reference(setting).pass; },
        rig.parameter);
    EXPECT_EQ(out.measurements, plain.measurements);
    EXPECT_EQ(rig.settings.size(), plain.measurements);
    EXPECT_EQ(out.trip_point, plain.trip_point);
    EXPECT_FALSE(rig.counters().any());
    EXPECT_EQ(rig.counters().describe(), "clean");
}

TEST(MeasurementPolicyTest, GuardAbsorbsTransientTimeouts) {
    ScriptedSession rig(enabled_options());
    const double trip = 30.0;
    std::size_t calls = 0;
    const TripPointRecord out = rig.measure([&](double setting) {
        if (++calls < 3) return Reading{false, /*timeout=*/true};
        return truth(rig.parameter, trip)(setting);
    });
    // The timed-out reading is retried at the same setting.
    ASSERT_GE(rig.settings.size(), 3u);
    EXPECT_EQ(rig.settings[1], rig.settings[0]);
    EXPECT_EQ(rig.settings[2], rig.settings[0]);
    ASSERT_TRUE(out.found);
    EXPECT_NEAR(out.trip_point, trip, rig.parameter.resolution);
    EXPECT_EQ(rig.counters().timeouts_absorbed, 2u);
    EXPECT_EQ(rig.counters().retried_measurements, 2u);
    EXPECT_EQ(rig.counters().abandoned_measurements, 0u);
    EXPECT_EQ(rig.counters().researches, 0u);
    EXPECT_GT(rig.counters().backoff_seconds, 0.0);
}

TEST(MeasurementPolicyTest, GuardBackoffGrowsExponentially) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.backoff_jitter = 0.0;  // deterministic schedule for the assert
    opts.timeout_retries = 3;
    ScriptedSession rig(opts);
    std::size_t calls = 0;
    const TripPointRecord out = rig.measure([&](double setting) {
        if (++calls < 4) return Reading{false, /*timeout=*/true};
        return truth(rig.parameter, 30.0)(setting);
    });
    EXPECT_TRUE(out.found);
    // 0.25 * (2^0 + 2^1 + 2^2) = 1.75 accounted seconds.
    EXPECT_NEAR(rig.counters().backoff_seconds, 1.75, 1e-12);
}

TEST(MeasurementPolicyTest, GuardRethrowsWhenRetryBudgetExhausted) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.timeout_retries = 2;
    ScriptedSession rig(opts);
    // The first reading times out for good: the attempt it belongs to is
    // abandoned and a fresh search runs.
    std::size_t calls = 0;
    const TripPointRecord out = rig.measure([&](double setting) {
        if (++calls <= 3) return Reading{false, /*timeout=*/true};
        return truth(rig.parameter, 30.0)(setting);
    });
    ASSERT_TRUE(out.found);
    EXPECT_EQ(rig.counters().abandoned_measurements, 1u);
    EXPECT_EQ(rig.counters().retried_measurements, 2u);
    EXPECT_EQ(rig.counters().researches, 1u);
    EXPECT_EQ(rig.counters().recovered_trips, 1u);

    // With the policy disabled nothing absorbs the timeout.
    ScriptedSession raw(MeasurementPolicyOptions{});
    EXPECT_THROW((void)raw.measure([](double) {
                     return Reading{false, /*timeout=*/true};
                 }),
                 ate::MeasurementTimeout);
}

TEST(MeasurementPolicyTest, GuardNeverSwallowsSiteDeath) {
    device::MemoryTestChip chip({}, {});
    ate::Tester tester(chip);
    ate::FaultProfile profile;
    profile.site_death_rate = 1.0;
    ate::FaultInjector injector(profile);
    tester.attach_fault_injector(&injector);
    MultiTripOptions opts;
    opts.policy = enabled_options();
    TripSession session(tester, ate::Parameter::data_valid_time(), opts);
    testgen::Test test;
    test.name = "dies";
    EXPECT_THROW((void)session.measure(test), ate::SiteDeadError);
    EXPECT_EQ(session.policy().counters().retried_measurements, 0u);
}

TEST(MeasurementPolicyTest, ScreenAcceptsCleanResultWithoutIntervention) {
    ScriptedSession rig(enabled_options());
    const double trip = 30.0;
    const TripPointRecord out = rig.measure(truth(rig.parameter, trip));
    ASSERT_TRUE(out.found);
    EXPECT_NEAR(out.trip_point, trip, rig.parameter.resolution);
    // A clean first attempt counts as neither recovery nor intervention.
    EXPECT_EQ(rig.counters().recovered_trips, 0u);
    EXPECT_FALSE(rig.counters().any());
}

TEST(MeasurementPolicyTest, ScreenRejectsTripOutsideCharacterizationRange) {
    // A search on the tester never leaves [S1, S2]; the range screen is
    // a pure check, exercised on hand-made results.
    const MeasurementPolicy policy(enabled_options());
    const ate::Parameter param = ate::Parameter::data_valid_time();
    ate::SearchResult result;
    result.found = true;
    result.trip_point = 30.0;
    EXPECT_TRUE(policy.plausible(result, param));
    result.trip_point = param.search_end + 10.0 * param.characterization_range();
    EXPECT_FALSE(policy.plausible(result, param));
    result.trip_point = param.search_start - param.characterization_range();
    EXPECT_FALSE(policy.plausible(result, param));
    result.trip_point = 30.0;
    result.found = false;
    EXPECT_FALSE(policy.plausible(result, param));
}

TEST(MeasurementPolicyTest, ScreenRejectsInternallyInconsistentTrace) {
    ScriptedSession rig(enabled_options());
    const double trip = 20.0;
    // One false pass deep on the fail side. The search's pass-bound
    // recheck recovers the right trip, but the "pass" stays in its trace:
    // the window is untrustworthy and the trip is re-searched.
    const TripPointRecord out = rig.measure(
        one_shot(rig.parameter, trip, 29.0, 44.0, /*outcome=*/true));
    ASSERT_TRUE(out.found);
    EXPECT_NEAR(out.trip_point, trip, rig.parameter.resolution);
    EXPECT_EQ(rig.counters().implausible_trips, 1u);
    EXPECT_EQ(rig.counters().confirm_rejections, 0u);
    EXPECT_EQ(rig.counters().researches, 1u);
    EXPECT_EQ(rig.counters().recovered_trips, 1u);
}

TEST(MeasurementPolicyTest, ScreenRejectsTripTheOracleDisowns) {
    ScriptedSession rig(enabled_options());
    const double true_trip = 33.0;
    // One false fail just below the true trip: the search converges on a
    // wrong trip with a consistent trace, and the fail-side confirmation
    // votes disown it.
    const TripPointRecord out = rig.measure(
        one_shot(rig.parameter, true_trip, 31.0, 32.5, /*outcome=*/false));
    ASSERT_TRUE(out.found);
    EXPECT_NEAR(out.trip_point, true_trip, rig.parameter.resolution);
    EXPECT_EQ(rig.counters().implausible_trips, 0u);
    EXPECT_EQ(rig.counters().confirm_rejections, 1u);
    EXPECT_EQ(rig.counters().recovered_trips, 1u);
}

TEST(MeasurementPolicyTest, ExhaustedAttemptsReportNotFound) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.search_attempts = 3;
    ScriptedSession rig(opts);
    // A stuck contact: each attempt's first reading says the whole range
    // fails.
    const TripPointRecord out = rig.measure(stuck_fail);
    EXPECT_FALSE(out.found);
    EXPECT_EQ(rig.settings.size(), 3u);
    EXPECT_EQ(rig.counters().unrecovered_trips, 1u);
    EXPECT_EQ(rig.counters().researches, 2u);
}

TEST(MeasurementPolicyTest, QuarantineAfterConsecutiveUnrecoverableTests) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.search_attempts = 1;
    opts.quarantine_after = 2;
    ScriptedSession rig(opts);

    EXPECT_FALSE(rig.measure(stuck_fail).found);
    EXPECT_THROW((void)rig.measure(stuck_fail), SiteQuarantinedError);
}

TEST(MeasurementPolicyTest, SuccessResetsQuarantineCount) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.search_attempts = 1;
    opts.quarantine_after = 2;
    ScriptedSession rig(opts);

    EXPECT_FALSE(rig.measure(stuck_fail).found);
    EXPECT_TRUE(rig.measure(truth(rig.parameter, 30.0)).found);
    // The failure streak restarted: one more failure does not quarantine.
    EXPECT_FALSE(rig.measure(stuck_fail).found);
    EXPECT_THROW((void)rig.measure(stuck_fail), SiteQuarantinedError);
}

TEST(MeasurementPolicyTest, SaveLoadRoundTripsDynamicState) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.timeout_retries = 5;
    ScriptedSession rig(opts);
    // Every other reading times out once: the jitter stream advances.
    const auto flaky = [&] {
        return [&, calls = std::size_t{0}](double setting) mutable {
            if (++calls % 2 == 0) return Reading{false, /*timeout=*/true};
            return truth(rig.parameter, 30.0)(setting);
        };
    };
    (void)rig.measure(flaky());

    std::string blob;
    rig.session.policy().save(blob);
    // The counters travel in FaultCounters' own codec.
    std::string counters_blob;
    rig.counters().save(counters_blob);
    EXPECT_EQ(blob.substr(blob.size() - counters_blob.size()), counters_blob);

    ScriptedSession restored(opts);
    restored.session.restore_reference(rig.session.reference_trip_point());
    util::ByteReader reader(blob);
    restored.session.policy().load(reader);
    EXPECT_TRUE(reader.at_end());
    EXPECT_EQ(restored.counters(), rig.counters());

    // The jitter stream continues identically from the snapshot point.
    (void)rig.measure(flaky());
    (void)restored.measure(flaky());
    EXPECT_EQ(restored.counters(), rig.counters());
    EXPECT_EQ(std::vector<double>(rig.settings.end() -
                                      static_cast<std::ptrdiff_t>(
                                          restored.settings.size()),
                                  rig.settings.end()),
              restored.settings);
}

TEST(MeasurementPolicyTest, FaultCountersMergeAndDescribe) {
    FaultCounters a;
    a.timeouts_absorbed = 2;
    a.backoff_seconds = 1.5;
    FaultCounters b;
    b.timeouts_absorbed = 1;
    b.researches = 3;
    b.backoff_seconds = 0.5;
    a.merge(b);
    EXPECT_EQ(a.timeouts_absorbed, 3u);
    EXPECT_EQ(a.researches, 3u);
    EXPECT_NEAR(a.backoff_seconds, 2.0, 1e-12);
    EXPECT_EQ(a.describe(), "timeouts=3 researches=3");
    EXPECT_EQ(FaultCounters{}.describe(), "clean");
}

// End-to-end recovery: a TripSession measured through a transiently faulty
// tester with the policy on lands on the same trip points (within a small
// tolerance) as a fault-free session.
TEST(MeasurementPolicyTest, FaultedSessionRecoversFaultFreeTripPoints) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;

    testgen::RandomTestGenerator gen;
    util::Rng test_rng(77);
    std::vector<testgen::Test> tests;
    for (std::size_t i = 0; i < 12; ++i) {
        tests.push_back(gen.random_test(test_rng, "t" + std::to_string(i)));
    }

    // Clean reference run.
    device::MemoryTestChip clean_chip({}, chip_opts);
    ate::Tester clean_tester(clean_chip);
    TripSession clean_session(clean_tester, param, MultiTripOptions{});
    std::vector<double> clean_trips;
    for (const testgen::Test& test : tests) {
        const TripPointRecord r = clean_session.measure(test);
        ASSERT_TRUE(r.found) << test.name;
        clean_trips.push_back(r.trip_point);
    }

    // Faulted run: 5% transients + occasional timeouts, policy on.
    device::MemoryTestChip chip({}, chip_opts);
    ate::Tester tester(chip);
    ate::FaultProfile profile;
    profile.transient_rate = 0.05;
    profile.transient_span_fraction = 0.3;  // gross errors, easy to screen
    profile.timeout_rate = 0.01;
    profile.seed = 99;
    ate::FaultInjector injector(profile);
    tester.attach_fault_injector(&injector);

    MultiTripOptions opts;
    opts.policy = enabled_options();
    TripSession session(tester, param, opts);
    std::size_t recovered = 0;
    for (std::size_t i = 0; i < tests.size(); ++i) {
        const TripPointRecord r = session.measure(tests[i]);
        ASSERT_TRUE(r.found) << tests[i].name;
        if (std::abs(r.trip_point - clean_trips[i]) <= 3.0 * param.resolution) {
            ++recovered;
        }
    }
    EXPECT_EQ(recovered, tests.size());
    EXPECT_GT(injector.stats().injected(), 0u);
}

}  // namespace
}  // namespace cichar::core
