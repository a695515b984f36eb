#include "core/multi_trip.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "ate/search_until_trip.hpp"
#include "ate/tester.hpp"
#include "device/memory_chip.hpp"
#include "testgen/random_gen.hpp"

namespace cichar::core {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

std::vector<testgen::Test> random_tests(std::size_t n, std::uint64_t seed) {
    testgen::RandomTestGenerator gen;
    util::Rng rng(seed);
    std::vector<testgen::Test> tests;
    for (std::size_t i = 0; i < n; ++i) {
        tests.push_back(gen.random_test(rng, "t" + std::to_string(i)));
    }
    return tests;
}

/// A DUT whose trip point is `trip` for every test, at any heat.
class FixedTripChip final : public device::DeviceUnderTest {
public:
    FixedTripChip(const ate::Parameter& parameter, double trip)
        : fail_high_(parameter.fail_high), trip_(trip) {}

    [[nodiscard]] bool passes(const testgen::Test&, device::ParameterKind,
                              double setting) override {
        return fail_high_ ? setting <= trip_ : setting >= trip_;
    }
    [[nodiscard]] device::FunctionalResult run_functional(
        const testgen::Test&) override {
        return {};
    }
    void settle() override {}

private:
    bool fail_high_;
    double trip_;
};

TEST(TripSessionTest, EstablishesRtpFromFirstTest) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    FixedTripChip chip(param, 32.0);
    ate::Tester tester(chip);
    TripSession session(tester, param, MultiTripOptions{});
    const TripPointRecord first = session.measure(random_tests(1, 1)[0]);
    ASSERT_TRUE(first.found);
    EXPECT_NEAR(session.reference_trip_point(), 32.0,
                param.resolution + 1e-9);
}

TEST(TripSessionTest, FallsBackToMidRange) {
    // Whole range fails: no RTP from the first test, so the followers
    // anchor at mid-range.
    const ate::Parameter param = ate::Parameter::data_valid_time();
    FixedTripChip chip(param, 1.0);
    ate::Tester tester(chip);
    TripSession session(tester, param, MultiTripOptions{});
    const TripPointRecord first = session.measure(random_tests(1, 1)[0]);
    EXPECT_FALSE(first.found);
    EXPECT_NEAR(session.reference_trip_point(), 30.0, 0.1);
}

TEST(TripSessionTest, FirstMeasurementEstablishesRtp) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    TripSession session(tester, ate::Parameter::data_valid_time(),
                        MultiTripOptions{});
    EXPECT_FALSE(session.has_reference());
    EXPECT_THROW((void)session.reference_trip_point(), std::logic_error);

    const auto tests = random_tests(1, 1);
    const TripPointRecord first = session.measure(tests[0]);
    ASSERT_TRUE(first.found);
    EXPECT_TRUE(session.has_reference());
    EXPECT_NEAR(session.reference_trip_point(), first.trip_point, 0.11);
}

TEST(TripSessionTest, TripPointsMatchDeviceTruth) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    TripSession session(tester, param, MultiTripOptions{});
    for (const testgen::Test& test : random_tests(10, 2)) {
        const TripPointRecord record = session.measure(test);
        ASSERT_TRUE(record.found) << test.name;
        const double truth = chip.true_parameter(
            test, device::ParameterKind::kDataValidTime);
        EXPECT_NEAR(record.trip_point, truth, 2.0 * param.resolution)
            << test.name;
    }
}

TEST(TripSessionTest, FollowerCheaperThanFirst) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    TripSession session(tester, ate::Parameter::data_valid_time(),
                        MultiTripOptions{});
    const auto tests = random_tests(6, 3);
    const TripPointRecord first = session.measure(tests[0]);
    for (std::size_t i = 1; i < tests.size(); ++i) {
        const TripPointRecord follow = session.measure(tests[i]);
        EXPECT_LT(follow.measurements, first.measurements) << i;
    }
}

TEST(TripSessionTest, WcrFilledFromParameterSpec) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    TripSession session(tester, param, MultiTripOptions{});
    const auto tests = random_tests(1, 4);
    const TripPointRecord r = session.measure(tests[0]);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.wcr, 20.0 / r.trip_point, 1e-9);
    EXPECT_EQ(r.wcr_class, ga::classify(r.wcr));
}

TEST(MultiTripTest, CharacterizeProducesFullDsv) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    const MultiTripCharacterizer characterizer;
    const auto tests = random_tests(8, 5);
    const DesignSpecVariation dsv = characterizer.characterize(
        tester, ate::Parameter::data_valid_time(), tests);
    EXPECT_EQ(dsv.size(), 8u);
    EXPECT_EQ(dsv.found_count(), 8u);
    EXPECT_GT(dsv.trip_spread(), 0.5);  // trip points ARE test dependent
}

TEST(MultiTripTest, LedgerPhaseIsMultiTrip) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    const MultiTripCharacterizer characterizer;
    const auto tests = random_tests(3, 6);
    (void)characterizer.characterize(tester,
                                     ate::Parameter::data_valid_time(), tests);
    EXPECT_GT(tester.log().phase_counters("multi-trip").applications, 0u);
}

TEST(MultiTripTest, MinVddDirectionWorksToo) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    const MultiTripCharacterizer characterizer;
    const auto tests = random_tests(5, 7);
    const DesignSpecVariation dsv = characterizer.characterize(
        tester, ate::Parameter::min_vdd(), tests);
    EXPECT_EQ(dsv.found_count(), 5u);
    for (const TripPointRecord& r : dsv.records()) {
        EXPECT_GT(r.trip_point, 1.0);
        EXPECT_LT(r.trip_point, 1.6);
    }
}

TEST(MultiTripTest, FullSearchOnMissRecovers) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    MultiTripOptions opts;
    opts.follow.max_iterations = 2;  // tiny window: far trips will miss
    opts.follow.search_factor = 0.05;
    opts.full_search_on_miss = true;
    const ate::Parameter param = ate::Parameter::data_valid_time();
    TripSession session(tester, param, opts);

    // First test: benign (high trip point). Second: heavily stressed
    // pattern with a much lower trip point, outside the tiny window.
    testgen::RandomTestGenerator gen;
    testgen::PatternRecipe calm;
    calm.cycles = 300;
    calm.write_fraction = 0.2;
    calm.seed = 1;
    testgen::PatternRecipe stressed;
    stressed.cycles = 300;
    stressed.write_fraction = 0.6;
    stressed.toggle_bias = 0.6;
    stressed.alternating_data_bias = 0.4;
    stressed.bank_conflict_bias = 0.9;
    stressed.seed = 2;
    const testgen::Test calm_test = gen.make_test(calm, {}, "calm");
    const testgen::Test hot_test = gen.make_test(stressed, {}, "hot");

    (void)session.measure(calm_test);
    const TripPointRecord hot = session.measure(hot_test);
    ASSERT_TRUE(hot.found);
    const double truth = chip.true_parameter(
        hot_test, device::ParameterKind::kDataValidTime);
    EXPECT_NEAR(hot.trip_point, truth, 0.3);
}

TEST(MultiTripTest, WithoutFallbackMissReported) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    MultiTripOptions opts;
    opts.follow.max_iterations = 1;
    opts.follow.search_factor = 0.01;
    opts.full_search_on_miss = false;
    TripSession session(tester, ate::Parameter::data_valid_time(), opts);

    testgen::RandomTestGenerator gen;
    testgen::PatternRecipe calm;
    calm.cycles = 300;
    calm.write_fraction = 0.2;
    calm.seed = 1;
    testgen::PatternRecipe stressed = calm;
    stressed.write_fraction = 0.6;
    stressed.toggle_bias = 0.6;
    stressed.alternating_data_bias = 0.4;
    stressed.bank_conflict_bias = 0.9;
    stressed.seed = 2;

    (void)session.measure(gen.make_test(calm, {}, "calm"));
    const TripPointRecord hot =
        session.measure(gen.make_test(stressed, {}, "hot"));
    EXPECT_FALSE(hot.found);
}

// ---- anchored windows ------------------------------------------------

/// Steps `task` against a device whose trip point is `trip` (the
/// FixedTripChip rule), returning every setting it asked for in order.
std::vector<double> step_to_done(TripMeasureTask& task,
                                 const ate::Parameter& param, double trip) {
    std::vector<double> probes;
    while (!task.done()) {
        const double setting = task.pending_setting();
        probes.push_back(setting);
        task.complete(param.fail_high ? setting <= trip : setting >= trip);
    }
    return probes;
}

/// A session whose RTP is already known (a later test of a campaign).
TripSession session_with_rtp(ate::Tester& tester, const ate::Parameter& param,
                             const MultiTripOptions& options, double rtp) {
    TripSession session(tester, param, options);
    session.restore_reference(rtp);
    return session;
}

TEST(TripAnchorTest, FirstWindowProbeIsTheClampedQuantizedAnchor) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    FixedTripChip chip(param, 27.3);
    ate::Tester tester(chip);
    const testgen::Test test = random_tests(1, 1)[0];
    TripSession session = session_with_rtp(tester, param, {}, 32.0);

    TripMeasureTask inside = session.begin(test, 27.34);
    EXPECT_DOUBLE_EQ(inside.pending_setting(),
                     param.clamp(param.quantize(27.34)));
    const std::vector<double> probes = step_to_done(inside, param, 27.3);
    ASSERT_TRUE(inside.record().found);
    EXPECT_NEAR(inside.record().trip_point, 27.3, param.resolution + 1e-9);
    EXPECT_EQ(inside.record().measurements, probes.size());

    // Anchors outside CR start at its edges.
    TripMeasureTask above = session.begin(test, param.search_end + 12.0);
    EXPECT_DOUBLE_EQ(above.pending_setting(), param.search_end);
    TripMeasureTask below = session.begin(test, param.search_start - 40.0);
    EXPECT_DOUBLE_EQ(below.pending_setting(), param.search_start);
}

TEST(TripAnchorTest, AnchorNearTheTripCostsFewerProbesThanTheRtp) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    FixedTripChip chip(param, 22.0);
    ate::Tester tester(chip);
    const testgen::Test test = random_tests(1, 1)[0];
    TripSession session = session_with_rtp(tester, param, {}, 32.0);

    TripMeasureTask from_rtp = session.begin(test);
    TripMeasureTask from_anchor = session.begin(test, 22.4);
    const std::size_t rtp_probes = step_to_done(from_rtp, param, 22.0).size();
    const std::size_t anchor_probes =
        step_to_done(from_anchor, param, 22.0).size();
    EXPECT_EQ(from_rtp.record().trip_point, from_anchor.record().trip_point);
    EXPECT_LT(anchor_probes, rtp_probes);
}

TEST(TripAnchorTest, MissFallsBackToFullRangeWithWindowProbesCounted) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    FixedTripChip chip(param, 40.0);
    ate::Tester tester(chip);
    const testgen::Test test = random_tests(1, 1)[0];
    MultiTripOptions opts;
    opts.follow.max_iterations = 2;  // tiny window: the far trip misses
    opts.follow.search_factor = 0.05;
    TripSession session = session_with_rtp(tester, param, opts, 32.0);

    // The full-range search alone, as a first test runs it.
    TripSession fresh(tester, param, opts);
    TripMeasureTask full = fresh.begin(test, 20.0);
    const std::vector<double> full_probes = step_to_done(full, param, 40.0);

    TripMeasureTask anchored = session.begin(test, 20.0);
    const std::vector<double> probes = step_to_done(anchored, param, 40.0);
    ASSERT_GT(probes.size(), full_probes.size());
    const std::size_t window = probes.size() - full_probes.size();
    EXPECT_DOUBLE_EQ(probes.front(), 20.0);
    EXPECT_TRUE(std::equal(full_probes.begin(), full_probes.end(),
                           probes.begin() +
                               static_cast<std::ptrdiff_t>(window)));
    ASSERT_TRUE(anchored.record().found);
    EXPECT_EQ(anchored.record().trip_point, full.record().trip_point);
    EXPECT_EQ(anchored.record().measurements, probes.size());
    // The miss keeps the session's RTP.
    EXPECT_DOUBLE_EQ(session.reference_trip_point(), 32.0);
}

TEST(TripAnchorTest, PolicyResearchRestartsAtTheAnchor) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    FixedTripChip chip(param, 26.0);
    ate::Tester tester(chip);
    const testgen::Test test = random_tests(1, 1)[0];
    MultiTripOptions opts;
    opts.policy.enabled = true;
    TripSession session = session_with_rtp(tester, param, opts, 32.0);

    TripMeasureTask task = session.begin(test, 25.0);
    EXPECT_DOUBLE_EQ(task.pending_setting(), 25.0);
    // Two window probes go through, then a reading times out past its
    // retry budget: the attempt is abandoned and re-searched.
    task.complete(true);
    task.complete(true);
    EXPECT_NE(task.pending_setting(), 25.0);
    for (std::size_t i = 0; i <= opts.policy.timeout_retries; ++i) {
        task.complete_timeout();
    }
    EXPECT_EQ(session.policy().counters().researches, 1u);
    EXPECT_DOUBLE_EQ(task.pending_setting(), 25.0);
    (void)step_to_done(task, param, 26.0);
    ASSERT_TRUE(task.record().found);
    EXPECT_NEAR(task.record().trip_point, 26.0, param.resolution + 1e-9);
}

TEST(TripAnchorTest, WithoutReferenceAnchoredTaskSearchesFullRange) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    FixedTripChip chip(param, 33.0);
    ate::Tester tester(chip);
    const testgen::Test test = random_tests(1, 1)[0];
    TripSession session(tester, param, MultiTripOptions{});

    TripMeasureTask task = session.begin(test, 21.0);
    EXPECT_DOUBLE_EQ(task.pending_setting(), param.pass_side());
    const std::vector<double> probes = step_to_done(task, param, 33.0);
    ASSERT_GE(probes.size(), 2u);
    EXPECT_DOUBLE_EQ(probes[1], param.fail_side());
    ASSERT_TRUE(task.record().found);
    ASSERT_TRUE(session.has_reference());
    EXPECT_EQ(session.reference_trip_point(),
              param.quantize(task.record().trip_point));
}

TEST(TripAnchorTest, WithoutAnchorTheWindowProbesFromTheRtp) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    FixedTripChip chip(param, 24.6);
    ate::Tester tester(chip);
    const testgen::Test test = random_tests(1, 1)[0];
    MultiTripOptions opts;
    TripSession session = session_with_rtp(tester, param, opts, 32.0);

    TripMeasureTask task = session.begin(test, std::nullopt);
    const std::vector<double> probes = step_to_done(task, param, 24.6);
    const ate::SearchResult blocking =
        ate::SearchUntilTrip(opts.follow, 32.0)
            .find([](double setting) { return setting <= 24.6; }, param);
    ASSERT_EQ(probes.size(), blocking.trace.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
        EXPECT_EQ(probes[i], blocking.trace[i].setting) << "probe " << i;
    }
    EXPECT_EQ(task.record().trip_point, blocking.trip_point);
}

}  // namespace
}  // namespace cichar::core
