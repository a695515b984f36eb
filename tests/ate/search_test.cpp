#include "ate/search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <sstream>
#include <string>

namespace cichar::ate {
namespace {

/// Synthetic oracle with a hidden trip point honoring the parameter's
/// fail direction.
Oracle oracle_with_trip(const Parameter& p, double trip) {
    return [p, trip](double setting) {
        return p.fail_high ? setting <= trip : setting >= trip;
    };
}

Parameter tdq_like() {
    Parameter p = Parameter::data_valid_time();  // 15..45, res 0.1
    return p;
}

Parameter vmin_like() { return Parameter::min_vdd(); }

TEST(LinearSearchTest, FindsTrip) {
    const Parameter p = tdq_like();
    const LinearSearch search;
    const SearchResult r = search.find(oracle_with_trip(p, 27.34), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 27.3, 0.1 + 1e-9);
}

TEST(LinearSearchTest, CostIsLinearInDistance) {
    const Parameter p = tdq_like();
    const LinearSearch search;
    const SearchResult near_start = search.find(oracle_with_trip(p, 16.0), p);
    const SearchResult far = search.find(oracle_with_trip(p, 40.0), p);
    EXPECT_GT(far.measurements, near_start.measurements * 5);
}

TEST(LinearSearchTest, NoPassRegion) {
    const Parameter p = tdq_like();
    const LinearSearch search;
    const SearchResult r = search.find(oracle_with_trip(p, 10.0), p);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.measurements, 1u);
}

TEST(LinearSearchTest, NoFailRegion) {
    const Parameter p = tdq_like();
    const LinearSearch search;
    const SearchResult r = search.find(oracle_with_trip(p, 50.0), p);
    EXPECT_FALSE(r.found);
    // It still reports the last passing setting.
    EXPECT_NEAR(r.trip_point, 45.0, 0.2);
}

TEST(LinearSearchTest, CustomStep) {
    const Parameter p = tdq_like();
    const LinearSearch coarse(1.0);
    const SearchResult r = coarse.find(oracle_with_trip(p, 30.0), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 30.0, 1.0 + 1e-9);
    EXPECT_LT(r.measurements, 35u);
}

TEST(BinarySearchTest, FindsTripLogarithmically) {
    const Parameter p = tdq_like();
    const BinarySearch search;
    const SearchResult r = search.find(oracle_with_trip(p, 33.3), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 33.3, 0.1 + 1e-9);
    // 300 resolution steps in range: ~ 2 + log2(300) ~ 11 measurements.
    EXPECT_LE(r.measurements, 15u);
}

TEST(BinarySearchTest, EndpointChecks) {
    const Parameter p = tdq_like();
    const BinarySearch search;
    EXPECT_FALSE(search.find(oracle_with_trip(p, 10.0), p).found);
    EXPECT_FALSE(search.find(oracle_with_trip(p, 50.0), p).found);
}

TEST(BinarySearchTest, TraceRecordsEveryProbe) {
    const Parameter p = tdq_like();
    const BinarySearch search;
    const SearchResult r = search.find(oracle_with_trip(p, 25.0), p);
    EXPECT_EQ(r.trace.size(), r.measurements);
    EXPECT_DOUBLE_EQ(r.trace[0].setting, p.pass_side());
    EXPECT_DOUBLE_EQ(r.trace[1].setting, p.fail_side());
}

TEST(BinarySearchTest, ReversedDirectionParameter) {
    const Parameter p = vmin_like();
    const BinarySearch search;
    const SearchResult r = search.find(oracle_with_trip(p, 1.37), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 1.37, 0.005 + 1e-9);
}

TEST(SuccessiveApproximationTest, FindsStableTrip) {
    const Parameter p = tdq_like();
    const SuccessiveApproximation search;
    const SearchResult r = search.find(oracle_with_trip(p, 28.8), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 28.8, 0.1 + 1e-9);
}

TEST(SuccessiveApproximationTest, TracksDriftingTrip) {
    const Parameter p = tdq_like();
    // Trip point drifts downward (device heating) by 0.05 ns per probe.
    double trip = 30.0;
    const Oracle drifting = [&trip, &p](double setting) {
        const bool pass = p.fail_high ? setting <= trip : setting >= trip;
        trip -= 0.05;
        return pass;
    };
    const SuccessiveApproximation search;
    const SearchResult r = search.find(drifting, p);
    ASSERT_TRUE(r.found);
    // A plain binary search would keep a stale pass bound near 30; the
    // drift-aware search must end close to the final (drifted) value.
    EXPECT_LT(r.trip_point, 29.5);
    EXPECT_NEAR(r.trip_point, trip, 1.0);
}

TEST(SuccessiveApproximationTest, MeasurementBudgetHonored) {
    const Parameter p = tdq_like();
    SuccessiveApproximation::Options opts;
    opts.max_measurements = 10;
    const SuccessiveApproximation search(opts);
    // Pathological oracle that flips pass/fail each call around 30.
    int call = 0;
    const Oracle unstable = [&call](double setting) {
        ++call;
        return setting <= (call % 2 == 0 ? 29.0 : 31.0);
    };
    const SearchResult r = search.find(unstable, p);
    EXPECT_LE(r.measurements, 13u);  // budget + small epilogue
}

TEST(SuccessiveApproximationTest, ReversedDirectionDrift) {
    const Parameter p = vmin_like();
    double trip = 1.30;
    const Oracle drifting = [&trip, &p](double setting) {
        const bool pass = p.fail_high ? setting <= trip : setting >= trip;
        trip += 0.002;  // vmin rises while heating
        return pass;
    };
    const SuccessiveApproximation search;
    const SearchResult r = search.find(drifting, p);
    ASSERT_TRUE(r.found);
    EXPECT_GT(r.trip_point, 1.30);
}

TEST(SearchNamesTest, Names) {
    EXPECT_STREQ(LinearSearch{}.name(), "linear");
    EXPECT_STREQ(BinarySearch{}.name(), "binary");
    EXPECT_STREQ(SuccessiveApproximation{}.name(),
                 "successive-approximation");
}

// Property suite: every algorithm converges to within one resolution step
// of any stable trip point, in both fail directions.
struct SearchCase {
    double trip;
    bool reversed;
};

// Names a row by its parameter and trip point ("Tdq22p15", "Vmin1p05"),
// in the test name and in listings. gtest's default would dump the
// struct's bytes, padding included, so the names would differ per build.
std::string search_case_name(const SearchCase& c) {
    std::ostringstream trip;
    trip << c.trip;
    std::string name = trip.str();
    const std::size_t dot = name.find('.');
    if (dot == std::string::npos) {
        name += "p0";
    } else {
        name[dot] = 'p';
    }
    return (c.reversed ? "Vmin" : "Tdq") + name;
}

void PrintTo(const SearchCase& c, std::ostream* os) {
    *os << search_case_name(c);
}

class SearchConvergenceTest : public ::testing::TestWithParam<SearchCase> {};

TEST_P(SearchConvergenceTest, AllAlgorithmsConverge) {
    const SearchCase c = GetParam();
    const Parameter p = c.reversed ? vmin_like() : tdq_like();
    const Oracle oracle = oracle_with_trip(p, c.trip);

    const LinearSearch linear;
    const BinarySearch binary;
    const SuccessiveApproximation sa;
    for (const TripPointSearch* search :
         {static_cast<const TripPointSearch*>(&linear),
          static_cast<const TripPointSearch*>(&binary),
          static_cast<const TripPointSearch*>(&sa)}) {
        const SearchResult r = search->find(oracle, p);
        ASSERT_TRUE(r.found) << search->name();
        EXPECT_NEAR(r.trip_point, c.trip, p.resolution + 1e-9)
            << search->name();
        // Trip point estimates must sit on the pass side.
        EXPECT_TRUE(oracle(r.trip_point)) << search->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    TripPositions, SearchConvergenceTest,
    ::testing::Values(SearchCase{16.0, false}, SearchCase{22.15, false},
                      SearchCase{30.0, false}, SearchCase{44.0, false},
                      SearchCase{27.777, false}, SearchCase{1.05, true},
                      SearchCase{1.4142, true}, SearchCase{2.1, true}),
    [](const ::testing::TestParamInfo<SearchCase>& row) {
        return search_case_name(row.param);
    });

}  // namespace
}  // namespace cichar::ate
