#include "ate/search_until_trip.hpp"

#include <gtest/gtest.h>

namespace cichar::ate {
namespace {

Oracle oracle_with_trip(const Parameter& p, double trip) {
    return [p, trip](double setting) {
        return p.fail_high ? setting <= trip : setting >= trip;
    };
}

Parameter tdq_like() { return Parameter::data_valid_time(); }

SearchUntilTrip::Options default_options() {
    SearchUntilTrip::Options o;
    o.search_factor = 0.2;
    return o;
}

TEST(SearchUntilTripTest, FindsTripAboveReference) {
    const Parameter p = tdq_like();
    const SearchUntilTrip search(default_options(), /*rtp=*/30.0);
    const SearchResult r = search.find(oracle_with_trip(p, 31.5), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 31.5, p.resolution + 1e-9);
}

TEST(SearchUntilTripTest, FindsTripBelowReference) {
    const Parameter p = tdq_like();
    const SearchUntilTrip search(default_options(), 30.0);
    const SearchResult r = search.find(oracle_with_trip(p, 27.9), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 27.9, p.resolution + 1e-9);
}

TEST(SearchUntilTripTest, TripExactlyAtReference) {
    const Parameter p = tdq_like();
    const SearchUntilTrip search(default_options(), 30.0);
    const SearchResult r = search.find(oracle_with_trip(p, 30.0), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 30.0, p.resolution + 1e-9);
}

TEST(SearchUntilTripTest, CheaperThanFullRangeNearReference) {
    const Parameter p = tdq_like();
    const SearchUntilTrip follower(default_options(), 30.0);
    const SuccessiveApproximation full;
    const Oracle oracle = oracle_with_trip(p, 30.6);
    const SearchResult cheap = follower.find(oracle, p);
    const SearchResult expensive = full.find(oracle, p);
    ASSERT_TRUE(cheap.found);
    ASSERT_TRUE(expensive.found);
    EXPECT_LT(cheap.measurements, expensive.measurements);
}

TEST(SearchUntilTripTest, WithoutRefinementCoarser) {
    const Parameter p = tdq_like();
    SearchUntilTrip::Options opts = default_options();
    opts.refine = false;
    const SearchUntilTrip search(opts, 30.0);
    const SearchResult r = search.find(oracle_with_trip(p, 31.33), p);
    ASSERT_TRUE(r.found);
    // Within one (possibly grown) SF step below the true trip.
    EXPECT_LE(r.trip_point, 31.33 + 1e-9);
    EXPECT_GE(r.trip_point, 31.33 - 1.0);
}

TEST(SearchUntilTripTest, LinearGrowthVisitsEvenSteps) {
    const Parameter p = tdq_like();
    SearchUntilTrip::Options opts = default_options();
    opts.growth = SearchFactorGrowth::kLinear;
    opts.refine = false;
    const SearchUntilTrip search(opts, 30.0);
    const SearchResult r = search.find(oracle_with_trip(p, 30.5), p);
    ASSERT_TRUE(r.found);
    // Probes at 30.0, 30.2, 30.6(=30+0.2*1+0.2*2? no: offsets 0.2,0.4,...)
    ASSERT_GE(r.trace.size(), 3u);
    EXPECT_NEAR(r.trace[1].setting, 30.2, 1e-9);
    EXPECT_NEAR(r.trace[2].setting, 30.4, 1e-9);
}

TEST(SearchUntilTripTest, TriangularGrowthAccelerates) {
    const Parameter p = tdq_like();
    SearchUntilTrip::Options opts = default_options();
    opts.growth = SearchFactorGrowth::kTriangular;
    opts.refine = false;
    const SearchUntilTrip search(opts, 20.0);
    const SearchResult r = search.find(oracle_with_trip(p, 44.0), p);
    ASSERT_TRUE(r.found);
    // Triangular growth covers 24 ns in far fewer steps than 24/SF = 120.
    EXPECT_LT(r.measurements, 20u);
}

TEST(SearchUntilTripTest, TripOutOfRangeReportsNotFound) {
    const Parameter p = tdq_like();
    const SearchUntilTrip search(default_options(), 30.0);
    // Device passes everywhere: the trip left the range upward.
    const SearchResult r = search.find(oracle_with_trip(p, 100.0), p);
    EXPECT_FALSE(r.found);
    // Device fails everywhere: not even the reference passes.
    const SearchResult r2 = search.find(oracle_with_trip(p, 1.0), p);
    EXPECT_FALSE(r2.found);
}

TEST(SearchUntilTripTest, ReversedDirectionParameter) {
    const Parameter p = Parameter::min_vdd();
    SearchUntilTrip::Options opts = default_options();
    opts.search_factor = 0.01;
    const SearchUntilTrip search(opts, 1.30);
    const SearchResult r = search.find(oracle_with_trip(p, 1.34), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, 1.34, p.resolution + 1e-9);
}

TEST(SearchUntilTripTest, SetReferenceMoves) {
    SearchUntilTrip search(default_options(), 30.0);
    EXPECT_DOUBLE_EQ(search.reference_trip_point(), 30.0);
    search.set_reference(28.0);
    EXPECT_DOUBLE_EQ(search.reference_trip_point(), 28.0);
}

// Property: follower converges for trips scattered around the reference.
class FollowerConvergenceTest : public ::testing::TestWithParam<double> {};

TEST_P(FollowerConvergenceTest, ConvergesAndIsCheap) {
    const Parameter p = tdq_like();
    const double trip = GetParam();
    const SearchUntilTrip search(default_options(), 30.0);
    const SearchResult r = search.find(oracle_with_trip(p, trip), p);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.trip_point, trip, p.resolution + 1e-9);
    EXPECT_LE(r.measurements, 25u);
}

INSTANTIATE_TEST_SUITE_P(TripsAroundRtp, FollowerConvergenceTest,
                         ::testing::Values(25.0, 28.0, 29.5, 29.9, 30.0, 30.1,
                                           30.9, 33.0, 38.0, 43.0, 16.0));

}  // namespace
}  // namespace cichar::ate
