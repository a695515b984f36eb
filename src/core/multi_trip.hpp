// Multiple trip point characterization (paper sections 3-4): the first
// test pays for one full-range successive-approximation search (eq. 2,
// reference trip point); every further test uses the cheap
// search-until-trip-point follower (eqs. 3/4). Produces the DSV set.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "ate/search.hpp"
#include "ate/search_task.hpp"
#include "ate/search_until_trip.hpp"
#include "core/dsv.hpp"
#include "core/measurement_policy.hpp"
#include "testgen/test.hpp"

namespace cichar::core {

struct MultiTripOptions {
    /// Follower (search-until-trip) configuration.
    ate::SearchUntilTrip::Options follow{};
    /// Initial full-range search configuration.
    ate::SuccessiveApproximation::Options initial{};
    /// Cool the device between tests (heat resets between DUT insertions).
    bool settle_between_tests = true;
    /// When a follower loses the trip point (drifted out of its window),
    /// fall back to a full-range search for that test.
    bool full_search_on_miss = true;
    /// Resilience policy (disabled by default: measurement streams are
    /// byte-identical to builds that predate the policy).
    MeasurementPolicyOptions policy{};
};

class TripSession;

/// One test's trip measurement as a resumable state machine in the
/// ate::TripSearchTask idiom, and the one place its flow is sequenced:
/// the first test's full-range search anchors the RTP (eq. 2), later
/// tests search the window around their anchor (eqs. 3/4) with a
/// full-range retry on a miss, and an enabled policy adds timeout
/// retries, the plausibility screen, majority-of-K confirmation votes
/// and re-search. The anchor is the test's own predicted trip point when
/// the caller has one (the hunt's committee), else the RTP.
/// TripSession::measure steps it against the tester, the async hunt
/// engine from queue completions. Borrows the session.
class TripMeasureTask {
public:
    [[nodiscard]] bool done() const noexcept { return stage_ == Stage::kDone; }
    /// The setting to read next; valid while !done().
    [[nodiscard]] double pending_setting() const noexcept;
    /// Feeds the pass/fail outcome of the pending reading.
    void complete(bool pass);
    /// The pending reading timed out: the policy retries or abandons it.
    /// Throws ate::MeasurementTimeout when the policy is disabled, and
    /// SiteQuarantinedError at the quarantine limit.
    void complete_timeout();
    /// Valid once done().
    [[nodiscard]] const TripPointRecord& record() const noexcept {
        return record_;
    }

private:
    friend class TripSession;
    TripMeasureTask(TripSession& session, const testgen::Test& test,
                    std::optional<double> anchor);

    enum class Stage : std::uint8_t { kSearch, kVotePass, kVoteFail, kDone };
    void search(bool window);
    void searched();
    void voted(std::optional<bool> pass);
    void retry();
    void finish(const ate::SearchResult& result);

    TripSession* session_;
    MeasurementPolicy* policy_;  ///< the session's
    Stage stage_ = Stage::kSearch;
    std::unique_ptr<ate::TripSearchTask> search_;
    std::optional<double> anchor_;  ///< window start; nullopt = the RTP
    bool window_ = false;  ///< search_ is the follower window
    std::size_t window_measurements_ = 0;
    std::size_t attempt_ = 0;  ///< failed search attempts so far
    std::size_t timeouts_ = 0;  ///< of the pending reading
    ate::SearchResult candidate_;
    double vote_setting_ = 0.0;
    struct Tally {
        std::size_t votes = 0, agree = 0, disagree = 0;
    } tally_;
    TripPointRecord record_;
};

/// Stateful measurement session: holds the RTP across tests so callers
/// (e.g. a GA fitness function) can measure one test at a time.
class TripSession {
public:
    TripSession(ate::Tester& tester, ate::Parameter parameter,
                MultiTripOptions options);

    /// Measures one test's trip point. The first call runs the full-range
    /// search and establishes the RTP; later calls start their window at
    /// `anchor` when given (every attempt, re-searches included), else at
    /// the RTP.
    [[nodiscard]] TripPointRecord measure(
        const testgen::Test& test, std::optional<double> anchor = {});

    /// Settles the device (when configured) and returns the measurement
    /// of `test` that measure() steps against tester().
    [[nodiscard]] TripMeasureTask begin(const testgen::Test& test,
                                        std::optional<double> anchor = {});

    [[nodiscard]] bool has_reference() const noexcept {
        return rtp_.has_value();
    }
    /// RTP (eq. 2); requires has_reference().
    [[nodiscard]] double reference_trip_point() const;

    [[nodiscard]] ate::Tester& tester() noexcept { return *tester_; }
    [[nodiscard]] const ate::Parameter& parameter() const noexcept {
        return parameter_;
    }

    /// The session's resilience policy (counters, checkpoint state).
    [[nodiscard]] MeasurementPolicy& policy() noexcept { return policy_; }
    [[nodiscard]] const MeasurementPolicy& policy() const noexcept {
        return policy_;
    }

    /// Re-establishes the RTP from a checkpoint without re-running the
    /// full-range reference search.
    void restore_reference(double rtp) { rtp_ = rtp; }

private:
    friend class TripMeasureTask;

    ate::Tester* tester_;
    ate::Parameter parameter_;
    MultiTripOptions options_;
    MeasurementPolicy policy_;
    std::optional<double> rtp_;
};

/// Batch convenience over TripSession.
class MultiTripCharacterizer {
public:
    MultiTripCharacterizer() = default;
    explicit MultiTripCharacterizer(MultiTripOptions options)
        : options_(options) {}

    [[nodiscard]] const MultiTripOptions& options() const noexcept {
        return options_;
    }

    /// Characterizes every test, producing the DSV (eq. 1).
    [[nodiscard]] DesignSpecVariation characterize(
        ate::Tester& tester, const ate::Parameter& parameter,
        std::span<const testgen::Test> tests) const;

private:
    MultiTripOptions options_;
};

}  // namespace cichar::core
