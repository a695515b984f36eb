// Intelligent device characterization LEARNING scheme (paper Fig. 4):
//
//   random test generator -> ATE multiple-trip-point characterization
//   -> trip point coding (fuzzy or numeric) -> single/multiple neural
//   networks (supervised learning + voting) -> learnability and
//   generalization check -> NN weight file.
//
// If the committee does not learn/generalize, the loop goes back to step
// (1): more random tests are measured and training repeats.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ate/tester.hpp"
#include "core/evaluation_pipeline.hpp"
#include "core/multi_trip.hpp"
#include "fuzzy/coding.hpp"
#include "nn/committee.hpp"
#include "testgen/features.hpp"
#include "testgen/random_gen.hpp"

namespace cichar::util {
class ByteReader;
}  // namespace cichar::util

namespace cichar::core {

/// How follow-up learning rounds choose which tests to measure next.
enum class Acquisition : std::uint8_t {
    kRandom,          ///< fresh random tests (the paper's baseline loop)
    kPredictedWorst,  ///< candidates the committee predicts worst
    kUncertainty,     ///< candidates the committee disagrees on most
};

[[nodiscard]] const char* to_string(Acquisition acquisition) noexcept;

struct LearnerOptions {
    /// Random tests measured on the ATE in the first round.
    std::size_t training_tests = 150;
    /// Extra tests measured per go-back-to-(1) round.
    std::size_t additional_tests_per_round = 75;
    /// Maximum learning rounds before giving up (result still usable).
    std::size_t max_rounds = 3;
    /// Keep iterating at least this many rounds even when the
    /// learnability/generalization check already passes (active-learning
    /// refinement rounds).
    std::size_t min_rounds = 1;
    /// Strategy for choosing follow-up measurements.
    Acquisition acquisition = Acquisition::kRandom;
    /// Software-scored candidate pool per active-learning round.
    std::size_t acquisition_pool = 500;
    double train_fraction = 0.8;
    fuzzy::CodingScheme coding = fuzzy::CodingScheme::kFuzzy;
    nn::CommitteeOptions committee{};
    MultiTripOptions trip{};
    /// Majority fraction of members that must pass the learnability and
    /// generalization check for the round to converge.
    double required_member_majority = 0.5;
};

/// Reusable buffers for allocation-free
/// LearnedModel::predicted_trip_points(); one per thread.
struct PredictScratch {
    nn::BatchVoteScratch batch;
    std::vector<double> features;  ///< one row per test
    std::vector<double> means;     ///< committee mean outputs, per test
};

/// The trained artifact: committee + coder + the generator/parameter
/// context needed to turn a Test into a prediction. This is the in-memory
/// form of the paper's "NN weight file" (see nn::save_committee for the
/// on-disk form).
class LearnedModel {
public:
    LearnedModel(nn::VotingCommittee committee, fuzzy::TripPointCoder coder,
                 testgen::RandomGeneratorOptions generator_options,
                 ate::Parameter parameter);

    [[nodiscard]] const nn::VotingCommittee& committee() const noexcept {
        return committee_;
    }
    [[nodiscard]] const fuzzy::TripPointCoder& coder() const noexcept {
        return coder_;
    }
    [[nodiscard]] const testgen::RandomGeneratorOptions& generator_options()
        const noexcept {
        return generator_options_;
    }
    [[nodiscard]] const ate::Parameter& parameter() const noexcept {
        return parameter_;
    }

    /// NN input features of a test (pattern + normalized conditions).
    [[nodiscard]] std::vector<double> features_of(
        const testgen::Test& test) const;

    /// Software-only WCR prediction (no ATE measurement).
    [[nodiscard]] double predict_wcr(const testgen::Test& test) const;

    /// Committee vote with agreement statistics.
    [[nodiscard]] nn::VoteResult vote(const testgen::Test& test) const;

    /// The trip point the committee predicts for each of `tests`, into
    /// `trips` (resized, same order), clamped to CR: the mean prediction
    /// decoded to a WCR, then spec / WCR for a min-limit spec or
    /// spec x WCR for a max-limit one; nullopt where that WCR is not a
    /// positive finite number. The features come from the statistics
    /// each test already carries (no pattern is re-expanded), and one
    /// batched committee pass scores them all, bit-identical to
    /// predict_wcr() per test; nothing is allocated once `scratch` is
    /// warm.
    void predicted_trip_points(std::span<const testgen::Test> tests,
                               PredictScratch& scratch,
                               std::vector<std::optional<double>>& trips) const;

private:
    nn::VotingCommittee committee_;
    fuzzy::TripPointCoder coder_;
    testgen::RandomGeneratorOptions generator_options_;
    ate::Parameter parameter_;
};

/// How far a hunt's last measured trips fell from the committee's
/// predictions, kept to correct the next predictions locally: the GA
/// drives its populations into weakness pockets the learning tests never
/// sampled, where the committee is biased, and a neighbour measured there
/// carries that bias. Each entry is a measured evaluation's normalized
/// features and its residual, the measured trip point minus the raw
/// predicted one; a new anchor is the prediction plus the residual of the
/// nearest entry. Fixed-size: it owns no heap storage.
class ResidualMemory {
public:
    /// Entries kept, the most recent ones. A replay of 93,467 logged
    /// `campaign_cpu` evaluations cut search probes by 33 % at 128
    /// entries, 36 % at 256 and 39 % at 2000; three neighbours did no
    /// better than one, and a global mean or median bias at best 6 %.
    static constexpr std::size_t kCapacity = 256;
    static constexpr std::size_t kWidth = testgen::kFeatureCount;
    /// Bytes of one saved entry: kWidth f32 features and an f64 residual.
    static constexpr std::size_t kEntryBytes = kWidth * 4 + 8;

    [[nodiscard]] std::size_t size() const noexcept { return count_; }

    /// Remembers one measured test: its feature row (kWidth values, as
    /// LearnedModel::predicted_trip_points leaves them in
    /// PredictScratch::features) and its residual. When full, the new
    /// entry overwrites the oldest.
    void remember(std::span<const double> features, double residual) noexcept;

    /// Remembers `slot` when it was measured (not answered by the cache),
    /// its record was found, and it had a prediction.
    void observe(const Evaluation& slot, std::optional<double> prediction,
                 std::span<const double> features) noexcept;

    /// The residual of the entry nearest `features` by squared Euclidean
    /// distance over float features, ties going to the most recently
    /// remembered entry; nullopt when empty.
    [[nodiscard]] std::optional<double> nearest_residual(
        std::span<const double> features) const noexcept;

    /// The search anchor of a test predicted at `prediction`: the
    /// prediction plus the nearest residual, clamped to `parameter`'s CR.
    /// An empty memory or a nullopt prediction returns `prediction`.
    [[nodiscard]] std::optional<double> anchor(
        std::span<const double> features, std::optional<double> prediction,
        const ate::Parameter& parameter) const noexcept;

    /// Appends `u64 count | entry*`, oldest first (docs/FORMATS.md, "Hunt
    /// checkpoint payload"). Features travel as f32 bit patterns and
    /// residuals as f64 ones, so a round trip is bit-exact.
    void save(std::string& out) const;

    /// Replaces the contents with one save() image read from `in`.
    /// Returns false, leaving the memory untouched, on truncated bytes or
    /// a count above kCapacity; nothing is allocated either way.
    bool load(util::ByteReader& in);

private:
    /// Feature-major: feature f of slot j is features_[f * kCapacity + j],
    /// so a query runs one lane per entry.
    std::array<float, kWidth * kCapacity> features_{};
    std::array<double, kCapacity> residuals_{};
    std::size_t count_ = 0;
    std::size_t next_ = 0;  ///< slot the next entry goes to
};

/// Outcome of the learning flow.
struct LearnResult {
    LearnedModel model;
    DesignSpecVariation dsv;            ///< all measured trip points
    std::vector<nn::TrainReport> member_reports;  ///< last round
    std::size_t rounds = 0;
    bool converged = false;             ///< learnability + generalization met
    double mean_validation_error = 0.0; ///< committee consistency check
    std::size_t tests_measured = 0;
    /// Resilience-policy activity during learning (all-zero when the
    /// policy is disabled or nothing went wrong).
    FaultCounters faults{};
};

class CharacterizationLearner {
public:
    CharacterizationLearner() = default;
    explicit CharacterizationLearner(LearnerOptions options)
        : options_(std::move(options)) {}

    [[nodiscard]] const LearnerOptions& options() const noexcept {
        return options_;
    }

    /// Runs the Fig. 4 loop against live ATE measurements. `engine`
    /// picks how its batches measure (DeviceCharacterizer passes the
    /// hunt's `OptimizerOptions::parallel`); the default measures in situ
    /// on `tester`, one test at a time.
    [[nodiscard]] LearnResult run(ate::Tester& tester,
                                  const ate::Parameter& parameter,
                                  const testgen::RandomTestGenerator& generator,
                                  util::Rng& rng,
                                  const HuntParallelOptions& engine = {}) const;

private:
    LearnerOptions options_;
};

}  // namespace cichar::core
