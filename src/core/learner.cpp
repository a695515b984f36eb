#include "core/learner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <limits>
#include <string>

#include "util/binio.hpp"
#include "util/log.hpp"

namespace cichar::core {

const char* to_string(Acquisition acquisition) noexcept {
    switch (acquisition) {
        case Acquisition::kRandom: return "random";
        case Acquisition::kPredictedWorst: return "predicted-worst";
        case Acquisition::kUncertainty: return "uncertainty";
    }
    return "?";
}

LearnedModel::LearnedModel(nn::VotingCommittee committee,
                           fuzzy::TripPointCoder coder,
                           testgen::RandomGeneratorOptions generator_options,
                           ate::Parameter parameter)
    : committee_(std::move(committee)),
      coder_(std::move(coder)),
      generator_options_(generator_options),
      parameter_(std::move(parameter)) {}

std::vector<double> LearnedModel::features_of(const testgen::Test& test) const {
    const testgen::FeatureVector fv =
        testgen::extract_features(test, generator_options_.condition_bounds);
    return std::vector<double>(fv.values.begin(), fv.values.end());
}

double LearnedModel::predict_wcr(const testgen::Test& test) const {
    const std::vector<double> out = committee_.predict(features_of(test));
    return coder_.decode(out);
}

nn::VoteResult LearnedModel::vote(const testgen::Test& test) const {
    return committee_.vote(features_of(test));
}

void LearnedModel::predicted_trip_points(
    std::span<const testgen::Test> tests, PredictScratch& scratch,
    std::vector<std::optional<double>>& trips) const {
    constexpr std::size_t kWidth = testgen::kFeatureCount;
    scratch.features.resize(tests.size() * kWidth);
    for (std::size_t i = 0; i < tests.size(); ++i) {
        const testgen::FeatureVector fv = testgen::extract_features(
            tests[i], generator_options_.condition_bounds);
        std::copy(fv.values.begin(), fv.values.end(),
                  scratch.features.begin() +
                      static_cast<std::ptrdiff_t>(i * kWidth));
    }
    committee_.predict_batch(scratch.features, tests.size(), scratch.batch,
                             scratch.means);
    const std::size_t outputs = coder_.output_count();
    trips.resize(tests.size());
    for (std::size_t i = 0; i < tests.size(); ++i) {
        const double wcr = coder_.decode(
            std::span<const double>(scratch.means).subspan(i * outputs,
                                                           outputs));
        if (!(wcr > 0.0) || !std::isfinite(wcr)) {
            trips[i].reset();
            continue;
        }
        // Inverts worst_case_ratio(), the WCR the committee learned.
        const double trip = parameter_.spec_type == ate::SpecType::kMinLimit
                                ? parameter_.spec / wcr
                                : parameter_.spec * wcr;
        trips[i] = parameter_.clamp(trip);
    }
}

void ResidualMemory::remember(std::span<const double> features,
                              double residual) noexcept {
    for (std::size_t f = 0; f < kWidth; ++f) {
        features_[f * kCapacity + next_] = static_cast<float>(features[f]);
    }
    residuals_[next_] = residual;
    next_ = (next_ + 1) % kCapacity;
    count_ = std::min(count_ + 1, kCapacity);
}

void ResidualMemory::observe(const Evaluation& slot,
                             std::optional<double> prediction,
                             std::span<const double> features) noexcept {
    if (slot.cached || !slot.record.found || !prediction) return;
    remember(features, slot.record.trip_point - *prediction);
}

std::optional<double> ResidualMemory::nearest_residual(
    std::span<const double> features) const noexcept {
    if (count_ == 0) return std::nullopt;
    std::array<float, kWidth> query{};
    for (std::size_t f = 0; f < kWidth; ++f) {
        query[f] = static_cast<float>(features[f]);
    }
    // One lane per entry, over every slot (unused ones are zeros and lose
    // nothing but time), a block of entries at a time so the sums stay in
    // registers: each entry sums its squared differences in feature
    // order, so SSE2, AVX2 and scalar code produce the same floats (the
    // library targets baseline x86-64, which has no FMA to contract
    // into).
    constexpr std::size_t kBlock = 16;
    std::array<float, kCapacity> distance{};
    for (std::size_t b = 0; b < kCapacity; b += kBlock) {
        std::array<float, kBlock> sum{};
        for (std::size_t f = 0; f < kWidth; ++f) {
            const float* column = features_.data() + f * kCapacity + b;
            for (std::size_t k = 0; k < kBlock; ++k) {
                const float d = query[f] - column[k];
                sum[k] += d * d;
            }
        }
        std::copy(sum.begin(), sum.end(), distance.begin() + b);
    }
    // The smallest distance, one lane per block slot first (unused slots
    // never win), then the most recent entry at it, scanning back from
    // the newest.
    constexpr float kFar = std::numeric_limits<float>::infinity();
    std::fill(distance.begin() + static_cast<std::ptrdiff_t>(count_),
              distance.end(), kFar);
    std::array<float, kBlock> lane_min{};
    lane_min.fill(kFar);
    for (std::size_t b = 0; b < kCapacity; b += kBlock) {
        for (std::size_t k = 0; k < kBlock; ++k) {
            lane_min[k] = std::min(lane_min[k], distance[b + k]);
        }
    }
    const float nearest = *std::min_element(lane_min.begin(), lane_min.end());
    std::size_t j = next_;
    for (std::size_t step = 0; step < count_; ++step) {
        j = (j == 0 ? kCapacity : j) - 1;
        if (distance[j] == nearest) break;
    }
    return residuals_[j];
}

std::optional<double> ResidualMemory::anchor(
    std::span<const double> features, std::optional<double> prediction,
    const ate::Parameter& parameter) const noexcept {
    if (!prediction) return prediction;
    const std::optional<double> residual = nearest_residual(features);
    if (!residual) return prediction;
    return parameter.clamp(*prediction + *residual);
}

void ResidualMemory::save(std::string& out) const {
    out.reserve(out.size() + 8 + count_ * kEntryBytes);
    util::put_u64(out, count_);
    const std::size_t oldest = count_ < kCapacity ? 0 : next_;
    for (std::size_t k = 0; k < count_; ++k) {
        const std::size_t j = (oldest + k) % kCapacity;
        for (std::size_t f = 0; f < kWidth; ++f) {
            util::put_u32(out, std::bit_cast<std::uint32_t>(
                                   features_[f * kCapacity + j]));
        }
        util::put_double(out, residuals_[j]);
    }
}

bool ResidualMemory::load(util::ByteReader& in) {
    // Parsed into a fresh memory first, so bad bytes change nothing.
    ResidualMemory loaded;
    try {
        const std::size_t count = in.get_count(kEntryBytes);
        if (count > kCapacity) return false;
        for (std::size_t j = 0; j < count; ++j) {
            for (std::size_t f = 0; f < kWidth; ++f) {
                loaded.features_[f * kCapacity + j] =
                    std::bit_cast<float>(in.get_u32());
            }
            loaded.residuals_[j] = in.get_double();
        }
        loaded.count_ = count;
        loaded.next_ = count % kCapacity;
    } catch (const std::exception&) {
        return false;
    }
    *this = loaded;
    return true;
}

LearnResult CharacterizationLearner::run(
    ate::Tester& tester, const ate::Parameter& parameter,
    const testgen::RandomTestGenerator& generator, util::Rng& rng,
    const HuntParallelOptions& engine) const {
    ate::PhaseScope phase(tester.log(), "learning");

    fuzzy::TripPointCoder coder =
        options_.coding == fuzzy::CodingScheme::kFuzzy
            ? fuzzy::TripPointCoder::fuzzy_wcr_fine()
            : fuzzy::TripPointCoder::numeric(0.0, 1.3);

    // Every batch measures through the hunt's evaluation pipeline: in
    // situ on the live tester by default, else on replicas whose trip
    // searches overlap exactly as the hunt's fitness evaluations do.
    PipelineOptions pipeline_options;
    pipeline_options.trip = options_.trip;
    pipeline_options.parallel = engine;
    pipeline_options.phase = "learning";
    pipeline_options.noise_salt = 0x1ea7;
    EvaluationPipeline pipeline(tester, parameter, std::move(pipeline_options),
                                rng);
    DesignSpecVariation dsv;
    nn::Dataset dataset(testgen::kFeatureCount, coder.output_count());

    nn::VotingCommittee committee;
    std::vector<nn::TrainReport> reports;
    bool converged = false;
    std::size_t rounds = 0;
    std::size_t tests_measured = 0;

    // Reduces one measured test, in submission order, into the DSV and
    // the training set.
    const auto reduce = [&](std::size_t, Evaluation& slot) {
        dsv.add(slot.record);
        ++tests_measured;
        if (!slot.record.found) return;
        const testgen::FeatureVector fv = testgen::extract_features(
            slot.test, generator.options().condition_bounds);
        dataset.add(std::vector<double>(fv.values.begin(), fv.values.end()),
                    coder.encode(slot.record.wcr));
    };

    // Measuring draws nothing from `rng`, so drawing a batch's tests ahead
    // of its measurements leaves the draw stream unchanged.
    const auto measure_random_batch = [&](std::size_t count) {
        const std::size_t first = tests_measured;
        pipeline.run(
            count,
            [&](std::size_t i, Evaluation& slot) {
                slot.test = generator.random_test(
                    rng, "learn-" + std::to_string(first + i));
                return true;
            },
            reduce);
    };

    // Active acquisition: score a software-only candidate pool with the
    // current committee and measure the most informative ones. All
    // candidates are drawn before any scoring (scoring is rng-free, so
    // the draw stream is unchanged), then scored through the batched
    // committee entry points in tiles. Scoring reads only features, so a
    // candidate's pattern is built only if it is kept for measurement.
    const auto measure_acquired_batch = [&](std::size_t count) {
        struct Candidate {
            testgen::PatternRecipe recipe;
            testgen::TestConditions conditions;
            std::string name;
            double score = 0.0;
        };
        std::vector<Candidate> pool;
        pool.reserve(options_.acquisition_pool);
        for (std::size_t i = 0; i < options_.acquisition_pool; ++i) {
            // Same draws as random_test: recipe, then conditions.
            Candidate c;
            c.recipe = generator.random_recipe(rng);
            c.conditions = generator.random_conditions(rng);
            c.name = "acq-" + std::to_string(tests_measured + i);
            pool.push_back(std::move(c));
        }

        constexpr std::size_t kScoreTile = 64;
        nn::BatchVoteScratch scratch;
        std::vector<double> features;
        std::vector<double> means;
        std::vector<nn::VoteResult> votes;
        const std::size_t width = coder.output_count();
        for (std::size_t first = 0; first < pool.size(); first += kScoreTile) {
            const std::size_t tile = std::min(kScoreTile, pool.size() - first);
            features.resize(tile * testgen::kFeatureCount);
            for (std::size_t i = 0; i < tile; ++i) {
                const Candidate& c = pool[first + i];
                const testgen::FeatureVector fv = testgen::extract_features(
                    generator.expand_stats(c.recipe), c.recipe.cycles,
                    c.conditions, generator.options().condition_bounds);
                std::copy(fv.values.begin(), fv.values.end(),
                          features.begin() + static_cast<std::ptrdiff_t>(
                                                 i * testgen::kFeatureCount));
            }
            if (options_.acquisition == Acquisition::kPredictedWorst) {
                committee.predict_batch(features, tile, scratch, means);
                for (std::size_t i = 0; i < tile; ++i) {
                    pool[first + i].score = coder.decode(std::span<const double>(
                        means.data() + i * width, width));
                }
            } else {
                committee.vote_batch(features, tile, scratch, votes);
                for (std::size_t i = 0; i < tile; ++i) {
                    pool[first + i].score = votes[i].dispersion;
                }
            }
        }
        const std::size_t keep = std::min(count, pool.size());
        std::partial_sort(pool.begin(),
                          pool.begin() + static_cast<std::ptrdiff_t>(keep),
                          pool.end(), [](const Candidate& a, const Candidate& b) {
                              return a.score > b.score;
                          });
        pipeline.run(
            keep,
            [&](std::size_t i, Evaluation& slot) {
                slot.test = generator.make_test(
                    pool[i].recipe, pool[i].conditions, std::move(pool[i].name));
                return true;
            },
            reduce);
    };

    measure_random_batch(options_.training_tests);

    for (rounds = 1; rounds <= options_.max_rounds; ++rounds) {
        util::Rng split_rng = rng.fork(rounds);
        auto [train_set, validation_set] =
            nn::split(dataset, options_.train_fraction, split_rng);

        committee = nn::VotingCommittee();
        reports =
            committee.train(train_set, validation_set, options_.committee, rng);

        std::size_t passing = 0;
        for (const nn::TrainReport& r : reports) {
            if (r.learned && r.generalizes) ++passing;
        }
        const double majority = static_cast<double>(passing) /
                                static_cast<double>(reports.size());
        converged = majority >= options_.required_member_majority;
        util::log_info("learner round ", rounds, " (",
                       to_string(options_.acquisition), "): ", passing, "/",
                       reports.size(), " members pass, mean val err ",
                       committee.mean_validation_error());
        if (converged && rounds >= options_.min_rounds) break;
        if (rounds == options_.max_rounds) break;

        // Back to step (1): gather more measurements and relearn.
        if (options_.acquisition == Acquisition::kRandom) {
            measure_random_batch(options_.additional_tests_per_round);
        } else {
            measure_acquired_batch(options_.additional_tests_per_round);
        }
    }

    LearnedModel model(std::move(committee), std::move(coder),
                       generator.options(), parameter);
    LearnResult result{std::move(model),
                       std::move(dsv),
                       std::move(reports),
                       std::min(rounds, options_.max_rounds),
                       converged,
                       0.0,
                       tests_measured};
    result.mean_validation_error =
        result.model.committee().mean_validation_error();
    result.faults = pipeline.faults();
    return result;
}

}  // namespace cichar::core
