// Intelligent device characterization OPTIMIZATION scheme (paper Fig. 5):
//
//   NN weight file -> fuzzy-NN test generator seeds sub-optimal tests
//   -> characterization objective (drift to max or min) -> GA evolves
//   test-sequence + test-condition chromosomes, fitness = trip point
//   measured live on the ATE (eqs. 2/3/4) -> WCR classification ->
//   restart with brand new populations until the worst case is detected
//   (worst case ratio theorem) or the step budget ends -> database.
#pragma once

#include <functional>
#include <string>

#include "ate/fault_injector.hpp"
#include "ate/tester.hpp"
#include "core/database.hpp"
#include "core/evaluation_pipeline.hpp"
#include "core/learner.hpp"
#include "core/measurement_policy.hpp"
#include "core/nn_test_generator.hpp"
#include "core/replica_slab.hpp"
#include "core/trip_cache.hpp"
#include "ga/multi_population.hpp"

namespace cichar::core {

/// Characterization objective (paper Fig. 5 step 2): which direction of
/// specification drift the hunt provokes.
enum class Objective : std::uint8_t {
    kDriftToMinimum,  ///< worst case = smallest measured value (eq. 6)
    kDriftToMaximum,  ///< worst case = largest measured value (eq. 5)
};

[[nodiscard]] const char* to_string(Objective objective) noexcept;

/// The natural objective for a parameter: min-limit specs are hunted
/// toward their minimum, max-limit specs toward their maximum.
[[nodiscard]] Objective objective_for(const ate::Parameter& parameter) noexcept;

/// Trip-point memoization across GA generations/restarts/migration.
/// Duplicated chromosomes (copied elites, no-op crossover children)
/// decode to the exact same concrete test; a hit replays the stored
/// trip point instead of spending ATE time. The cache holds
/// kTripCacheCapacity entries, least recently used evicted first. Off
/// by default because a hit also skips the re-measurement noise a live
/// tester would add.
struct HuntCacheOptions {
    bool enabled = false;
};

/// Crash-safe checkpointing of the GA hunt. When `save` is set, drive()
/// serializes its full dynamic state (GA populations, optimizer progress,
/// trip cache, residual memory, RNG streams, ledger, device and injector
/// state) after every generation; a blob handed back via `resume_blob`
/// restores that exact state and the resumed hunt finishes byte-identical
/// to an uninterrupted one.
struct HuntCheckpointOptions {
    /// Sink for the serialized GA-state blob (typically wrapped into the
    /// hunt checkpoint file and written atomically).
    std::function<void(const std::string&)> save;
    /// Blob from a previous run's `save` to resume from (empty = cold).
    std::string resume_blob;
    /// Chaos hook: abort the GA loop after this many generations as a
    /// deterministic stand-in for SIGKILL (0 = never).
    std::size_t abort_after_generation = 0;
};

/// Out-of-band progress sample delivered after each GA generation when
/// `OptimizerOptions::on_generation` is set. Strictly observational: the
/// hook runs outside the fitness path, draws no randomness, and cannot
/// steer the hunt, so installing it never changes any report,
/// checkpoint, or cache byte.
struct HuntProgress {
    /// Generation about to run next (1-based count of completed ones).
    std::size_t next_generation = 0;
    std::size_t max_generations = 0;
    std::size_t evaluations = 0;
    std::size_t restarts = 0;
    double best_fitness = 0.0;
    TripCacheStats cache{};
    /// ATE pattern applications spent so far by this hunt.
    std::size_t ate_applications = 0;
    /// Configured in-flight trip-search depth (1 in situ).
    std::size_t inflight = 1;
};

struct OptimizerOptions {
    ga::MultiPopulationOptions ga{};
    /// Software-only candidates scored by the NN generator.
    std::size_t nn_candidates = 1500;
    /// Sub-optimal tests seeded into the GA populations.
    std::size_t nn_seed_count = 12;
    /// Candidates per batched committee pass during NN seeding.
    std::size_t nn_score_batch = 64;
    MultiTripOptions trip{};
    ga::WcrThresholds thresholds{};
    /// Run a functional pattern when a fitness evaluation crosses the fail
    /// boundary, storing failures separately.
    bool check_functional_failures = true;
    std::size_t database_capacity = 64;
    HuntParallelOptions parallel{};
    HuntCacheOptions cache{};
    HuntCheckpointOptions checkpoint{};
    /// Observability hook: called after every GA generation with a
    /// progress sample (see HuntProgress). Must not throw.
    std::function<void(const HuntProgress&)> on_generation;
};

struct WorstCaseReport {
    ga::MultiPopulationOutcome outcome;
    WorstCaseDatabase database;
    testgen::Test worst_test;        ///< re-expanded best chromosome
    TripPointRecord worst_record;    ///< its re-measured trip point
    Objective objective = Objective::kDriftToMinimum;
    std::size_t ate_measurements = 0;  ///< measurements spent in this run
    TripCacheStats cache_stats{};      ///< zeros when the cache is off
    std::size_t jobs = 1;              ///< EvaluationPipeline::jobs()
    /// In-flight trip searches actually used (1 in situ). Like
    /// `jobs`, never rendered into the report: the byte-identity contract
    /// forbids it.
    std::size_t inflight = 1;
    /// Warm-slab recycling counters (zeros when the hunt ran serial).
    /// Never rendered into the report, like `jobs`.
    ReplicaSlabStats slab{};
    /// Resilience-policy activity during the hunt (session + replicas).
    FaultCounters faults{};
    /// Faults the attached injector fired during the hunt (zeros when no
    /// injector is attached).
    ate::InjectionStats injected{};
    /// True when the hunt stopped early at checkpoint.abort_after_generation
    /// (simulated crash); the report is then partial and unpublishable.
    bool aborted = false;
};

class WorstCaseOptimizer {
public:
    WorstCaseOptimizer() = default;
    explicit WorstCaseOptimizer(OptimizerOptions options)
        : options_(std::move(options)) {}

    [[nodiscard]] const OptimizerOptions& options() const noexcept {
        return options_;
    }

    /// Full Fig. 5 run: NN-seeded GA against live measurements, each
    /// trip search starting at the committee's predicted trip point
    /// corrected by the nearest measured residual (ResidualMemory).
    /// Seeds with suggest_seeds() from `rng` on `parallel.jobs` workers
    /// (bit-identical at any count, replicas on or off), then hunts as
    /// the overload below.
    [[nodiscard]] WorstCaseReport run(ate::Tester& tester,
                                      const ate::Parameter& parameter,
                                      const LearnedModel& model,
                                      Objective objective,
                                      util::Rng& rng) const;

    /// The same hunt from seeds already suggested, possibly on another
    /// device: a lot scores its NN seeds once and every site hunts with
    /// them. Draws nothing for seeding from `rng`.
    [[nodiscard]] WorstCaseReport run(ate::Tester& tester,
                                      const ate::Parameter& parameter,
                                      const LearnedModel& model,
                                      std::vector<ga::TestChromosome> seeds,
                                      Objective objective,
                                      util::Rng& rng) const;

    /// Fig. 5 step 1: `nn_seed_count` of `nn_candidates` random tests
    /// drawn from `rng`, those the committee predicts worst, as GA seeds.
    /// Scoring runs on `jobs` workers (0 = one per hardware thread) and
    /// is bit-identical at any count.
    [[nodiscard]] std::vector<ga::TestChromosome> suggest_seeds(
        const LearnedModel& model, util::Rng& rng, std::size_t jobs) const;

    /// Ablation entry point: identical GA but with purely random seeding
    /// (no NN), and every trip search starts at the RTP (the paper's
    /// eqs. 3/4). `generator_options` replaces the model's context.
    [[nodiscard]] WorstCaseReport run_unseeded(
        ate::Tester& tester, const ate::Parameter& parameter,
        const testgen::RandomGeneratorOptions& generator_options,
        Objective objective, util::Rng& rng) const;

private:
    /// `model` (nullable) anchors each fitness evaluation's trip search
    /// at its residual-corrected predicted trip point. Replica fitness
    /// evaluation (parallel mode) measures through the pipeline's ring
    /// on the calling thread.
    [[nodiscard]] WorstCaseReport drive(
        ate::Tester& tester, const ate::Parameter& parameter,
        const testgen::RandomGeneratorOptions& generator_options,
        const LearnedModel* model,
        std::vector<ga::TestChromosome> seeds, Objective objective,
        util::Rng& rng) const;

    OptimizerOptions options_;
};

}  // namespace cichar::core
