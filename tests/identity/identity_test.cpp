// The determinism contract as one declared table. Class axes give a run
// its own reference; invisible axes must leave every artifact of a hunt,
// of learning and of a lot byte-identical to that reference. Rows are
// generated from the table: each invisible value on its own, plus one
// corner per class with every invisible axis at a non-default value.
// Every row also asserts its axis's liveness observable, so an axis that
// stops reaching the code it sizes fails instead of passing quietly, and
// every class-axis value must change results against the axis default.
//
// One runner each for a hunt, for learning and for a lot returns one
// Artifacts value holding every byte the contract covers, plus the
// observables a row checks for liveness (never compared).
//
// A new option that must not change results registers here as one
// invisible axis, with its liveness observable.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../core/cold_rebuild_chip.hpp"
#include "ate/fault_injector.hpp"
#include "core/characterizer.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "device/memory_chip.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"
#include "nn/weights_io.hpp"
#include "obs/status_board.hpp"
#include "obs/status_format.hpp"
#include "obs/status_writer.hpp"
#include "util/binio.hpp"
#include "util/telemetry.hpp"

namespace cichar::identity {
namespace {

namespace fs = std::filesystem;
namespace telem = util::telemetry;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeed = 2005;
constexpr std::size_t kLotSites = 4;
/// Per-cycle tester time, so emulated deadlines follow pattern length
/// and a short pattern overtakes a long one in a deep ring.
constexpr double kCycleSeconds = 1e-5;
/// Emulated tester latency of the latency axis: this fraction of the
/// modeled tester time is spent in real time.
constexpr double kRealtimeFraction = 1e-2;

enum class Runner { kHunt, kLearn, kLot };
enum class Faults { kOff, kModerate, kDeath };
/// Where a resumed run's first leg stops. Hunts: after generation 3, or
/// after the residual memory has wrapped. Lots: a `max_sites_per_run` 2
/// partial run, or the second site checkpoint of a jobs-4 lot.
enum class Resume { kNone, kGeneration3, kWrapped, kStopAfter2, kSiteBlob2 };

/// One run. The class axes pick the reference a run must reproduce; the
/// invisible axes must leave every artifact byte-identical to it.
struct Config {
    Runner runner = Runner::kHunt;
    // Class axes.
    bool ring = false;  ///< replica ring engine (else in situ)
    Faults faults = Faults::kOff;
    bool anchored = false;  ///< hunt: learn, NN-seed, anchor the searches
    bool cache = true;      ///< hunt: the trip cache
    core::Acquisition acquisition = core::Acquisition::kRandom;  ///< learn
    // Invisible axes.
    std::size_t depth = 1;
    std::size_t jobs = 1;
    bool cold_slab = false;  ///< every slab lease a clone_cold rebuild
    bool latency = false;    ///< emulated tester latency
    bool telemetry = false;  ///< metrics and tracing
    bool status = false;     ///< status feed, progress hook, writer
    Resume resume = Resume::kNone;
    /// Record registry metrics for a liveness observable (the telemetry
    /// axis proves recording changes no byte).
    bool metrics = false;

    [[nodiscard]] bool operator==(const Config&) const = default;
};

/// The class reference of `row`: its class axes, every invisible axis at
/// its default.
Config reference_of(const Config& row) {
    return {.runner = row.runner,
            .ring = row.ring,
            .faults = row.faults,
            .anchored = row.anchored,
            .cache = row.cache,
            .acquisition = row.acquisition};
}

struct Observed {
    bool stopped = false;  ///< hunt aborted, lot cut by max_sites_per_run
    std::size_t finished_sites = 0;
    std::size_t inflight = 0;  ///< ring depth the run reports using
    core::ReplicaSlabStats slab{};
    std::uint64_t applications = 0;
    std::uint64_t learning_applications = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_lookups = 0;
    std::size_t measured = 0;  ///< hunt evaluations that measured
    bool cache_counters_in_last_blob = false;
    std::uint64_t injected = 0;
    std::uint64_t site_deaths = 0;
    bool policy_acted = false;
    bool died = false;  ///< learning ended with SiteDeadError
    std::size_t tests_measured = 0;
    std::size_t dsv_size = 0;
    std::size_t dead_sites = 0;
    std::size_t restored = 0;
    std::size_t restored_degraded = 0;
    std::size_t sites_run = 0;  ///< lot sites characterized in this leg
    std::string lot_fingerprint;
    // Registry readings, taken when the run recorded metrics.
    std::uint64_t pool_tasks = 0;
    std::uint64_t reordered = 0;
    std::uint64_t slab_clones = 0;
    std::uint64_t measurements_metric = 0;
    std::uint64_t evaluations_metric = 0;
    std::uint64_t queue_waits = 0;  ///< async queue-wait observations
    std::size_t spans = 0;
    double elapsed_seconds = 0.0;
    double tester_seconds = 0.0;
    std::optional<obs::StatusSnapshot> snapshot;  ///< the feed's last file
};

struct Field {
    std::string name;
    std::string bytes;
    bool text = false;  ///< printable, so a mismatch prints a diff
};

struct Artifacts {
    std::vector<Field> fields;
    /// Every checkpoint blob, in save order. A hunt's are compared on
    /// cold runs; a lot's final blob is a field (sites finish in any
    /// order, so only the last blob is deterministic).
    std::vector<std::string> checkpoints;
    Observed seen;
    /// A resumed run's first leg.
    std::shared_ptr<const Artifacts> first_leg;

    void add(std::string name, std::string bytes, bool text = false) {
        fields.push_back({std::move(name), std::move(bytes), text});
    }
    [[nodiscard]] const std::string& operator[](
        const std::string& name) const {
        for (const Field& field : fields) {
            if (field.name == name) return field.bytes;
        }
        throw std::out_of_range("no artifact field " + name);
    }
};

/// Past this generation the residual memory has wrapped (Resume::kWrapped).
constexpr std::size_t kWrappedGeneration = 12;

/// The bytes of every value's `save`, in order.
template <typename... T>
std::string saved(const T&... values) {
    std::string out;
    (values.save(out), ...);
    return out;
}

ate::TesterOptions tester_options(const Config& config) {
    ate::TesterOptions options;
    options.cycle_seconds = kCycleSeconds;
    if (config.latency) options.realtime_fraction = kRealtimeFraction;
    return options;
}

ate::FaultProfile fault_profile(const Config& config) {
    if (config.faults == Faults::kOff) return ate::FaultProfile::none();
    ate::FaultProfile profile = ate::FaultProfile::moderate();
    if (config.faults == Faults::kDeath) profile.site_death_rate = 0.002;
    return profile;
}

/// Switches on what a run records (metrics, tracing, the status feed
/// and its writer) and restores the default-off state afterwards, so
/// runs never leak into each other.
class Instruments {
public:
    /// `kind` names the feed's snapshot ("hunt" or "lot"); a hunt
    /// registers its one-site campaign here, a lot in LotRunner::run.
    Instruments(const Config& config, const char* kind)
        : start_(Clock::now()) {
        telem::set_metrics_enabled(config.telemetry || config.metrics);
        telem::set_tracing_enabled(config.telemetry);
        if (!config.status) return;
        obs::StatusBoard::instance().reset_for_test();
        obs::set_status_enabled(true);
        if (std::string(kind) == "hunt") {
            obs::StatusBoard::instance().begin_campaign("hunt", "identity",
                                                        kSeed, 1);
            obs::StatusBoard::instance().begin_site(0);
        }
        static int feeds = 0;  // runs are sequential within a process
        directory_ = fs::temp_directory_path() /
                     ("cichar_identity_" + std::to_string(::getpid()) + "_" +
                      std::to_string(feeds++));
        fs::remove_all(directory_);
        obs::StatusWriterOptions options;
        options.directory = directory_.string();
        options.name = kind;
        options.interval_seconds = 0.005;  // hammer the board
        writer_ = std::make_unique<obs::StatusWriter>(std::move(options));
    }
    ~Instruments() { reset(); }

    /// Reads every observable the run left, then resets.
    void finish(Observed& seen) {
        seen.elapsed_seconds =
            std::chrono::duration<double>(Clock::now() - start_).count();
        if (writer_) {
            writer_->stop();
            if (const auto bytes = util::read_file(writer_->path())) {
                seen.snapshot = obs::decode_status(*bytes);
            }
        }
        telem::Registry& registry = telem::Registry::instance();
        const auto counter = [&registry](const char* name) {
            return registry.counter(name).value();
        };
        seen.pool_tasks = counter("cichar_pool_tasks_total");
        seen.reordered = counter("cichar_ate_async_completions_reordered_total");
        seen.slab_clones = counter("cichar_hunt_slab_cold_clones_total");
        seen.measurements_metric = counter("cichar_ate_measurements_total");
        seen.evaluations_metric = counter("cichar_hunt_evaluations_total");
        seen.queue_waits =
            registry.histogram("cichar_ate_async_queue_wait_ns", {})
                .snapshot()
                .count;
        seen.spans = telem::Trace::instance().event_count();
        reset();
    }

private:
    void reset() {
        writer_.reset();
        if (!directory_.empty()) fs::remove_all(directory_);
        telem::set_metrics_enabled(false);
        telem::set_tracing_enabled(false);
        telem::Registry::instance().reset_values();
        telem::Trace::instance().clear();
        obs::set_status_enabled(false);
        obs::StatusBoard::instance().reset_for_test();
    }

    Clock::time_point start_;
    fs::path directory_;
    std::unique_ptr<obs::StatusWriter> writer_;
};

void post_progress(const core::HuntProgress& hunt) {
    obs::GenerationPost post;
    post.generation = hunt.next_generation;
    post.generations_total = hunt.max_generations;
    post.evaluations = hunt.evaluations;
    post.best_wcr = hunt.best_fitness;
    post.ate_applications = hunt.ate_applications;
    post.cache_hits = hunt.cache.hits;
    post.cache_misses = hunt.cache.misses;
    post.inflight = hunt.inflight;
    obs::StatusBoard::instance().post_generation(0, post);
}

/// A small committee, learned fast: an anchored hunt's and a lot's.
void small_learner(core::LearnerOptions& learner) {
    learner.max_rounds = 1;
    learner.committee.members = 2;
    learner.committee.hidden_layers = {8};
    learner.committee.train.max_epochs = 40;
}

core::CharacterizerOptions hunt_options(const Config& config) {
    core::CharacterizerOptions options;
    options.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.learner.training_tests = 40;
    small_learner(options.learner);
    options.learner.committee.jobs = config.jobs;
    options.learner.trip.policy.enabled = config.faults != Faults::kOff;
    core::OptimizerOptions& hunt = options.optimizer;
    hunt.ga.population.size = 10;
    hunt.ga.populations = 3;
    hunt.ga.max_generations = 16;
    hunt.ga.stagnation_limit = 4;
    hunt.ga.max_restarts = 2;
    hunt.ga.migration_interval = 3;
    // Calm operators, so the GA re-emits enough duplicate chromosomes
    // to exercise the trip cache.
    hunt.ga.population.operators.crossover_rate = 0.8;
    hunt.ga.population.operators.mutation_rate = 0.10;
    hunt.ga.population.operators.reset_rate = 0.01;
    hunt.ga.population.operators.seed_mutation_rate = 0.05;
    hunt.parallel.enabled = config.ring;
    hunt.parallel.jobs = config.jobs;
    hunt.parallel.inflight = config.depth;
    hunt.cache.enabled = config.cache;
    hunt.trip.policy.enabled = config.faults != Faults::kOff;
    hunt.nn_candidates = 100;
    hunt.nn_seed_count = 4;
    return options;
}

Artifacts hunt_leg(const Config& config, const std::string& resume_blob,
                   std::size_t abort_after_generation) {
    Artifacts out;
    device::MemoryChipOptions chip_options;
    chip_options.noise_sigma_ns = 0.0;  // a cache hit replays a re-measure
    std::unique_ptr<device::DeviceUnderTest> chip =
        std::make_unique<device::MemoryTestChip>(device::DieParameters{},
                                                 chip_options);
    if (config.cold_slab) {
        chip = std::make_unique<core::ColdRebuildChip>(std::move(chip));
    }
    ate::Tester tester(*chip, tester_options(config));
    ate::FaultInjector injector(fault_profile(config));
    if (config.faults != Faults::kOff) tester.attach_fault_injector(&injector);

    core::CharacterizerOptions options = hunt_options(config);
    core::HuntCheckpointOptions& checkpoint = options.optimizer.checkpoint;
    checkpoint.resume_blob = resume_blob;
    checkpoint.abort_after_generation = abort_after_generation;
    checkpoint.save = [&out](const std::string& blob) {
        out.checkpoints.push_back(blob);
    };
    if (config.status) options.optimizer.on_generation = post_progress;

    const ate::Parameter param = ate::Parameter::data_valid_time();
    const core::DeviceCharacterizer characterizer(tester, param, options);
    util::Rng rng(kSeed);
    std::optional<core::LearnResult> learned;
    core::WorstCaseReport report;
    Instruments instruments(config, "hunt");
    if (config.anchored) {
        learned.emplace(characterizer.learn(rng));
        report = characterizer.optimize(learned->model, rng);
    } else {
        report = core::WorstCaseOptimizer(options.optimizer)
                     .run_unseeded(tester, param, options.generator,
                                   core::objective_for(param), rng);
    }
    instruments.finish(out.seen);

    Observed& seen = out.seen;
    seen.stopped = report.aborted;
    seen.inflight = report.inflight;
    seen.slab = report.slab;
    seen.applications = tester.log().total().applications;
    seen.learning_applications =
        tester.log().phase_counters("learning").applications;
    seen.tester_seconds = tester.log().total().tester_seconds;
    seen.cache_hits = report.cache_stats.hits;
    seen.cache_lookups = report.cache_stats.lookups();
    seen.measured = report.outcome.evaluations - report.cache_stats.hits;
    seen.injected = report.injected.injected();
    seen.policy_acted = report.faults.any();
    if (!out.checkpoints.empty()) {
        // The checkpoint payload's cache counters, as the hunt writes
        // them after the cache body.
        std::string counters;
        util::put_u64(counters, report.cache_stats.hits);
        util::put_u64(counters, report.cache_stats.misses);
        util::put_u64(counters, report.cache_stats.evictions);
        seen.cache_counters_in_last_blob =
            out.checkpoints.back().find(counters) != std::string::npos;
    }

    // The outcome: best fitness, chromosome, evaluations and history. The
    // rendered report carries the ATE measurements and the cache counters,
    // the log bytes every phase's counters.
    out.add("outcome", saved(report.outcome));
    out.add("worst_record", saved(report.worst_record));
    out.add("faults_and_injected", saved(report.faults, report.injected));
    std::ostringstream database;
    report.database.save(database);
    out.add("database", database.str(), true);
    core::ReportInputs inputs;
    inputs.seed = kSeed;
    inputs.learned = learned ? &*learned : nullptr;
    inputs.hunt = &report;
    inputs.ledger = &tester.log();
    out.add("rendered", core::render_report(inputs), true);
    out.add("measurement_log", saved(tester.log()));
    return out;
}

/// A resumed run's first leg: the class reference, on a ring of another
/// depth than the resumed leg's, so a blob crosses ring depths.
Config first_leg_of(const Config& row) {
    Config first = reference_of(row);
    if (first.ring) first.depth = row.depth == 8 ? 1 : 8;
    return first;
}

Artifacts run_hunt(const Config& config) {
    if (config.resume == Resume::kNone) return hunt_leg(config, "", 0);
    auto first = std::make_shared<const Artifacts>(hunt_leg(
        first_leg_of(config), "",
        config.resume == Resume::kWrapped ? kWrappedGeneration : 3));
    const std::vector<std::string>& blobs = first->checkpoints;
    Artifacts resumed = hunt_leg(config, blobs.empty() ? "" : blobs.back(), 0);
    resumed.first_leg = std::move(first);
    return resumed;
}

Artifacts run_learn(const Config& config) {
    Artifacts out;
    device::MemoryTestChip chip;
    ate::Tester tester(chip, tester_options(config));
    ate::FaultInjector injector(fault_profile(config));
    if (config.faults != Faults::kOff) tester.attach_fault_injector(&injector);

    core::CharacterizerOptions options;
    core::LearnerOptions& learner = options.learner;
    learner.training_tests = 60;
    learner.additional_tests_per_round = 30;
    learner.min_rounds = 2;
    learner.max_rounds = 2;
    learner.acquisition = config.acquisition;
    learner.acquisition_pool = 200;
    learner.committee.members = 3;
    learner.committee.hidden_layers = {12};
    learner.committee.train.max_epochs = 120;
    learner.committee.jobs = config.jobs;
    learner.trip.policy.enabled = config.faults != Faults::kOff;
    options.optimizer.parallel.enabled = config.ring;
    options.optimizer.parallel.inflight = config.depth;
    const core::DeviceCharacterizer characterizer(
        tester, ate::Parameter::data_valid_time(), options);

    util::Rng rng(kSeed);
    std::optional<core::LearnResult> result;
    Instruments instruments(config, "learn");
    try {
        result.emplace(characterizer.learn(rng));
    } catch (const ate::SiteDeadError&) {
        out.seen.died = true;
    }
    instruments.finish(out.seen);

    const ate::InjectionStats injected = injector.stats();
    out.seen.learning_applications =
        tester.log().phase_counters("learning").applications;
    out.seen.tester_seconds = tester.log().total().tester_seconds;
    out.seen.injected = injected.injected();
    out.seen.site_deaths = injected.site_deaths;
    std::string faults;
    std::string dsv;
    std::ostringstream committee;
    if (result) {
        out.seen.tests_measured = result->tests_measured;
        out.seen.dsv_size = result->dsv.size();
        out.seen.policy_acted = result->faults.any();
        faults = saved(result->faults);
        nn::save_committee(committee, result->model.committee());
        for (const core::TripPointRecord& record : result->dsv.records()) {
            record.save(dsv);
        }
    }
    out.add("summary",
            "died " + std::to_string(out.seen.died) + "\ntests_measured " +
                std::to_string(out.seen.tests_measured) + "\n",
            true);
    out.add("faults_and_injected", faults + saved(injected));
    out.add("committee", committee.str(), true);
    out.add("dsv", std::move(dsv));
    out.add("measurement_log", saved(tester.log()));
    return out;
}

/// The options of a lot run (checkpoint knobs unset).
lot::LotOptions lot_options(const Config& config) {
    lot::LotOptions options;
    options.sites = kLotSites;
    options.jobs = config.jobs;
    options.inflight = config.ring ? config.depth : 0;
    options.seed = 77;
    options.tester = tester_options(config);
    core::CharacterizerOptions& site = options.characterizer;
    site.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    site.learner.training_tests = 24;
    small_learner(site.learner);
    site.optimizer.ga.population.size = 8;
    site.optimizer.ga.populations = 2;
    site.optimizer.ga.max_generations = 4;
    site.optimizer.nn_candidates = 80;
    site.optimizer.nn_seed_count = 4;
    options.faults = fault_profile(config);
    // As `cichar lot` sets it: quarantine after eight consecutive
    // unrecoverable tests.
    options.policy.enabled = config.faults != Faults::kOff;
    options.policy.quarantine_after = 8;
    return options;
}

Artifacts lot_leg(const Config& config, const std::string& resume_blob,
                  std::size_t max_sites_per_run) {
    Artifacts out;
    lot::LotOptions options = lot_options(config);
    options.checkpoint.resume_blob = resume_blob;
    options.checkpoint.max_sites_per_run = max_sites_per_run;
    options.checkpoint.save = [&out](const std::string& blob) {
        out.checkpoints.push_back(blob);
    };
    out.seen.lot_fingerprint = lot::LotRunner(options).fingerprint();
    Instruments instruments(config, "lot");
    const lot::LotResult result = lot::LotRunner(options).run();
    instruments.finish(out.seen);

    Observed& seen = out.seen;
    seen.tester_seconds = result.merged_log.total().tester_seconds;
    seen.finished_sites = result.finished_sites();
    seen.stopped = !result.complete();
    // Per site: status, die, risk, worst records and health, then the
    // reference site.
    std::string sites;
    for (const lot::SiteResult& site : result.sites) {
        if (site.restored) {
            ++seen.restored;
            if (site.status != lot::SiteStatus::kCompleted) {
                ++seen.restored_degraded;
            }
        } else if (site.finished()) {
            ++seen.sites_run;
        }
        if (site.status == lot::SiteStatus::kDead) ++seen.dead_sites;
        seen.injected += site.injected.injected();
        seen.policy_acted = seen.policy_acted || site.faults.any();
        for (const core::ParameterCampaign& campaign : site.campaigns) {
            seen.inflight = std::max(seen.inflight, campaign.report.inflight);
        }
        util::put_u64(sites, static_cast<std::uint64_t>(site.status));
        for (const double value :
             {site.die.window_ns, site.die.sensitivity_scale,
              site.die.vmin_base_v, site.die.fmax_base_mhz, site.max_risk}) {
            util::put_double(sites, value);
        }
        for (const lot::SiteParameterOutcome& outcome : site.outcomes) {
            sites += saved(outcome.worst);
            util::put_double(sites, outcome.margin_risk);
        }
        sites += saved(site.faults, site.injected);
    }
    if (!result.complete()) return out;  // a stopped first leg

    util::put_u64(sites, result.reference_site.value_or(kLotSites));
    out.add("sites", std::move(sites));
    out.add("rendered", lot::LotReport::build(result).render(), true);
    out.add("merged_log", result.merged_log.report(), true);
    out.add("merged_log_bytes", saved(result.merged_log));
    out.add("final_checkpoint",
            out.checkpoints.empty() ? std::string() : out.checkpoints.back());
    return out;
}

Artifacts run_lot(const Config& config) {
    if (config.resume == Resume::kNone) return lot_leg(config, "", 0);
    // Resume::kSiteBlob2 takes a jobs-4 lot's second blob. Sites finish
    // in any order at jobs 4, so which two sites it holds varies from run
    // to run; the resumed lot may not.
    const bool partial = config.resume == Resume::kStopAfter2;
    Config source = first_leg_of(config);
    if (!partial) source.jobs = 4;
    auto first = std::make_shared<const Artifacts>(
        lot_leg(source, "", partial ? 2 : 0));
    const std::vector<std::string>& blobs = first->checkpoints;
    const std::size_t blob = partial ? blobs.size() - 1 : 1;
    Artifacts resumed =
        lot_leg(config, blob < blobs.size() ? blobs[blob] : "", 0);
    resumed.first_leg = std::move(first);
    return resumed;
}

Artifacts run(const Config& config) {
    switch (config.runner) {
        case Runner::kHunt: return run_hunt(config);
        case Runner::kLearn: return run_learn(config);
        case Runner::kLot: return run_lot(config);
    }
    throw std::logic_error("unknown runner");
}

/// Compares every field; with `blobs` also every checkpoint blob.
void expect_identical(const Artifacts& actual, const Artifacts& reference,
                      bool blobs) {
    ASSERT_EQ(actual.fields.size(), reference.fields.size());
    for (std::size_t i = 0; i < actual.fields.size(); ++i) {
        const Field& got = actual.fields[i];
        const Field& want = reference.fields[i];
        ASSERT_EQ(got.name, want.name);
        if (got.text) {
            EXPECT_EQ(got.bytes, want.bytes) << got.name;
        } else {
            EXPECT_TRUE(got.bytes == want.bytes)
                << got.name << " differs (" << got.bytes.size() << " vs "
                << want.bytes.size() << " bytes)";
        }
    }
    if (!blobs) return;
    ASSERT_EQ(actual.checkpoints.size(), reference.checkpoints.size());
    for (std::size_t i = 0; i < actual.checkpoints.size(); ++i) {
        EXPECT_TRUE(actual.checkpoints[i] == reference.checkpoints[i])
            << "checkpoint blob " << i << " differs";
    }
}

/// The field a class axis must change: the rendered report of a hunt or
/// lot; the DSV of learning, or its measurement log when the site dies.
const char* primary_field(const Config& config) {
    if (config.runner != Runner::kLearn) return "rendered";
    return config.faults == Faults::kDeath ? "measurement_log" : "dsv";
}

struct Value {
    const char* label;
    void (*set)(Config&);
    bool (*applies)(const Config&) = nullptr;  ///< nullptr: always
};

bool value_applies(const Value& value, const Config& config) {
    return value.applies == nullptr || value.applies(config);
}

/// values[0] is the default.
struct ClassAxis {
    const char* name;
    bool (*applies)(const Config&);
    std::vector<Value> values;
};

struct InvisibleAxis {
    const char* name;
    bool (*applies)(const Config& reference);
    std::vector<Value> values;  ///< the non-default values
    /// The liveness observable is a registry counter: the row records
    /// metrics.
    bool counters;
    void (*live)(const Config& row, const Artifacts& run,
                 const Artifacts& reference);
};

bool is_hunt(const Config& c) { return c.runner == Runner::kHunt; }
bool is_learn(const Config& c) { return c.runner == Runner::kLearn; }
bool is_lot(const Config& c) { return c.runner == Runner::kLot; }
bool is_ring(const Config& c) { return c.ring; }
bool any_runner(const Config&) { return true; }
bool survives(const Config& c) { return c.faults != Faults::kDeath; }

const std::vector<ClassAxis>& class_axes() {
    static const std::vector<ClassAxis> axes = {
        {"engine",
         any_runner,
         {{"insitu", [](Config& c) { c.ring = false; }},
          {"ring", [](Config& c) { c.ring = true; }}}},
        {"faults",
         any_runner,
         {{"nofaults", [](Config& c) { c.faults = Faults::kOff; }},
          {"moderate", [](Config& c) { c.faults = Faults::kModerate; }},
          // A hunt whose site dies throws; it leaves no hunt artifacts.
          {"death", [](Config& c) { c.faults = Faults::kDeath; },
           [](const Config& c) { return !is_hunt(c); }}}},
        {"seeding",
         is_hunt,
         {{"unseeded", [](Config& c) { c.anchored = false; }},
          {"anchored", [](Config& c) { c.anchored = true; }}}},
        {"cache",
         is_hunt,
         {{"cache", [](Config& c) { c.cache = true; }},
          {"nocache", [](Config& c) { c.cache = false; }}}},
        {"acquisition",
         is_learn,
         {{"random",
           [](Config& c) { c.acquisition = core::Acquisition::kRandom; }},
          // Learning whose site dies dies among its first random tests,
          // before any acquisition.
          {"predictedworst",
           [](Config& c) {
               c.acquisition = core::Acquisition::kPredictedWorst;
           },
           survives},
          {"uncertainty",
           [](Config& c) {
               c.acquisition = core::Acquisition::kUncertainty;
           },
           survives}}},
    };
    return axes;
}

const std::vector<InvisibleAxis>& invisible_axes() {
    static const std::vector<InvisibleAxis> axes = {
        {"depth", is_ring,
         {{"depth4", [](Config& c) { c.depth = 4; }},
          {"depth16", [](Config& c) { c.depth = 16; }}},
         true,
         [](const Config& row, const Artifacts& run, const Artifacts&) {
             // Every ring's slab pre-fills one replica per search in
             // flight; learning reports no depth, nor do dead sites.
             EXPECT_GE(run.seen.slab_clones, row.depth);
             if (is_hunt(row) || run.seen.inflight != 0) {
                 EXPECT_EQ(run.seen.inflight, row.depth);
             }
         }},
        // Jobs sizes committee training and NN scoring. An unseeded hunt
        // runs neither, nor does learning that dies before it trains.
        {"jobs",
         [](const Config& c) {
             return is_lot(c) || (is_hunt(c) ? c.anchored : survives(c));
         },
         {{"jobs4", [](Config& c) { c.jobs = 4; }}},
         true,
         [](const Config& row, const Artifacts& run, const Artifacts&) {
             // A lot hands each site to its pool at any jobs count; the
             // tasks beyond those are training and scoring.
             EXPECT_GT(run.seen.pool_tasks,
                       is_lot(row) ? run.seen.sites_run : 0u);
         }},
        {"slab",
         [](const Config& c) { return is_hunt(c) && c.ring; },
         {{"coldslab", [](Config& c) { c.cold_slab = true; }}},
         false,
         [](const Config& row, const Artifacts& run, const Artifacts&) {
             // Every lease rebuilt its replica; the pre-fill accounts for
             // the extra cold clones.
             EXPECT_GT(run.seen.slab.acquires, 0u);
             EXPECT_EQ(run.seen.slab.recycles, 0u);
             EXPECT_EQ(run.seen.slab.cold_clones,
                       run.seen.slab.acquires + row.depth);
         }},
        {"latency", is_ring,
         {{"latency", [](Config& c) { c.latency = true; }}},
         true,
         [](const Config& row, const Artifacts& run, const Artifacts&) {
             if (row.depth > 1) {
                 // The deep rings held more than one request at a time.
                 EXPECT_GT(run.seen.reordered, 0u);
             } else {
                 // At depth 1 every emulated wait is served in turn.
                 EXPECT_GE(run.seen.elapsed_seconds,
                           0.5 * kRealtimeFraction * run.seen.tester_seconds);
             }
         }},
        {"telemetry", any_runner,
         {{"telemetry", [](Config& c) { c.telemetry = true; }}},
         false,
         [](const Config& row, const Artifacts& run, const Artifacts&) {
             const Observed& seen = run.seen;
             EXPECT_GT(seen.measurements_metric, 0u);
             EXPECT_TRUE(!is_hunt(row) || seen.evaluations_metric > 0);
             // The ring's queue metrics too; learning opens no span.
             EXPECT_TRUE(!row.ring || seen.queue_waits > 0);
             EXPECT_TRUE(is_learn(row) || seen.spans > 0);
         }},
        {"status",
         [](const Config& c) { return !is_learn(c); },
         {{"status", [](Config& c) { c.status = true; }}},
         false,
         [](const Config& row, const Artifacts& run, const Artifacts&) {
             ASSERT_TRUE(run.seen.snapshot.has_value());
             const obs::StatusSnapshot& snapshot = *run.seen.snapshot;
             if (is_hunt(row)) {
                 EXPECT_EQ(snapshot.kind, "hunt");
                 EXPECT_EQ(snapshot.sites_total, 1u);
                 ASSERT_EQ(snapshot.sites.size(), 1u);
                 EXPECT_GT(snapshot.sites[0].generation, 0u);  // the hook
             } else {
                 EXPECT_EQ(snapshot.kind, "lot");
                 EXPECT_EQ(snapshot.sites_total, kLotSites);
                 EXPECT_EQ(snapshot.finished_sites(), kLotSites);
             }
         }},
        {"resume",
         [](const Config& c) { return !is_learn(c); },
         {{"resumegen3", [](Config& c) { c.resume = Resume::kGeneration3; },
           is_hunt},
          // The residual memory exists in anchored hunts only.
          {"resumewrapped", [](Config& c) { c.resume = Resume::kWrapped; },
           [](const Config& c) { return is_hunt(c) && c.anchored; }},
          {"resumestop2", [](Config& c) { c.resume = Resume::kStopAfter2; },
           is_lot},
          {"resumeblob2", [](Config& c) { c.resume = Resume::kSiteBlob2; },
           is_lot}},
         false,
         [](const Config& row, const Artifacts& run,
            const Artifacts& reference) {
             ASSERT_NE(run.first_leg, nullptr);
             const Artifacts& first = *run.first_leg;
             if (is_lot(row)) {
                 EXPECT_EQ(run.seen.restored, 2u);
                 if (row.resume == Resume::kStopAfter2) {
                     EXPECT_TRUE(first.seen.stopped);
                     EXPECT_EQ(first.seen.finished_sites, 2u);
                     // A degraded site's health survives the checkpoint.
                     EXPECT_TRUE(row.faults != Faults::kDeath ||
                                 run.seen.restored_degraded > 0);
                 } else {
                     EXPECT_EQ(first.checkpoints.size(), kLotSites);
                 }
                 return;
             }
             // The aborted leg's blobs are the reference's up to the
             // abort, and the resumed leg writes the rest of them.
             EXPECT_TRUE(first.seen.stopped);
             const std::vector<std::string>& all = reference.checkpoints;
             const std::vector<std::string>& head = first.checkpoints;
             ASSERT_FALSE(head.empty());
             ASSERT_EQ(head.size() + run.checkpoints.size(), all.size());
             for (std::size_t i = 0; i < all.size(); ++i) {
                 const std::string& blob =
                     i < head.size() ? head[i]
                                     : run.checkpoints[i - head.size()];
                 EXPECT_TRUE(blob == all[i]) << "checkpoint blob " << i;
             }
             if (row.resume == Resume::kWrapped) {
                 EXPECT_GT(first.seen.measured,
                           core::ResidualMemory::kCapacity + 20);
             }
         }},
    };
    return axes;
}

/// What every run of a class shows, whatever its invisible axes.
void expect_class_liveness(const Config& row, const Artifacts& run) {
    const Observed& seen = run.seen;
    if (row.faults == Faults::kModerate) {
        // The faults really fired, and the policy really intervened.
        EXPECT_GT(seen.injected, 0u);
        EXPECT_TRUE(seen.policy_acted);
    }
    switch (row.runner) {
        case Runner::kHunt:
            EXPECT_FALSE(seen.stopped);
            EXPECT_FALSE(run.checkpoints.empty());
            // The last checkpoint follows the final generation, so it
            // pins the final trip cache: its counters are the report's.
            EXPECT_TRUE(!row.cache || seen.cache_counters_in_last_blob);
            if (row.ring && !row.cold_slab) {
                EXPECT_GT(seen.slab.recycles, 0u);
                EXPECT_EQ(seen.slab.misses, 0u);
            }
            // An anchored hunt learns its committee on its own tester.
            EXPECT_EQ(seen.learning_applications > 0, row.anchored);
            break;
        case Runner::kLearn:
            EXPECT_GT(seen.learning_applications, 0u);
            if (row.faults == Faults::kOff) {
                EXPECT_EQ(seen.tests_measured, 60u + 30u);
                EXPECT_EQ(seen.dsv_size, 90u);
            }
            if (row.faults == Faults::kDeath) {
                EXPECT_TRUE(seen.died);
                EXPECT_EQ(seen.site_deaths, 1u);
            }
            break;
        case Runner::kLot:
            EXPECT_EQ(run.checkpoints.size(),
                      kLotSites - (row.resume == Resume::kNone ? 0 : 2));
            if (row.faults == Faults::kModerate) {
                const std::string& report = run["rendered"];
                ASSERT_NE(report.find("lot policy activity: "),
                          std::string::npos);
                EXPECT_EQ(report.find("lot policy activity: clean"),
                          std::string::npos);
            }
            if (row.faults == Faults::kDeath) {
                EXPECT_GT(seen.dead_sites, 0u);
                EXPECT_NE(run["rendered"].find("site health"),
                          std::string::npos);
            }
            break;
    }
}

/// A generated case: a class, a row of it, or a class pair.
struct Case {
    std::string name;
    Config config;
    std::vector<const InvisibleAxis*> varied;  ///< a row's non-default axes
    /// A class pair's class with `axis` at its default.
    Config base{};
    std::string axis{};
};

void PrintTo(const Case& test, std::ostream* out) { *out << test.name; }

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
    return info.param.name;
}

std::vector<Case> classes() {
    std::vector<Case> out;
    for (const Runner runner : {Runner::kHunt, Runner::kLearn, Runner::kLot}) {
        std::vector<Case> partial = {
            {runner == Runner::kHunt    ? "hunt"
             : runner == Runner::kLearn ? "learn"
                                        : "lot",
             Config{.runner = runner},
             {}}};
        for (const ClassAxis& axis : class_axes()) {
            if (!axis.applies(partial.front().config)) continue;
            std::vector<Case> expanded;
            for (const Case& base : partial) {
                for (const Value& value : axis.values) {
                    if (!value_applies(value, base.config)) continue;
                    Case next = base;
                    value.set(next.config);
                    next.name += std::string("_") + value.label;
                    expanded.push_back(std::move(next));
                }
            }
            partial = std::move(expanded);
        }
        out.insert(out.end(), partial.begin(), partial.end());
    }
    return out;
}

std::vector<Case> rows() {
    std::vector<Case> out;
    for (const Case& cls : classes()) {
        Case corner{cls.name + "_", cls.config, {}};
        for (const InvisibleAxis& axis : invisible_axes()) {
            if (!axis.applies(cls.config)) continue;
            const Value* last = nullptr;
            for (const Value& value : axis.values) {
                if (!value_applies(value, cls.config)) continue;
                Case row{cls.name + "__" + value.label, cls.config, {&axis}};
                value.set(row.config);
                row.config.metrics = axis.counters;
                out.push_back(std::move(row));
                last = &value;
            }
            if (last == nullptr) continue;
            last->set(corner.config);
            corner.config.metrics = corner.config.metrics || axis.counters;
            corner.name += std::string("_") + last->label;
            corner.varied.push_back(&axis);
        }
        // A class with one invisible axis has its corner among the rows.
        if (corner.varied.size() > 1) out.push_back(std::move(corner));
    }
    return out;
}

/// Each class whose value on one class axis is not the default, against
/// the class with that axis at its default.
std::vector<Case> class_pairs() {
    std::vector<Case> out;
    for (const Case& cls : classes()) {
        for (const ClassAxis& axis : class_axes()) {
            if (!axis.applies(cls.config)) continue;
            Config base = cls.config;
            axis.values.front().set(base);
            if (base == cls.config) continue;
            out.push_back({cls.name + "__vs_" + axis.values.front().label,
                           cls.config, {}, base, axis.name});
        }
    }
    return out;
}

class IdentityRowTest : public ::testing::TestWithParam<Case> {};

TEST_P(IdentityRowTest, MatchesClassReference) {
    const Config& row = GetParam().config;
    const Config reference_config = reference_of(row);
    const Artifacts reference = run(reference_config);
    expect_class_liveness(reference_config, reference);
    const Artifacts actual = run(row);
    expect_class_liveness(row, actual);
    // A resumed hunt's blobs are checked against the reference's tail.
    expect_identical(actual, reference,
                     is_hunt(row) && row.resume == Resume::kNone);
    // A lot's checkpoint fingerprint ignores every invisible axis.
    EXPECT_EQ(actual.seen.lot_fingerprint, reference.seen.lot_fingerprint);
    for (const InvisibleAxis* axis : GetParam().varied) {
        SCOPED_TRACE(std::string("liveness of ") + axis->name);
        axis->live(row, actual, reference);
    }
}

INSTANTIATE_TEST_SUITE_P(Table, IdentityRowTest, ::testing::ValuesIn(rows()),
                         case_name);

class IdentityClassTest : public ::testing::TestWithParam<Case> {};

TEST_P(IdentityClassTest, ValueChangesResults) {
    const Case& pair = GetParam();
    const Artifacts value = run(pair.config);
    const Artifacts base = run(pair.base);
    expect_class_liveness(pair.config, value);
    expect_class_liveness(pair.base, base);
    if (pair.axis == "cache") {
        // The cache cuts live measurements; off, it is never consulted.
        EXPECT_GT(base.seen.cache_hits, 0u);
        EXPECT_EQ(value.seen.cache_lookups, 0u);
        EXPECT_LT(base.seen.applications, value.seen.applications);
        return;
    }
    const char* field = primary_field(pair.config);
    EXPECT_NE(value[field], base[field]) << field;
    if (pair.axis != "engine" || !is_lot(pair.config)) return;

    // The in-situ -> ring switch changes the measurement discipline and
    // is fingerprinted; a classic fingerprint does not mention replicas
    // at all, so pre-replica checkpoints stay valid.
    const std::string& classic = base.seen.lot_fingerprint;
    const std::string& replica = value.seen.lot_fingerprint;
    EXPECT_NE(classic, replica);
    EXPECT_EQ(classic.find("replica"), std::string::npos);
    // Replica sites learn on replicas too, so the replica token moved on:
    // a checkpoint from when they learned in situ must not resume.
    EXPECT_NE(replica.find(":replica=2"), std::string::npos);
    EXPECT_EQ(replica.find(":replica=1"), std::string::npos);
    lot::LotOptions resumed = lot_options(pair.config);
    resumed.checkpoint.resume_blob = core::encode_checkpoint(
        classic + ":replica=1", lot::encode_finished_sites({}));
    EXPECT_THROW((void)lot::LotRunner(resumed).run(), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Table, IdentityClassTest,
                         ::testing::ValuesIn(class_pairs()),
                         case_name);

// Named matrices: crossings of invisible values that the rows take one
// at a time, checked with the same runners against the class reference.

/// Runs `row` at each jobs x depth pair but the reference's own and
/// expects it byte-identical to the class reference.
void expect_matrix_identical(const Config& row,
                             std::initializer_list<std::size_t> jobs,
                             std::initializer_list<std::size_t> depths) {
    const Config reference_config = reference_of(row);
    const Artifacts reference = run(reference_config);
    expect_class_liveness(reference_config, reference);
    for (const std::size_t job : jobs) {
        for (const std::size_t depth : depths) {
            Config config = row;
            config.jobs = job;
            config.depth = depth;
            if (config == reference_config) continue;
            SCOPED_TRACE("jobs " + std::to_string(job) + " depth " +
                         std::to_string(depth));
            const Artifacts actual = run(config);
            expect_class_liveness(config, actual);
            expect_identical(actual, reference, !is_lot(config));
            if (is_hunt(config)) {
                EXPECT_EQ(actual.seen.inflight, depth);
            }
            for (const InvisibleAxis& axis : invisible_axes()) {
                const std::string name = axis.name;
                if ((name == "latency" && config.latency) ||
                    (name == "status" && config.status)) {
                    axis.live(config, actual, reference);
                }
            }
        }
    }
}

// An unseeded hunt never scores NN seeds, so jobs sizes nothing there.
TEST(AsyncHuntDeterminismTest, ByteIdenticalAcrossJobsAndInflight) {
    for (const Faults faults : {Faults::kOff, Faults::kModerate}) {
        expect_matrix_identical({.ring = true, .faults = faults}, {1},
                                {4, 16});
    }
}

TEST(AsyncHuntDeterminismTest,
     AnchoredHuntByteIdenticalAcrossJobsAndInflight) {
    for (const Faults faults : {Faults::kOff, Faults::kModerate}) {
        expect_matrix_identical(
            {.ring = true, .faults = faults, .anchored = true}, {1, 4},
            {1, 4, 16});
    }
}

TEST(AsyncHuntDeterminismTest, EmulatedLatencyDoesNotChangeResults) {
    expect_matrix_identical({.ring = true, .latency = true, .metrics = true},
                            {1}, {1, 8});
}

// Learning's jobs is learner.committee.jobs, the training pool.
TEST(LearnPipelineTest, UncertaintyAcquisitionIdenticalAcrossEngines) {
    expect_matrix_identical({.runner = Runner::kLearn,
                             .ring = true,
                             .acquisition = core::Acquisition::kUncertainty},
                            {1, 4}, {1, 4, 16});
}

TEST(ObsIdentityTest, LotReportIsByteIdenticalWithFeedOnParallel) {
    expect_matrix_identical({.runner = Runner::kLot, .status = true}, {4},
                            {1});
}

TEST(ParallelHuntTest, AnchoredReportByteIdenticalAtJobs148) {
    expect_matrix_identical({.ring = true, .anchored = true}, {4, 8}, {1});
}

}  // namespace
}  // namespace cichar::identity
