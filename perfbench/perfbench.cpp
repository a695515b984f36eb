// perfbench — the repository benchmark. Runs one named workload through
// the library's public API for a fixed measuring time, checks its
// outputs, and prints the results; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload campaign_cpu|campaign_ate|lot_faults
//             [--seed N|default|heldout] [--seconds S] [--trace 0|1]
//             [--work DIR]
//
// --trace 0 reports the end-to-end metrics with every instrument off.
// --trace 1 is a separate run that alternates plain and instrumented
// campaigns and reports the per-layer metrics: spans recorded here around
// each layer call (util::telemetry::Trace), the program's own spans and
// registry, a forwarding DUT, and timestamps from the progress hooks.
// README.md in this directory lists the workloads, metrics and the
// layer -> end-to-end predictions. run.py builds this program and runs it.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "ate/fault_injector.hpp"
#include "core/characterizer.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/spec_report.hpp"
#include "device/memory_chip.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"
#include "obs/status_board.hpp"
#include "obs/status_writer.hpp"
#include "store/ledger.hpp"
#include "store/ledger_payloads.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/trace_report.hpp"

namespace {

using namespace cichar;
namespace fs = std::filesystem;
namespace telem = util::telemetry;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t directory_bytes(const fs::path& dir) {
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->is_regular_file(ec)) bytes += it->file_size(ec);
    }
    return bytes;
}

// ---------------------------------------------------------------------
// Workloads. Campaign seeds: the run's seed itself, then splitmix64-derived
// seeds, so `--seed 2005` includes exactly the campaign `cichar hunt
// --seed 2005` runs.

enum class Kind : std::uint8_t { kHunt, kLot };

struct Workload {
    const char* name;
    Kind kind;
    std::uint64_t default_seed;
    std::uint64_t heldout_seed;  ///< reserved for later claims; never tuned on
    std::size_t seeds_per_run;   ///< distinct campaign seeds averaged per run
    // Hunt knobs (cichar hunt equivalents).
    bool parallel = false;
    std::size_t jobs = 1;
    std::size_t inflight = 1;
    double realtime_fraction = 0.0;
    bool artifacts = false;  ///< --checkpoint --ledger (--status for hunts)
};

constexpr std::size_t kLotSites = 32;

Workload campaign_cpu() {
    Workload w{"campaign_cpu", Kind::kHunt, 2005, 7, 24};
    w.artifacts = true;
    return w;
}

Workload campaign_ate() {
    Workload w{"campaign_ate", Kind::kHunt, 2005, 7, 24};
    w.parallel = true;
    w.jobs = 4;
    w.inflight = 16;
    w.realtime_fraction = 0.35;
    return w;
}

Workload lot_faults() {
    Workload w{"lot_faults", Kind::kLot, 2005, 7, 8};
    w.jobs = 4;
    w.inflight = 4;
    w.artifacts = true;
    return w;
}

/// The jobs = 1 blocking-replica configuration a replica-engine workload
/// must reproduce byte for byte (no latency emulation, no artifacts).
Workload blocking_reference(Workload w) {
    w.jobs = 1;
    w.inflight = 1;
    w.realtime_fraction = 0.0;
    w.artifacts = false;
    return w;
}

bool uses_replicas(const Workload& w) {
    return w.kind == Kind::kLot ? w.inflight > 0 : w.parallel;
}

std::vector<std::uint64_t> campaign_seeds(std::uint64_t seed, std::size_t count) {
    std::vector<std::uint64_t> seeds{seed};
    std::uint64_t state = seed;
    while (seeds.size() < count) {
        state += 0x9E3779B97F4A7C15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        seeds.push_back((z ^ (z >> 31)) % 1000000);
    }
    return seeds;
}

// ---------------------------------------------------------------------
// Forwarding DUT: counts and times every measurement the tester (or a
// replica cloned from it) applies. Clones come back wrapped, and
// clone_cold/reset_warm/save_state/load_state forward, so the serial,
// blocking and async engines keep their own paths.

struct DeviceCounters {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> busy_ns{0};
};

class ForwardingDut final : public device::DeviceUnderTest {
public:
    ForwardingDut(device::DeviceUnderTest& inner, DeviceCounters& counters)
        : inner_(&inner), counters_(&counters) {}
    ForwardingDut(std::unique_ptr<device::DeviceUnderTest> owned,
                  DeviceCounters& counters)
        : owned_(std::move(owned)), inner_(owned_.get()), counters_(&counters) {}

    bool passes(const testgen::Test& test, device::ParameterKind parameter,
                double setting) override {
        const Clock::time_point start = Clock::now();
        const bool pass = inner_->passes(test, parameter, setting);
        account(start);
        return pass;
    }
    device::FunctionalResult run_functional(const testgen::Test& test) override {
        const Clock::time_point start = Clock::now();
        device::FunctionalResult result = inner_->run_functional(test);
        account(start);
        return result;
    }
    void settle() override { inner_->settle(); }
    std::unique_ptr<device::DeviceUnderTest> clone_cold(
        std::uint64_t noise_seed) const override {
        std::unique_ptr<device::DeviceUnderTest> clone = inner_->clone_cold(noise_seed);
        if (clone == nullptr) return nullptr;
        return std::make_unique<ForwardingDut>(std::move(clone), *counters_);
    }
    bool reset_warm(std::uint64_t noise_seed) override {
        return inner_->reset_warm(noise_seed);
    }
    bool save_state(std::string& out) const override { return inner_->save_state(out); }
    bool load_state(util::ByteReader& in) override { return inner_->load_state(in); }

private:
    void account(Clock::time_point start) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - start)
                            .count();
        counters_->calls.fetch_add(1, std::memory_order_relaxed);
        counters_->busy_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                     std::memory_order_relaxed);
    }

    std::unique_ptr<device::DeviceUnderTest> owned_;
    device::DeviceUnderTest* inner_;
    DeviceCounters* counters_;
};

// ---------------------------------------------------------------------
// Ledger records, keyed exactly as `cichar hunt/lot --ledger` keys them
// (docs/FORMATS.md): begin 0, trip site*65536+parameter, worst-case entry
// by rank, summaries by name-sorted phase, end UINT64_MAX.

constexpr std::uint64_t kLedgerSiteStride = 65536;
constexpr std::uint64_t kLedgerEndSequence = ~0ULL;

/// Opens (creating) the campaign ledger. Its first segment header is a
/// durable write, so the campaign, not its set-up, pays for it.
void open_ledger(std::optional<store::Ledger>& ledger, const fs::path& dir) {
    const telem::SpanScope span("bench.ledger_open");
    ledger.emplace(store::Ledger::open({(dir / "ledger").string()}));
}

void ledger_add_begin(store::Ledger& ledger, std::uint64_t campaign,
                      const std::string& fingerprint, std::uint64_t seed) {
    ledger.append_if_absent({store::RecordType::kCampaignBegin, campaign, 0,
                             store::encode_campaign_begin({fingerprint, seed})});
}

void ledger_add_summaries(store::Ledger& ledger, std::uint64_t campaign,
                          const ate::MeasurementLog& log) {
    const std::vector<std::string> phases = log.phases();
    for (std::size_t i = 0; i < phases.size(); ++i) {
        ledger.append_if_absent(
            {store::RecordType::kMeasurementSummary, campaign, i,
             store::encode_measurement_summary(
                 {phases[i], log.phase_counters(phases[i])})});
    }
}

void ledger_add_end(store::Ledger& ledger, std::uint64_t campaign) {
    if (ledger.contains(campaign, store::RecordType::kCampaignEnd,
                        kLedgerEndSequence)) {
        return;
    }
    ledger.append({store::RecordType::kCampaignEnd, campaign, kLedgerEndSequence,
                   store::encode_campaign_end({ledger.campaign_records(campaign)})});
}

void ledger_add_sites(store::Ledger& ledger, std::uint64_t campaign,
                      const std::vector<lot::SiteResult>& sites) {
    for (const lot::SiteResult& site : sites) {
        if (!site.finished()) continue;
        for (std::size_t p = 0; p < site.outcomes.size(); ++p) {
            store::TripRecordPayload payload;
            payload.site = site.site;
            payload.parameter = site.outcomes[p].parameter.name;
            payload.margin_risk = site.outcomes[p].margin_risk;
            payload.record = site.outcomes[p].worst;
            ledger.append_if_absent({store::RecordType::kTripRecord, campaign,
                                     site.site * kLedgerSiteStride + p,
                                     store::encode_trip_record(payload)});
        }
    }
}

// ---------------------------------------------------------------------
// One campaign (a hunt, or a whole lot) and what it produced.

struct Instruments {
    bool trace = false;                ///< spans, registry, hook timestamps
    DeviceCounters* device = nullptr;  ///< wrap the DUT when set (hunts)
    bool digest_checkpoints = false;   ///< checksum every checkpoint blob
};

struct Outcome {
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t ate_applications = 0;
    double tester_s = 0.0;
    double worst_wcr = 0.0;
    std::size_t units = 1;  ///< campaigns (1) or lot sites attempted
    std::size_t failed_units = 0;
    std::uint64_t digest = 0;       ///< checksum64 of the rendered report
    std::uint64_t ckpt_digest = 0;  ///< chained checksum of checkpoint blobs
    // Raw layer data.
    ate::MeasurementLog log;
    std::uint64_t generations = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t hunts = 1;
    core::TripCacheStats cache{};
    core::ReplicaSlabStats slab{};
    std::uint64_t policy_retries = 0;
    std::uint64_t policy_unrecovered = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t sites_no_trip = 0;  ///< completed lot sites without a trip point
    std::vector<double> gen_s;       ///< wall between successive generation ends
    std::vector<double> done_marks;  ///< lot site completions, s since start
    std::size_t pool_jobs = 1;
    std::uint64_t ckpt_writes = 0;
    std::uint64_t ckpt_bytes = 0;
    std::uint64_t ledger_bytes = 0;
    std::uint64_t status_snapshots = 0;
};

/// Paper-shape check of one worst-case record: found, positive WCR, and
/// classified by the Fig. 6 thresholds.
bool worst_case_ok(const core::TripPointRecord& worst) {
    return worst.found && std::isfinite(worst.wcr) && worst.wcr > 0.0 &&
           worst.wcr_class == ga::classify(worst.wcr, ga::WcrThresholds{});
}

core::CharacterizerOptions base_options() {
    core::CharacterizerOptions options;
    options.generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    return options;
}

/// Wall time between successive generation ends, from a progress hook.
/// The first end only starts the clock: before it lie learning, seeding
/// and the initial population.
class GenerationClock {
public:
    void tick(std::size_t next_generation, std::vector<double>& out) {
        const Clock::time_point now = Clock::now();
        if (next_generation > 1) out.push_back(seconds_between(last_, now));
        last_ = now;
    }

private:
    Clock::time_point last_{};
};

/// The canonical T_DQ campaign: learn -> NN seeding -> GA hunt -> final
/// re-measure -> spec proposal, wired like `cichar hunt` (artifacts like
/// --checkpoint --ledger --status when the workload asks for them).
Outcome run_hunt(const Workload& w, std::uint64_t seed, const fs::path& dir,
                 const Instruments& in) {
    Outcome out;
    const Clock::time_point setup_start = Clock::now();
    device::MemoryTestChip chip;
    std::optional<ForwardingDut> forwarding;
    if (in.device != nullptr) forwarding.emplace(chip, *in.device);
    device::DeviceUnderTest& dut =
        forwarding ? static_cast<device::DeviceUnderTest&>(*forwarding) : chip;
    ate::TesterOptions tester_options;
    tester_options.realtime_fraction = w.realtime_fraction;
    ate::Tester tester(dut, tester_options);

    core::CharacterizerOptions options = base_options();
    options.optimizer.ga.max_generations = 40;
    options.optimizer.ga.populations = 4;
    options.learner.committee.jobs = w.jobs;
    options.optimizer.parallel.enabled = w.parallel;
    options.optimizer.parallel.jobs = w.jobs;
    options.optimizer.parallel.inflight = w.inflight;
    options.optimizer.nn_score_batch = 64;
    options.optimizer.cache.enabled = true;
    const ate::FaultProfile no_faults = ate::FaultProfile::none();
    std::ostringstream fp;
    fp << "hunt:seed=" << seed << ":coding=fuzzy:generations=40:populations=4"
       << ":parallel=" << (w.parallel ? 1 : 0) << ":cache=1"
       << ":faults=" << no_faults.describe() << ":policy=0";
    const std::string fingerprint = fp.str();

    std::optional<store::Ledger> ledger;
    std::unique_ptr<obs::StatusWriter> status;
    std::atomic<std::uint64_t> snapshots{0};
    if (w.artifacts) {
        fs::create_directories(dir);
        obs::set_status_enabled(true);
        obs::StatusWriterOptions status_options;
        status_options.directory = (dir / "status").string();
        status_options.name = "hunt";
        status_options.interval_seconds = 1.0;
        status_options.on_tick = [&snapshots] { snapshots.fetch_add(1); };
        status = std::make_unique<obs::StatusWriter>(std::move(status_options));
        obs::StatusBoard::instance().begin_campaign("hunt", fingerprint, seed, 1);
        obs::StatusBoard::instance().begin_site(0);
    }
    GenerationClock generation_clock;
    if (status || in.trace) {
        options.optimizer.on_generation = [&](const core::HuntProgress& progress) {
            if (in.trace) generation_clock.tick(progress.next_generation, out.gen_s);
            if (!status) return;
            const telem::SpanScope span("bench.status_post");
            obs::GenerationPost post;
            post.generation = progress.next_generation;
            post.generations_total = progress.max_generations;
            post.evaluations = progress.evaluations;
            post.best_wcr = progress.best_fitness;
            post.ate_applications = progress.ate_applications;
            post.cache_hits = progress.cache.hits;
            post.cache_misses = progress.cache.misses;
            post.inflight = progress.inflight;
            obs::StatusBoard::instance().post_generation(0, post);
        };
    }
    const std::string checkpoint_path = (dir / "hunt.ckpt").string();
    if (w.artifacts || in.digest_checkpoints) {
        options.optimizer.checkpoint.save = [&](const std::string& blob) {
            if (in.digest_checkpoints) {
                out.ckpt_digest = util::checksum64(
                    std::to_string(out.ckpt_digest) + ":" +
                    std::to_string(util::checksum64(blob)));
            }
            if (!w.artifacts) return;
            const telem::SpanScope span("bench.ckpt_write");
            if (!core::write_checkpoint_file(checkpoint_path, fingerprint, blob)) {
                throw std::runtime_error("cannot write checkpoint " + checkpoint_path);
            }
            ++out.ckpt_writes;
            out.ckpt_bytes += blob.size();
        };
    }
    const ate::Parameter param = ate::Parameter::data_valid_time();
    out.setup_s = seconds_between(setup_start, Clock::now());

    // ---- the campaign (timed) ----
    const double cpu_start = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    if (w.artifacts) open_ledger(ledger, dir);
    util::Rng rng(seed);
    const core::DeviceCharacterizer characterizer(tester, param, options);
    const core::LearnResult learned = [&] {
        const telem::SpanScope span("bench.learn");
        return characterizer.learn(rng);
    }();
    const core::WorstCaseReport report = [&] {
        const telem::SpanScope span("bench.optimize");
        return characterizer.optimize(learned.model, rng);
    }();
    std::optional<core::SpecProposal> proposal;
    {
        const telem::SpanScope span("bench.spec_proposal");
        core::DesignSpecVariation pooled = learned.dsv;
        if (report.worst_record.found) pooled.add(report.worst_record);
        if (pooled.found_count() > 0) proposal = core::propose_spec(param, pooled);
    }
    if (status) {
        const telem::SpanScope span("bench.status_stop");
        std::vector<obs::SiteOutcomeEntry> outcomes(1);
        outcomes[0].parameter = param.name;
        outcomes[0].found = report.worst_record.found;
        outcomes[0].trip_point = report.worst_record.trip_point;
        outcomes[0].wcr = report.worst_record.wcr;
        obs::StatusBoard::instance().site_finished(
            0, obs::SitePhase::kDone, std::move(outcomes),
            seconds_between(start, Clock::now()),
            report.faults.retried_measurements, report.faults.interventions());
        status->stop();
    }
    if (ledger) {
        const telem::SpanScope span("bench.ledger_commit");
        const std::uint64_t campaign = util::checksum64(fingerprint);
        ledger_add_begin(*ledger, campaign, fingerprint, seed);
        if (report.worst_record.found) {
            store::TripRecordPayload trip;
            trip.parameter = param.name;
            trip.record = report.worst_record;
            ledger->append_if_absent({store::RecordType::kTripRecord, campaign, 0,
                                      store::encode_trip_record(trip)});
        }
        const std::vector<core::WorstCaseEntry>& entries = report.database.entries();
        for (std::size_t i = 0; i < entries.size(); ++i) {
            ledger->append_if_absent({store::RecordType::kWorstCaseEntry, campaign, i,
                                      store::encode_worst_case_entry({entries[i]})});
        }
        ledger_add_summaries(*ledger, campaign, tester.log());
        ledger_add_end(*ledger, campaign);
        ledger->commit();
    }
    out.wall_s = seconds_between(start, Clock::now());
    out.cpu_s = process_cpu_seconds() - cpu_start;
    if (status) obs::set_status_enabled(false);

    // ---- output check and raw layer data (untimed) ----
    core::ReportInputs inputs;
    inputs.seed = seed;
    inputs.learned = &learned;
    inputs.hunt = &report;
    inputs.proposal = proposal ? &*proposal : nullptr;
    inputs.ledger = &tester.log();
    out.digest = util::checksum64(core::render_report(inputs));
    out.failed_units =
        worst_case_ok(report.worst_record) && !report.aborted && proposal ? 0 : 1;
    out.log = tester.log();
    out.ate_applications = tester.log().total().applications;
    out.tester_s = tester.log().total().tester_seconds;
    out.worst_wcr = report.worst_record.wcr;
    out.generations = report.outcome.generations_run;
    out.evaluations = report.outcome.evaluations;
    out.cache = report.cache_stats;
    out.slab = report.slab;
    out.status_snapshots = snapshots.load();
    if (ledger) out.ledger_bytes = directory_bytes(dir / "ledger");
    return out;
}

/// A multi-site lot wired like `cichar lot --fault-profile moderate
/// --checkpoint --ledger` (policy on with its quarantine limit).
Outcome run_lot(const Workload& w, std::uint64_t seed, const fs::path& dir,
                const Instruments& in) {
    Outcome out;
    const Clock::time_point setup_start = Clock::now();
    lot::LotOptions options;
    options.sites = kLotSites;
    options.jobs = w.jobs;
    options.inflight = w.inflight;
    options.seed = seed;
    options.characterizer = base_options();
    options.characterizer.learner.training_tests = 80;
    options.characterizer.optimizer.ga.max_generations = 15;
    options.characterizer.optimizer.ga.populations = 2;
    options.faults = ate::FaultProfile::moderate();
    options.policy.enabled = true;
    options.policy.quarantine_after = 8;
    const std::string fingerprint = lot::LotRunner(options).fingerprint();
    const std::uint64_t campaign = util::checksum64(fingerprint);
    std::optional<store::Ledger> ledger;
    const std::string checkpoint_path = (dir / "lot.ckpt").string();
    if (w.artifacts) {
        fs::create_directories(dir);
        options.checkpoint.save = [&](const std::string& blob) {
            // The runner serializes sink calls under its checkpoint mutex.
            {
                const telem::SpanScope span("bench.ckpt_write");
                if (!util::atomic_write_file(checkpoint_path, blob)) {
                    throw std::runtime_error("cannot write checkpoint " +
                                             checkpoint_path);
                }
                ++out.ckpt_writes;
                out.ckpt_bytes += blob.size();
            }
            const telem::SpanScope span("bench.ledger_commit");
            std::string payload;
            if (!core::decode_checkpoint(blob, fingerprint, payload)) {
                throw std::runtime_error("lot checkpoint does not decode");
            }
            ledger_add_sites(*ledger, campaign, lot::decode_finished_sites(payload));
            ledger->commit();
        };
    }
    std::mutex marks_mutex;
    Clock::time_point start{};
    std::vector<GenerationClock> site_clocks(kLotSites);
    if (in.trace) {
        options.on_progress = [&](std::size_t, std::size_t) {
            const std::lock_guard<std::mutex> lock(marks_mutex);
            out.done_marks.push_back(seconds_between(start, Clock::now()));
        };
        options.on_generation = [&](std::size_t site, const core::HuntProgress& p) {
            const std::lock_guard<std::mutex> lock(marks_mutex);
            site_clocks[site].tick(p.next_generation, out.gen_s);
        };
    }
    const lot::LotRunner runner(options);
    out.setup_s = seconds_between(setup_start, Clock::now());

    // ---- the lot (timed) ----
    const double cpu_start = process_cpu_seconds();
    start = Clock::now();
    if (w.artifacts) {
        open_ledger(ledger, dir);
        const telem::SpanScope span("bench.ledger_commit");
        ledger_add_begin(*ledger, campaign, fingerprint, seed);
        ledger->commit();
    }
    const lot::LotResult result = [&] {
        const telem::SpanScope span("bench.lot_run");
        return runner.run();
    }();
    if (ledger) {
        const telem::SpanScope span("bench.ledger_commit");
        ledger_add_sites(*ledger, campaign, result.sites);
        ledger_add_summaries(*ledger, campaign, result.merged_log);
        ledger_add_end(*ledger, campaign);
        ledger->commit();
    }
    out.wall_s = seconds_between(start, Clock::now());
    out.cpu_s = process_cpu_seconds() - cpu_start;

    // ---- output check and raw layer data (untimed) ----
    out.units = kLotSites;
    out.digest = util::checksum64(lot::LotReport::build(result).render());
    out.failed_units = kLotSites - result.finished_sites();
    out.log = result.merged_log;
    out.ate_applications = result.merged_log.total().applications;
    out.tester_s = result.merged_log.total().tester_seconds;
    out.hunts = 0;
    out.pool_jobs = w.jobs;
    for (const lot::SiteResult& site : result.sites) {
        // A dead or quarantined site fails. A completed site whose final
        // re-measure the policy abandoned under injected faults reports
        // no trip point by design; it is counted, not failed.
        bool ok = site.status == lot::SiteStatus::kCompleted && !site.outcomes.empty();
        for (const lot::SiteParameterOutcome& o : site.outcomes) {
            if (!o.worst.found) {
                ++out.sites_no_trip;
                continue;
            }
            ok = ok && worst_case_ok(o.worst);
            out.worst_wcr = std::max(out.worst_wcr, o.worst.wcr);
        }
        if (site.finished() && !ok) {
            ++out.failed_units;
            std::printf("lot seed %llu: site %zu failed (status %s)\n",
                        static_cast<unsigned long long>(seed), site.site,
                        lot::to_string(site.status));
        }
        for (const core::ParameterCampaign& c : site.campaigns) {
            ++out.hunts;
            out.generations += c.report.outcome.generations_run;
            out.evaluations += c.report.outcome.evaluations;
            out.cache.hits += c.report.cache_stats.hits;
            out.cache.misses += c.report.cache_stats.misses;
            out.slab.recycles += c.report.slab.recycles;
            out.slab.cold_clones += c.report.slab.cold_clones;
            out.slab.misses += c.report.slab.misses;
        }
        out.policy_retries += site.faults.retried_measurements;
        out.policy_unrecovered += site.faults.unrecovered_trips;
        out.faults_injected += site.injected.injected();
    }
    if (out.worst_wcr <= 0.0) out.failed_units = out.units;  // no lot worst case
    if (ledger) out.ledger_bytes = directory_bytes(dir / "ledger");
    return out;
}

Outcome run_campaign(const Workload& w, std::uint64_t seed, const fs::path& dir,
                     const Instruments& in) {
    Outcome out = w.kind == Kind::kHunt ? run_hunt(w, seed, dir, in)
                                        : run_lot(w, seed, dir, in);
    std::error_code ec;
    fs::remove_all(dir, ec);
    return out;
}

// ---------------------------------------------------------------------
// Trace analysis: span self times (duration minus same-thread children)
// per span name, plus how much of the campaign the top-level spans on
// the campaign thread cover.

struct SpanTotals {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double campaign_self_s = 0.0;  ///< the part of self_s on the campaign thread
    bool on_campaign = false;
    bool on_worker = false;

    void add(const SpanTotals& other) {
        calls += other.calls;
        total_s += other.total_s;
        self_s += other.self_s;
        campaign_self_s += other.campaign_self_s;
        on_campaign = on_campaign || other.on_campaign;
        on_worker = on_worker || other.on_worker;
    }
};

double span_seconds(const util::TraceSpan& span) {
    return 1e-9 * static_cast<double>(span.duration_ns());
}

struct TraceSummary {
    std::vector<util::TraceSpan> spans;
    std::map<std::string, SpanTotals> by_name;
    double root_s = 0.0;  ///< top-level spans on the campaign thread

    /// Seconds of every closed span named `name`.
    [[nodiscard]] std::vector<double> durations(const std::string& name) const {
        std::vector<double> out;
        for (const util::TraceSpan& s : spans) {
            if (s.closed && s.name == name) out.push_back(span_seconds(s));
        }
        return out;
    }
};

/// Drains the process trace buffer. `root` names the span that marks the
/// campaign thread.
TraceSummary drain_trace(const std::string& root) {
    std::stringstream buffer;
    telem::Trace::instance().write_jsonl(buffer);
    telem::Trace::instance().clear();
    TraceSummary summary;
    summary.spans = util::parse_trace_jsonl(buffer).spans;
    std::uint32_t campaign_tid = 0;
    bool have_tid = false;
    std::map<std::uint64_t, double> child_s;
    for (const util::TraceSpan& s : summary.spans) {
        if (!s.closed) continue;
        if (!have_tid && s.name == root) {
            campaign_tid = s.tid;
            have_tid = true;
        }
        if (s.parent != 0) child_s[s.parent] += span_seconds(s);
    }
    for (const util::TraceSpan& s : summary.spans) {
        if (!s.closed) continue;
        const double dur = span_seconds(s);
        const auto child = child_s.find(s.id);
        const double self = dur - (child == child_s.end() ? 0.0 : child->second);
        const bool on_campaign = have_tid && s.tid == campaign_tid;
        SpanTotals span;
        span.calls = 1;
        span.total_s = dur;
        span.self_s = self;
        span.campaign_self_s = on_campaign ? self : 0.0;
        span.on_campaign = on_campaign;
        span.on_worker = !on_campaign;
        summary.by_name[s.name].add(span);
        if (on_campaign && s.parent == 0) summary.root_s += dur;
    }
    return summary;
}

/// p50 of a registry histogram, linear within the bucket that holds it.
double histogram_p50(const telem::Histogram::Snapshot& h) {
    if (h.count == 0) return 0.0;
    const double target = 0.5 * static_cast<double>(h.count);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        const double next = cumulative + static_cast<double>(h.counts[i]);
        if (next >= target && h.counts[i] > 0) {
            const double lo = i == 0 ? 0.0 : h.upper_bounds[i - 1];
            const double hi = i < h.upper_bounds.size() ? h.upper_bounds[i] : lo;
            const double bucket = static_cast<double>(h.counts[i]);
            return lo + (hi - lo) * (target - cumulative) / bucket;
        }
        cumulative = next;
    }
    return h.upper_bounds.empty() ? 0.0 : h.upper_bounds.back();
}

// ---------------------------------------------------------------------
// Metric catalogue: name, unit. Order is print order.

struct MetricDef {
    const char* name;
    const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"campaign_s", "s"},   {"campaign_cpu_s", "s"},
    {"ate_applications", "count"}, {"tester_s", "s"}, {"worst_wcr", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"learn.s", "s"},
    {"learn.ate_applications", "count"},
    {"learn.tester_s", "s"},
    {"nn.seed_s", "s"},
    {"nn.candidates_per_s", "1/s"},
    {"ga.generations", "count"},
    {"ga.evaluations", "count"},
    {"ga.gen_s.p50", "s"},
    {"ga.gen_s.p90", "s"},
    {"ate.apps_per_eval", "count"},
    {"ate.ga_tester_s", "s"},
    {"search.window_hit_frac", "frac"},
    {"async.queue_wait_us.p50", "us"},
    {"async.reordered", "count"},
    {"device.calls", "count"},
    {"device.busy_s", "s"},
    {"device.ns_per_call", "ns"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_frac", "frac"},
    {"slab.recycles", "count"},
    {"slab.cold_clones", "count"},
    {"slab.misses", "count"},
    {"policy.retries", "count"},
    {"policy.unrecovered", "count"},
    {"policy.retry_frac", "frac"},
    {"faults.injected", "count"},
    {"lot.sites_no_trip", "count"},
    {"lot.site_s.p50", "s"},
    {"lot.site_s.max", "s"},
    {"lot.imbalance", "frac"},
    {"pool.busy_frac", "frac"},
    {"ckpt.writes", "count"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.write_s", "s"},
    {"ledger.commits", "count"},
    {"ledger.bytes", "bytes"},
    {"ledger.commit_s", "s"},
    {"status.posts", "count"},
    {"status.post_s", "s"},
    {"status.snapshots", "count"},
    {"trace.attributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

using Values = std::map<std::string, double>;

/// Per-layer values of one instrumented campaign (overhead is filled in
/// by the caller; gen_s quantiles are pooled across campaigns).
Values layer_values(const Outcome& o, const TraceSummary& t,
                    const DeviceCounters& device) {
    telem::Registry& registry = telem::Registry::instance();
    const auto span_total = [&](const char* name) {
        const auto it = t.by_name.find(name);
        return it == t.by_name.end() ? 0.0 : it->second.total_s;
    };
    const auto span_calls = [&](const char* name) {
        const auto it = t.by_name.find(name);
        return it == t.by_name.end() ? 0.0 : static_cast<double>(it->second.calls);
    };
    const auto counter = [&](const char* name) {
        return static_cast<double>(registry.counter(name).value());
    };
    Values v;
    const ate::PhaseCounters learning = o.log.phase_counters("learning");
    const ate::PhaseCounters ga = o.log.phase_counters("ga-optimization");
    v["learn.s"] = span_total("bench.learn");
    v["learn.ate_applications"] = static_cast<double>(learning.applications);
    v["learn.tester_s"] = learning.tester_seconds;
    const double seeding_s = span_total("hunt.nn_seeding");
    v["nn.seed_s"] = ratio(seeding_s, static_cast<double>(o.hunts));
    v["nn.candidates_per_s"] =
        ratio(counter("cichar_nn_candidates_scored_total"), seeding_s);
    v["ga.generations"] = static_cast<double>(o.generations);
    v["ga.evaluations"] = static_cast<double>(o.evaluations);
    v["ate.apps_per_eval"] = ratio(static_cast<double>(ga.applications),
                                   static_cast<double>(o.evaluations));
    v["ate.ga_tester_s"] = ga.tester_seconds;
    const double window_hits = counter("cichar_search_window_hits_total");
    v["search.window_hit_frac"] = ratio(
        window_hits, window_hits + counter("cichar_search_full_fallbacks_total"));
    static constexpr double kWaitBounds[] = {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
    v["async.queue_wait_us.p50"] =
        1e-3 * histogram_p50(
                   registry.histogram("cichar_ate_async_queue_wait_ns", kWaitBounds)
                       .snapshot());
    v["async.reordered"] = counter("cichar_ate_async_completions_reordered_total");
    const double calls = static_cast<double>(device.calls.load());
    const double busy_ns = static_cast<double>(device.busy_ns.load());
    v["device.calls"] = calls;
    v["device.busy_s"] = 1e-9 * busy_ns;
    v["device.ns_per_call"] = ratio(busy_ns, calls);
    v["cache.hits"] = static_cast<double>(o.cache.hits);
    v["cache.misses"] = static_cast<double>(o.cache.misses);
    v["cache.hit_frac"] = o.cache.hit_rate();
    v["slab.recycles"] = static_cast<double>(o.slab.recycles);
    v["slab.cold_clones"] = static_cast<double>(o.slab.cold_clones);
    v["slab.misses"] = static_cast<double>(o.slab.misses);
    v["policy.retries"] = static_cast<double>(o.policy_retries);
    v["policy.unrecovered"] = static_cast<double>(o.policy_unrecovered);
    v["policy.retry_frac"] = ratio(static_cast<double>(o.policy_retries),
                                   static_cast<double>(o.ate_applications));
    v["faults.injected"] = static_cast<double>(o.faults_injected);
    v["lot.sites_no_trip"] = static_cast<double>(o.sites_no_trip);
    const std::vector<double> sites = t.durations("lot.site");
    v["lot.site_s.p50"] = median(sites);
    v["lot.site_s.max"] = quantile(sites, 1.0);
    // Share of the lot's wall clock after the first worker ran out of
    // queued sites: the slowest sites' tail.
    if (o.done_marks.size() > o.pool_jobs) {
        std::vector<double> marks = o.done_marks;
        std::sort(marks.begin(), marks.end());
        v["lot.imbalance"] =
            ratio(marks.back() - marks[marks.size() - o.pool_jobs], o.wall_s);
    } else {
        v["lot.imbalance"] = 0.0;
    }
    v["pool.busy_frac"] =
        o.done_marks.empty()
            ? 0.0
            : ratio(registry.gauge("cichar_pool_busy_seconds_total").value(),
                    static_cast<double>(o.pool_jobs) * o.wall_s);
    v["ckpt.writes"] = static_cast<double>(o.ckpt_writes);
    v["ckpt.bytes"] = static_cast<double>(o.ckpt_bytes);
    v["ckpt.write_s"] = span_total("bench.ckpt_write");
    v["ledger.commits"] = span_calls("bench.ledger_commit");
    v["ledger.bytes"] = static_cast<double>(o.ledger_bytes);
    v["ledger.commit_s"] =
        span_total("bench.ledger_open") + span_total("bench.ledger_commit");
    v["status.posts"] = span_calls("bench.status_post");
    v["status.post_s"] = span_total("bench.status_post");
    v["status.snapshots"] = static_cast<double>(o.status_snapshots);
    v["trace.attributed_frac"] = ratio(t.root_s, o.wall_s);
    return v;
}

// ---------------------------------------------------------------------
// Output.

std::string json_number(double value) {
    if (!std::isfinite(value)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.15g", value);
    return buf;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

void print_host(const Workload& w, std::uint64_t seed, const char* seed_kind,
                bool trace) {
    const std::string build = PERFBENCH_BUILD_TYPE;
    std::printf("{\"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"latency_fraction\": %s, "
                "\"workload\": \"%s\", \"seed\": %llu, \"seed_kind\": \"%s\", "
                "\"default_seed\": %llu, \"heldout_seed\": %llu, \"trace\": %d}}\n",
                std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
                json_escape(kCompiler).c_str(), build.c_str(),
                json_number(w.realtime_fraction).c_str(), w.name,
                static_cast<unsigned long long>(seed), seed_kind,
                static_cast<unsigned long long>(w.default_seed),
                static_cast<unsigned long long>(w.heldout_seed), trace ? 1 : 0);
    if (build != "Release") {
        std::printf("WARNING: %s build; timings are not comparable to Release\n",
                    build.c_str());
    }
}

void print_self_time_table(const std::string& workload,
                           const std::map<std::string, SpanTotals>& totals,
                           std::size_t campaigns, double campaign_s) {
    std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(), totals.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.self_s > b.second.self_s;
    });
    const double n = static_cast<double>(std::max<std::size_t>(1, campaigns));
    std::printf("\nper-layer self time, %s (per campaign, mean of %zu traced; "
                "mean campaign_s %.4f s; share = campaign-thread self time / "
                "campaign_s)\n",
                workload.c_str(), campaigns, campaign_s);
    std::printf("  %-26s %-9s %10s %11s %11s %8s\n", "span", "thread", "calls",
                "total_s", "self_s", "share");
    for (const auto& [name, t] : rows) {
        const char* thread =
            t.on_campaign ? (t.on_worker ? "both" : "campaign") : "worker";
        std::printf("  %-26s %-9s %10.1f %11.5f %11.5f %7.2f%%\n", name.c_str(),
                    thread, static_cast<double>(t.calls) / n, t.total_s / n,
                    t.self_s / n, 100.0 * ratio(t.campaign_self_s / n, campaign_s));
    }
}

struct Result {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::pair<MetricDef, double>> metrics;
};

void print_result(const Result& r) {
    std::printf("\n");
    for (const auto& [def, value] : r.metrics) {
        std::printf("  %-26s %16s %s\n", def.name, json_number(value).c_str(),
                    def.unit);
    }
    std::printf("  %-26s %16s %s\n", "failed_frac",
                json_number(ratio(static_cast<double>(r.failed),
                                  static_cast<double>(r.attempted)))
                    .c_str(),
                "frac");
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        if (i > 0) json += ", ";
        json += "\"" + std::string(r.metrics[i].first.name) + "\": {\"value\": " +
                json_number(r.metrics[i].second) + ", \"unit\": \"" +
                r.metrics[i].first.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

// ---------------------------------------------------------------------
// Runs.

/// Output checks shared by both modes: every campaign of one seed renders
/// the same report (and, for replica engines, the jobs = 1 blocking one).
class DigestBook {
public:
    /// Records the first digest of a seed; returns whether `digest` agrees.
    bool check(std::uint64_t seed, std::uint64_t digest) {
        const auto [it, inserted] = expected_.emplace(seed, digest);
        return inserted || it->second == digest;
    }

private:
    std::map<std::uint64_t, std::uint64_t> expected_;
};

/// Attempted and failed units (campaigns or lot sites). A unit fails its
/// paper-shape check or, with every unit of its campaign, a digest check;
/// digest mismatches alone make the run's outputs incorrect.
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;

    void add(const Outcome& o, bool digest_ok) {
        attempted += o.units;
        failed += digest_ok ? o.failed_units : o.units;
        if (!digest_ok) ++mismatches;
    }
};

/// Records the jobs = 1 blocking-replica reference of `seed` (untimed;
/// once per invocation).
void record_reference(const Workload& w, std::uint64_t seed, const fs::path& work,
                      DigestBook& book) {
    if (!uses_replicas(w)) return;
    const Clock::time_point start = Clock::now();
    (void)book.check(seed,
                     run_campaign(blocking_reference(w), seed, work / "reference", {})
                         .digest);
    std::printf("jobs = 1 blocking reference of seed %llu: %.1f s\n",
                static_cast<unsigned long long>(seed),
                seconds_between(start, Clock::now()));
}

/// Cycles through the run's campaign seeds until `seconds` have passed
/// and every seed ran at least once. Times are per-seed medians averaged
/// over the seeds; counts and WCR are averaged over the seeds.
Result run_timed(const Workload& w, const std::vector<std::uint64_t>& seeds,
                 double seconds, const fs::path& work) {
    DigestBook book;
    Tally tally;
    record_reference(w, seeds[0], work, book);
    if (!uses_replicas(w)) {
        // Warm-up (untimed, still checked); a replica workload's reference
        // run already warmed the process.
        const Outcome o = run_campaign(w, seeds[0], work / "warmup", {});
        tally.add(o, book.check(seeds[0], o.digest));
    }
    std::vector<double> setup;
    std::vector<std::vector<double>> wall(seeds.size()), cpu(seeds.size());
    std::vector<Outcome> first(seeds.size());
    const Clock::time_point start = Clock::now();
    std::size_t campaign = 0;
    while (campaign < seeds.size() || seconds_between(start, Clock::now()) < seconds) {
        const std::size_t j = campaign % seeds.size();
        const fs::path dir = work / ("c" + std::to_string(campaign++));
        Outcome o = run_campaign(w, seeds[j], dir, {});
        tally.add(o, book.check(seeds[j], o.digest));
        setup.push_back(o.setup_s);
        wall[j].push_back(o.wall_s);
        cpu[j].push_back(o.cpu_s);
        if (wall[j].size() == 1) first[j] = std::move(o);
    }
    const double measured_s = seconds_between(start, Clock::now());

    std::vector<double> wall_m, cpu_m, apps, tester, wcr;
    for (std::size_t j = 0; j < seeds.size(); ++j) {
        wall_m.push_back(median(wall[j]));
        cpu_m.push_back(median(cpu[j]));
        apps.push_back(static_cast<double>(first[j].ate_applications));
        tester.push_back(first[j].tester_s);
        wcr.push_back(first[j].worst_wcr);
    }
    const double values[] = {median(setup), mean(wall_m), mean(cpu_m), mean(apps),
                             mean(tester), mean(wcr), peak_rss_mb()};
    Result r;
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    r.correct = tally.mismatches == 0;
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
        r.metrics.emplace_back(kEndToEnd[i], values[i]);
    }
    std::printf("timed campaigns: %zu over %zu seeds, %.1f s measured\n", campaign,
                seeds.size(), measured_s);
    std::printf("campaign_s per seed (median of its runs):");
    for (const double s : wall_m) std::printf(" %.3f", s);
    std::printf("\n");
    return r;
}

void enable_instruments(bool on) {
    telem::set_tracing_enabled(on);
    telem::set_metrics_enabled(on);
    telem::Trace::instance().clear();
    telem::Registry::instance().reset_values();
}

/// Forwarding-DUT transparency: a plain and a wrapped campaign must agree
/// on the report, every checkpoint byte, and the slab counters.
bool transparency_check(const Workload& w, std::uint64_t seed, const fs::path& work) {
    DeviceCounters counters;
    Instruments plain;
    plain.digest_checkpoints = true;
    Instruments wrapped = plain;
    wrapped.device = &counters;
    const Outcome a = run_campaign(w, seed, work / "plain", plain);
    const Outcome b = run_campaign(w, seed, work / "wrapped", wrapped);
    const bool ok = a.digest == b.digest && a.ckpt_digest == b.ckpt_digest &&
                    a.slab.recycles == b.slab.recycles &&
                    a.slab.cold_clones == b.slab.cold_clones &&
                    a.slab.misses == b.slab.misses && counters.calls.load() > 0;
    std::printf("forwarding-DUT transparency: %s (report %016llx/%016llx, "
                "checkpoints %016llx/%016llx, slab recycles %llu/%llu, "
                "device calls %llu)\n",
                ok ? "PASS" : "FAIL", static_cast<unsigned long long>(a.digest),
                static_cast<unsigned long long>(b.digest),
                static_cast<unsigned long long>(a.ckpt_digest),
                static_cast<unsigned long long>(b.ckpt_digest),
                static_cast<unsigned long long>(a.slab.recycles),
                static_cast<unsigned long long>(b.slab.recycles),
                static_cast<unsigned long long>(counters.calls.load()));
    return ok;
}

Result run_traced(const Workload& w, const std::vector<std::uint64_t>& seeds,
                  double seconds, const fs::path& work) {
    DigestBook book;
    Tally tally;
    record_reference(w, seeds[0], work, book);
    bool transparent = true;
    if (w.kind == Kind::kHunt) transparent = transparency_check(w, seeds[0], work);

    const std::string root = w.kind == Kind::kHunt ? "bench.learn" : "bench.lot_run";
    std::vector<double> plain_wall, traced_wall, gen_s;
    std::vector<Values> per_campaign;
    std::map<std::string, SpanTotals> totals;
    const Clock::time_point start = Clock::now();
    std::size_t campaign = 0;
    do {
        const std::uint64_t seed = seeds[(campaign / 2) % seeds.size()];
        const Outcome plain =
            run_campaign(w, seed, work / ("c" + std::to_string(campaign++)), {});
        tally.add(plain, book.check(seed, plain.digest));
        plain_wall.push_back(plain.wall_s);

        DeviceCounters device;
        Instruments traced;
        traced.trace = true;
        traced.device = w.kind == Kind::kHunt ? &device : nullptr;
        enable_instruments(true);
        const Outcome o =
            run_campaign(w, seed, work / ("c" + std::to_string(campaign++)), traced);
        const TraceSummary t = drain_trace(root);
        per_campaign.push_back(layer_values(o, t, device));
        enable_instruments(false);
        tally.add(o, book.check(seed, o.digest));
        traced_wall.push_back(o.wall_s);
        gen_s.insert(gen_s.end(), o.gen_s.begin(), o.gen_s.end());
        for (const auto& [name, s] : t.by_name) {
            totals[name].add(s);
        }
    } while (seconds_between(start, Clock::now()) < seconds);

    Result r;
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    r.correct = tally.mismatches == 0 && transparent;
    for (const MetricDef& def : kPerLayer) {
        std::vector<double> samples;
        for (const Values& v : per_campaign) {
            const auto it = v.find(def.name);
            if (it != v.end()) samples.push_back(it->second);
        }
        r.metrics.emplace_back(def, median(samples));
    }
    for (auto& [def, value] : r.metrics) {
        const std::string name = def.name;
        if (name == "ga.gen_s.p50") value = quantile(gen_s, 0.5);
        if (name == "ga.gen_s.p90") value = quantile(gen_s, 0.9);
        if (name == "trace.overhead_frac") {
            value = ratio(median(traced_wall), median(plain_wall)) - 1.0;
        }
    }
    print_self_time_table(w.name, totals, per_campaign.size(), mean(traced_wall));
    std::printf("traced campaigns: %zu (plus %zu plain), %.1f s measured\n",
                traced_wall.size(), plain_wall.size(),
                seconds_between(start, Clock::now()));
    return r;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload campaign_cpu|campaign_ate|lot_faults\n"
                 "                 [--seed N|default|heldout] [--seconds S]\n"
                 "                 [--trace 0|1] [--work DIR]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload_name;
    std::string seed_arg = "default";
    double seconds = 10.0;
    bool trace = false;
    fs::path work = ".bench_build/work";
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string value = argv[i + 1];
            if (key == "--workload") workload_name = value;
            else if (key == "--seed") seed_arg = value;
            else if (key == "--seconds") seconds = std::stod(value);
            else if (key == "--trace") trace = std::stoi(value) != 0;
            else if (key == "--work") work = value;
            else return usage();
        }
        if (argc % 2 == 0) return usage();
    } catch (const std::exception&) {
        return usage();
    }
    std::optional<Workload> workload;
    for (const Workload& w : {campaign_cpu(), campaign_ate(), lot_faults()}) {
        if (workload_name == w.name) workload = w;
    }
    if (!workload) return usage();

    std::uint64_t seed = workload->default_seed;
    const char* seed_kind = "default";
    if (seed_arg == "heldout") {
        seed = workload->heldout_seed;
        seed_kind = "heldout";
    } else if (seed_arg != "default") {
        try {
            seed = std::stoull(seed_arg);
        } catch (const std::exception&) {
            return usage();
        }
        seed_kind = "given";
    }

    print_host(*workload, seed, seed_kind, trace);
    const std::vector<std::uint64_t> seeds =
        campaign_seeds(seed, workload->seeds_per_run);
    std::printf("campaign seeds:");
    for (const std::uint64_t s : seeds) {
        std::printf(" %llu", static_cast<unsigned long long>(s));
    }
    std::printf("\n");
    std::fflush(stdout);

    work /= std::string(workload->name) + "-" + std::to_string(getpid());
    int code = 0;
    try {
        const Result r = trace ? run_traced(*workload, seeds, seconds, work)
                               : run_timed(*workload, seeds, seconds, work);
        print_result(r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        code = 1;
    }
    std::error_code ec;
    fs::remove_all(work, ec);
    return code;
}
