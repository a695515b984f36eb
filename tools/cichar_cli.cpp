// cichar — command-line front end for the characterization library.
//
//   cichar selftest
//       bring up a simulated die + tester, sanity-check trip searches
//   cichar hunt [--seed N] [--coding fuzzy|numeric] [--generations G]
//               [--populations P] [--jobs J] [--inflight D]
//               [--cache on|off] [--db FILE] [--model FILE]
//       full Fig.4 + Fig.5 worst-case hunt; optionally persist artifacts.
//       --jobs J != 1 or --inflight D > 1 measures learning and GA
//       fitness on replicas through the async submission/completion
//       queue, max(1, D) trip searches deep, overlapping decode +
//       scoring with in-flight measurements (byte-identical at any
//       jobs x inflight); its probes run on the calling thread, so
//       --jobs sizes committee training and NN scoring only;
//       --cache memoizes trip points of duplicated GA individuals
//       within the hunt
//   cichar shmoo [--seed N] [--tests N] [--csv FILE]
//       multi-test overlay shmoo (Fig. 8)
//   cichar screen --db FILE [--limit L] [--lot N] [--seed N]
//       compile a production program from a saved worst-case database and
//       screen a lot of sampled dies
//   cichar lot [--sites N] [--jobs J] [--inflight D] [--seed N]
//              [--params tdq|all] [--tests N] [--generations G]
//              [--report FILE]
//       multi-site lot characterization: the reference site (site 0,
//       or the next one when it is lost while learning) learns every
//       parameter and scores the NN seeds once, then every sampled die
//       hunts with them, sites in parallel, lot-level aggregation +
//       fused spec; --jobs J also sizes the reference's committee
//       training and NN scoring;
//       --inflight D > 0 runs the learning and every hunt on warm
//       replicas, each site on its own measurement ring of depth D
//       (byte-identical at any D >= 1 x jobs)
//   cichar pattern --march NAME --out FILE | --info FILE
//       export deterministic patterns as ATE vector files / inspect one
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ate/fault_injector.hpp"
#include "ate/shmoo.hpp"
#include "core/checkpoint.hpp"
#include "core/campaign.hpp"
#include "core/characterizer.hpp"
#include "core/model_io.hpp"
#include "core/production.hpp"
#include "core/report.hpp"
#include "core/spec_report.hpp"
#include "device/memory_chip.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"
#include "obs/run_view.hpp"
#include "obs/status_board.hpp"
#include "obs/status_writer.hpp"
#include "store/ledger.hpp"
#include "store/ledger_payloads.hpp"
#include "testgen/march.hpp"
#include "testgen/pattern_io.hpp"
#include "util/binio.hpp"
#include "util/cli_args.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/trace_report.hpp"

namespace {

using namespace cichar;

using Args = util::CliArgs;

int usage() {
    std::printf(
        "cichar — computational intelligence device characterization\n"
        "usage:\n"
        "  cichar selftest\n"
        "  cichar hunt [--seed N] [--coding fuzzy|numeric]\n"
        "              [--generations G] [--populations P]\n"
        "              [--jobs J] [--inflight D] [--cache on|off]\n"
        "              [--fault-profile SPEC] [--policy on|off]\n"
        "              [--checkpoint FILE [--abort-after-generation N]]\n"
        "              [--resume FILE] [--db FILE] [--model FILE]\n"
        "              [--report FILE] [--ledger DIR]\n"
        "              [--status DIR [--status-interval S]]\n"
        "      --jobs J != 1 or --inflight D > 1 measures on replicas,\n"
        "      max(1, D) trip searches in flight on the calling thread;\n"
        "      --jobs J sizes committee training and scoring only.\n"
        "  cichar shmoo [--seed N] [--tests N] [--csv FILE]\n"
        "  cichar screen --db FILE [--limit L] [--lot N] [--seed N]\n"
        "  cichar campaign [--seed N] [--tests N] [--generations G]\n"
        "  cichar lot [--sites N] [--jobs J] [--seed N] [--params tdq|all]\n"
        "             [--inflight D]\n"
        "             [--tests N] [--generations G] [--report FILE]\n"
        "             [--fault-profile SPEC] [--policy on|off]\n"
        "             [--checkpoint FILE [--max-sites N]] [--resume FILE]\n"
        "             [--ledger DIR] [--status DIR [--status-interval S]]\n"
        "      site 0 (or, if it is lost while learning, the next site)\n"
        "      learns once for the lot; every site hunts with its\n"
        "      committee and NN seeds.\n"
        "      --jobs J hunts J sites at a time on worker threads and\n"
        "      trains and scores the lot's committee on J workers;\n"
        "      --inflight D keeps D trip searches in flight per site\n"
        "      (replica learning and hunts, byte-identical at any\n"
        "      D >= 1; 0 = classic serial in-situ sites).\n"
        "      --max-sites N stops after N new sites; --resume FILE\n"
        "      finishes the lot from its --checkpoint (byte-identical\n"
        "      report)\n"
        "  cichar ledger verify|inspect DIR\n"
        "  cichar ledger compact DIR --out DIR\n"
        "      check, summarize, or canonically rewrite a campaign ledger\n"
        "      (hunt and lot grow one with --ledger DIR: an append-only,\n"
        "      fsync'd record of trip points, database entries, and\n"
        "      tester costs that survives kills and torn writes)\n"
        "fault profiles: off | transient[:RATE] | moderate |\n"
        "                transient=R,stuck=R,timeout=R,death=R,span=F,\n"
        "                stuck-len=N,seed=N (any subset)\n"
        "  cichar status DIR [--json] [--ledger DIR]\n"
        "      one-shot view of a run's --status directory: renders its\n"
        "      one snapshot and (with --ledger) a read-only ledger tail as\n"
        "      per-site phase/ETA, partial lot statistics, and anomaly\n"
        "      flags (a directory holding two runs' snapshots is an error)\n"
        "  cichar top DIR [--interval S] [--iterations N] [--ledger DIR]\n"
        "      live refreshing ASCII view of the same model\n"
        "  cichar pattern --march c-|mats+|x|y|checkerboard --out FILE\n"
        "  cichar pattern --info FILE\n"
        "  cichar trace-report FILE [--top N] [--phase NAME]\n"
        "      render phase timing, wall-clock utilization + hottest spans\n"
        "      from a --trace-out file (--phase filters by span name)\n"
        "status feed (hunt and lot): --status DIR publishes a checksummed\n"
        "  CISTAT2 snapshot (atomic temp+rename) of per-site phase,\n"
        "  generation progress, cache/ATE counters, and partial results\n"
        "  every --status-interval seconds (default 1) to DIR/hunt.status\n"
        "  or DIR/lot.status (a DIR holding the other one is refused).\n"
        "  Off by default and contractually invisible:\n"
        "  reports, checkpoints, and ledgers are byte-identical\n"
        "  with the feed on or off. With --metrics-out, the Prometheus\n"
        "  snapshot is re-flushed on the same cadence.\n"
        "telemetry (hunt and lot): --metrics-out FILE writes a Prometheus\n"
        "  text snapshot (also refreshed on every checkpoint; on --resume\n"
        "  the previous snapshot is reloaded so counters stay cumulative);\n"
        "  --trace-out FILE records a JSONL span trace. Both are off by\n"
        "  default and never change results.\n"
        "global: --log-level debug|info|warn|error|off (default warn)\n");
    return 2;
}

/// Rewrites the --metrics-out Prometheus snapshot (no-op when `path` is
/// empty). Temp-file + rename, like every run artifact: a scraper or a
/// kill mid-write never sees a torn file.
void write_metrics(const std::string& path) {
    if (path.empty()) return;
    if (!util::atomic_write_file(
            path, util::telemetry::Registry::instance().render_prometheus())) {
        std::fprintf(stderr, "warning: cannot write metrics %s\n",
                     path.c_str());
    }
}

core::CharacterizerOptions default_options() {
    core::CharacterizerOptions options;
    options.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    return options;
}

/// Writes one output file through temp-file + rename, so a run killed
/// mid-write never leaves a truncated file behind. Returns false after a
/// diagnostic.
bool write_output(const std::string& path, std::string_view bytes) {
    if (util::atomic_write_file(path, bytes)) return true;
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
}

/// The flags hunt and lot share: fault injection and every run artifact.
/// RunOptions parses them once; flags_known lists them once.
constexpr std::string_view kRunFlags[] = {
    "fault-profile", "policy",          "checkpoint",  "resume",
    "report",        "ledger",          "status",      "status-interval",
    "metrics-out",   "trace-out"};

/// The shared flags of a hunt or lot run, wired once.
struct RunOptions {
    using Sink = std::function<void(const std::string&)>;
    using Writer =
        std::function<bool(const std::string& path, const std::string& blob)>;

    /// --fault-profile SPEC: deterministic fault injection between the
    /// tester and the DUT (absent = no faults).
    ate::FaultProfile profile;
    /// The resilience policy rides along with faults by default; --policy
    /// off measures raw (faults land unscreened in the results).
    bool policy_on = false;
    std::optional<std::string> checkpoint;  ///< --checkpoint FILE
    std::optional<std::string> resume;      ///< --resume FILE
    std::optional<std::string> report;      ///< --report FILE
    std::optional<std::string> ledger;      ///< --ledger DIR
    std::string metrics_out;                ///< --metrics-out FILE
    std::string trace_out;                  ///< --trace-out FILE
    /// --status DIR: the feed is on and start_status() starts its writer;
    /// without it the feed stays off at one relaxed atomic load per
    /// would-be post.
    std::optional<std::string> status_dir;
    /// The background snapshot writer, once start_status() ran.
    std::unique_ptr<obs::StatusWriter> status;

    /// Arms the exports and the status feed (snapshot stem `role`).
    /// --metrics-out and --trace-out are off by default and never change
    /// results; on --resume the previous metrics snapshot is reloaded so
    /// counters stay cumulative. Throws std::runtime_error when the
    /// --status directory holds another run's snapshot.
    RunOptions(const Args& args, const ate::FaultProfile& fault_profile,
               const char* role)
        : profile(fault_profile),
          policy_on(args.has("policy") ? args.get("policy") != "off"
                                       : fault_profile.any()),
          checkpoint(flag(args, "checkpoint")),
          resume(flag(args, "resume")),
          report(flag(args, "report")),
          ledger(flag(args, "ledger")),
          role_(role),
          status_interval_(args.get_double("status-interval", 1.0)) {
        if (args.has("metrics-out")) {
            metrics_out = args.get("metrics-out");
            util::telemetry::set_metrics_enabled(true);
            std::ifstream in(metrics_out);
            if (resume && in) {
                util::telemetry::Registry::instance().load_prometheus(in);
            }
        }
        if (args.has("trace-out")) {
            trace_out = args.get("trace-out");
            util::telemetry::set_tracing_enabled(true);
        }
        if (!args.has("status")) return;
        // One --status directory per run: another role's snapshot is
        // refused before anything runs; this role's own is a rerun or a
        // resume, and is overwritten.
        for (const auto& path : obs::status_files(args.get("status"))) {
            if (path.stem() != role) {
                throw std::runtime_error(
                    "--status " + args.get("status") + " holds " +
                    path.string() +
                    "; give each run its own --status directory");
            }
        }
        obs::set_status_enabled(true);
        status_dir = args.get("status");
    }

    /// Starts the --status writer. Call it once the run has registered
    /// with obs::StatusBoard (begin_campaign), so even the first snapshot
    /// names the run.
    void start_status() {
        obs::StatusWriterOptions options;
        options.directory = *status_dir;
        options.name = role_;
        options.interval_seconds = status_interval_;
        // Each tick re-flushes --metrics-out, so that snapshot goes live too.
        options.on_tick = [path = metrics_out] { write_metrics(path); };
        status = std::make_unique<obs::StatusWriter>(std::move(options));
    }

    /// nullopt after a diagnostic when --fault-profile is malformed.
    static std::optional<RunOptions> parse(const Args& args,
                                           const char* role) {
        const std::optional<ate::FaultProfile> profile =
            args.has("fault-profile")
                ? ate::FaultProfile::parse(args.get("fault-profile"))
                : ate::FaultProfile::none();
        if (!profile) {
            std::fprintf(stderr, "malformed --fault-profile: %s\n",
                         args.get("fault-profile").c_str());
            return std::nullopt;
        }
        return std::optional<RunOptions>(std::in_place, args, *profile, role);
    }

    /// The checkpoint sink: `write` persists each blob at --checkpoint (a
    /// failed write only warns; the run goes on), --metrics-out is
    /// re-flushed next to it so a killed run resumes with cumulative
    /// counters, and `then` sees the blob last. Without --checkpoint the
    /// sink is `then` alone.
    [[nodiscard]] Sink checkpoint_sink(Writer write, Sink then = {}) const {
        if (!checkpoint) return then;
        return [path = *checkpoint, metrics = metrics_out,
                write = std::move(write),
                then = std::move(then)](const std::string& blob) {
            if (!write(path, blob)) {
                std::fprintf(stderr, "warning: cannot write checkpoint %s\n",
                             path.c_str());
            }
            write_metrics(metrics);
            if (then) then(blob);
        };
    }

    /// The raw --resume file; nullopt after a diagnostic when unreadable.
    [[nodiscard]] std::optional<std::string> read_resume() const {
        std::optional<std::string> bytes = util::read_file(*resume);
        if (!bytes) {
            std::fprintf(stderr, "cannot read checkpoint %s\n",
                         resume->c_str());
        }
        return bytes;
    }

    /// Publishes the terminal status snapshot and both exports.
    void finish() const {
        if (status) status->stop();
        write_metrics(metrics_out);
        if (trace_out.empty()) return;
        std::ostringstream out;
        util::telemetry::Trace::instance().write_jsonl(out);
        if (!util::atomic_write_file(trace_out, out.str())) {
            std::fprintf(stderr, "warning: cannot write trace %s\n",
                         trace_out.c_str());
        }
    }

private:
    static std::optional<std::string> flag(const Args& args,
                                           const std::string& name) {
        if (!args.has(name)) return std::nullopt;
        return args.get(name);
    }

    std::string role_;
    double status_interval_;
};

int cmd_selftest(const Args&) {
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const testgen::Test march =
        testgen::make_test(testgen::march_c_minus().expand());

    const ate::BinarySearch binary;
    const ate::SearchResult r = binary.find(tester.oracle(march, param), param);
    if (!r.found) {
        std::printf("FAIL: no trip point found for March C-\n");
        return 1;
    }
    std::printf("device ok: March C- trips at %.2f ns (%zu measurements)\n",
                r.trip_point, r.measurements);

    const device::FunctionalResult functional = tester.run_functional(march);
    std::printf("functional march: %s (%zu reads)\n",
                functional.pass() ? "PASS" : "FAIL", functional.reads);
    std::printf("selftest %s\n", functional.pass() ? "PASSED" : "FAILED");
    return functional.pass() ? 0 : 1;
}

// ---------------------------------------------------------------------
// --ledger DIR support. Hunt and lot append their durable results to an
// append-only campaign ledger alongside the checkpoint/report artifacts.
// Sequence assignment is deterministic (docs/FORMATS.md):
//   campaign-begin       0
//   trip-record          site * 65536 + parameter index
//   worst-case-entry     database rank (worst first)
//   measurement-summary  index in the name-sorted phase list
//   snapshot-ref         0 = database, 1 = report
//   campaign-end         UINT64_MAX (sorts last in canonical order)
// so a crashed-and-resumed campaign re-offers byte-identical
// records that Ledger::append_if_absent dedups.

constexpr std::uint64_t kLedgerSiteStride = 65536;
constexpr std::uint64_t kLedgerEndSequence = ~0ULL;
constexpr std::uint64_t kLedgerRefDatabase = 0;
constexpr std::uint64_t kLedgerRefReport = 1;

/// Appends trip records for the finished sites in site order, so the
/// segment bytes do not depend on which site finished first: a site goes
/// in only once every lower-indexed site has finished, and the walk stops
/// at the first index gap. Idempotent across resumes.
void ledger_add_sites(store::Ledger& ledger, std::uint64_t campaign,
                      const std::vector<lot::SiteResult>& sites) {
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const lot::SiteResult& site = sites[i];
        if (site.site != i || !site.finished()) return;
        for (std::size_t p = 0; p < site.outcomes.size(); ++p) {
            const lot::SiteParameterOutcome& outcome = site.outcomes[p];
            store::TripRecordPayload payload;
            payload.site = site.site;
            payload.parameter = outcome.parameter.name;
            payload.margin_risk = outcome.margin_risk;
            payload.record = outcome.worst;
            ledger.append_if_absent(
                {store::RecordType::kTripRecord, campaign,
                 site.site * kLedgerSiteStride + p,
                 store::encode_trip_record(payload)});
        }
    }
}

/// One run's campaign in the --ledger directory, keyed by checksum64 of
/// the run's fingerprint. Disabled (every call a no-op success) without
/// --ledger. Not copyable: the lot's checkpoint sink holds its address.
class RunLedger {
public:
    using Append = std::function<void(store::Ledger&, std::uint64_t)>;

    RunLedger(std::optional<std::string> directory, std::string fingerprint,
              std::uint64_t seed)
        : directory_(std::move(directory)),
          fingerprint_(std::move(fingerprint)),
          campaign_(util::checksum64(fingerprint_)),
          seed_(seed) {}
    RunLedger(const RunLedger&) = delete;
    RunLedger& operator=(const RunLedger&) = delete;

    explicit operator bool() const noexcept { return directory_.has_value(); }

    /// Runs `append` and group-commits what it added. The first commit
    /// opens the ledger (reporting what recovery repaired) and adds the
    /// campaign-begin record. Returns false after a "cannot <action>
    /// ledger" diagnostic; `announce` prints the appended record count.
    bool commit(const char* action, const Append& append,
                bool announce = false) {
        if (!directory_) return true;
        try {
            if (!ledger_) open();
            append(*ledger_, campaign_);
            const std::size_t appended = ledger_->pending();
            ledger_->commit();
            if (announce) {
                std::printf("ledger: %zu record(s) appended to %s\n",
                            appended, directory_->c_str());
            }
            return true;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "cannot %s ledger %s: %s\n", action,
                         directory_->c_str(), e.what());
            return false;
        }
    }

    /// The completing run seals the campaign in one commit: whatever
    /// `append` adds, the tester costs of `log`, a checksummed pointer
    /// to the run's main artifact (when written), and the end marker.
    bool seal(const Append& append, const ate::MeasurementLog& log,
              const char* ref_kind, std::uint64_t ref_sequence,
              const std::optional<std::string>& ref_path) {
        return commit(
            "update",
            [&](store::Ledger& ledger, std::uint64_t campaign) {
                append(ledger, campaign);
                const std::vector<std::string> phases = log.phases();  // sorted
                for (std::size_t i = 0; i < phases.size(); ++i) {
                    ledger.append_if_absent(
                        {store::RecordType::kMeasurementSummary, campaign, i,
                         store::encode_measurement_summary(
                             {phases[i], log.phase_counters(phases[i])})});
                }
                if (ref_path) {
                    add_snapshot_ref(ref_kind, ref_sequence, *ref_path);
                }
                if (!ledger.contains(campaign, store::RecordType::kCampaignEnd,
                                     kLedgerEndSequence)) {
                    ledger.append({store::RecordType::kCampaignEnd, campaign,
                                   kLedgerEndSequence,
                                   store::encode_campaign_end(
                                       {ledger.campaign_records(campaign)})});
                }
            },
            /*announce=*/true);
    }

private:
    void open() {
        ledger_.emplace(store::Ledger::open({*directory_}));
        const store::RecoveryStats& recovery = ledger_->recovery();
        if (!recovery.clean()) {
            std::fprintf(stderr,
                         "ledger %s: recovered (%zu torn tail(s)/%zu bytes "
                         "truncated, %zu corrupt span(s), %zu segment(s) "
                         "quarantined)\n",
                         directory_->c_str(), recovery.torn_tails,
                         recovery.truncated_bytes, recovery.corrupt_spans,
                         recovery.quarantined_segments);
        }
        ledger_->append_if_absent(
            {store::RecordType::kCampaignBegin, campaign_, 0,
             store::encode_campaign_begin({fingerprint_, seed_})});
    }

    /// Points at an artifact the run just wrote. The ref stores the
    /// basename only, so ledgers written from different working
    /// directories stay byte-identical.
    void add_snapshot_ref(const char* kind, std::uint64_t sequence,
                          const std::string& path) {
        const std::optional<std::string> bytes = util::read_file(path);
        if (!bytes) return;  // artifact write already reported its failure
        const std::size_t slash = path.find_last_of('/');
        ledger_->append_if_absent(
            {store::RecordType::kSnapshotRef, campaign_, sequence,
             store::encode_snapshot_ref(
                 {kind,
                  slash == std::string::npos ? path : path.substr(slash + 1),
                  util::checksum64(*bytes)})});
    }

    std::optional<std::string> directory_;
    std::string fingerprint_;
    std::uint64_t campaign_;
    std::uint64_t seed_;
    std::optional<store::Ledger> ledger_;
};

int cmd_hunt(const Args& args) {
    const std::uint64_t seed = args.get_u64("seed", 2005);
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    core::CharacterizerOptions options = default_options();
    if (args.get("coding") == "numeric") {
        options.learner.coding = fuzzy::CodingScheme::kNumeric;
    }
    options.optimizer.ga.max_generations =
        static_cast<std::size_t>(args.get_u64("generations", 40));
    options.optimizer.ga.populations =
        static_cast<std::size_t>(args.get_u64("populations", 4));

    // --jobs J: parallel committee training and candidate scoring. J != 1
    // also switches learning and GA fitness to replica evaluation
    // (byte-identical at any J); J == 1 keeps the classic in-situ serial
    // path. Replica probes run on the calling thread, so J never sizes
    // measurement, with or without faults and the policy.
    const auto jobs = static_cast<std::size_t>(args.get_u64("jobs", 1));
    options.learner.committee.jobs = jobs;
    options.optimizer.parallel.enabled = jobs != 1;
    options.optimizer.parallel.jobs = jobs;
    // --inflight D: trip searches kept in flight per replica batch. D > 1
    // implies replica evaluation even at --jobs 1; reports and
    // checkpoints stay byte-identical at any jobs x inflight combination,
    // so a checkpoint resumes across --inflight values.
    const auto inflight = static_cast<std::size_t>(args.get_u64("inflight", 1));
    options.optimizer.parallel.inflight = inflight;
    if (inflight > 1) options.optimizer.parallel.enabled = true;
    // --cache on|off: trip-point memoization across GA duplicates (on by
    // default for the hunt).
    options.optimizer.cache.enabled = args.get("cache", "on") != "off";

    std::optional<RunOptions> run = RunOptions::parse(args, "hunt");
    if (!run) return 2;
    if (run->policy_on) {
        options.learner.trip.policy.enabled = true;
        options.optimizer.trip.policy.enabled = true;
    }
    ate::FaultInjector injector(run->profile);
    if (run->profile.any()) tester.attach_fault_injector(&injector);

    // Checkpoint fingerprint: everything that shapes the hunt's streams.
    // A checkpoint written under a different configuration is refused on
    // resume instead of silently producing a mixed-state run. Replica mode
    // is token 2 since learning measures on replicas too: a token-1
    // checkpoint carries in-situ learning's streams and is refused.
    std::ostringstream fp;
    fp << "hunt:seed=" << seed << ":coding=" << args.get("coding", "fuzzy")
       << ":generations=" << options.optimizer.ga.max_generations
       << ":populations=" << options.optimizer.ga.populations
       << ":parallel=" << (options.optimizer.parallel.enabled ? 2 : 0)
       << ":cache=" << (options.optimizer.cache.enabled ? 1 : 0)
       << ":faults=" << run->profile.describe()
       << ":policy=" << (run->policy_on ? 1 : 0);
    const std::string fingerprint = fp.str();

    // --ledger DIR: opened (and so refused, when it cannot be) before any
    // measurement; the hunt's durable results go in at the end, in one
    // fsync'd group commit.
    RunLedger ledger(run->ledger, fingerprint, seed);
    if (!ledger.commit("open", [](store::Ledger&, std::uint64_t) {})) {
        return 1;
    }

    // --status DIR: the hunt is a one-site campaign (site 0); the
    // optimizer progress hook posts each GA generation.
    if (run->status_dir) {
        obs::StatusBoard::instance().begin_campaign("hunt", fingerprint, seed,
                                                    1);
        obs::StatusBoard::instance().begin_site(0);
        options.optimizer.on_generation =
            [](const core::HuntProgress& progress) {
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
        run->start_status();
    }
    const auto hunt_start = std::chrono::steady_clock::now();

    // The optimizer hands the sink its raw state payload; the sink
    // envelopes and fingerprints it.
    options.optimizer.checkpoint.save = run->checkpoint_sink(
        [fingerprint](const std::string& path, const std::string& payload) {
            return core::write_checkpoint_file(path, fingerprint, payload);
        });
    options.optimizer.checkpoint.abort_after_generation =
        static_cast<std::size_t>(args.get_u64("abort-after-generation", 0));
    if (run->resume) {
        const std::optional<std::string> bytes = run->read_resume();
        if (!bytes) return 1;
        std::string& payload = options.optimizer.checkpoint.resume_blob;
        if (!core::decode_checkpoint(*bytes, fingerprint, payload)) {
            std::fprintf(stderr,
                         "cannot resume from %s: corrupt or from a different "
                         "hunt configuration\n",
                         run->resume->c_str());
            return 1;
        }
    }

    const ate::Parameter param = ate::Parameter::data_valid_time();
    util::Rng rng(seed);

    // A resume re-runs learning: it is deterministic from the seed and
    // the fingerprinted configuration, so it rebuilds the very committee
    // that anchors the hunt's trip searches, and the checkpoint then
    // restores the tester log, device, rng and injector state learning
    // touched (NN seeding is skipped on resume).
    const core::DeviceCharacterizer characterizer(tester, param, options);
    std::printf("learning (seed %llu)...\n",
                static_cast<unsigned long long>(seed));
    const core::LearnResult learned = characterizer.learn(rng);
    std::printf("  %zu tests, committee val err %.5f, %s\n",
                learned.tests_measured, learned.mean_validation_error,
                learned.converged ? "converged" : "NOT converged");
    if (run->resume) {
        std::printf("resuming hunt from %s...\n", run->resume->c_str());
    } else {
        std::printf("optimizing...\n");
    }
    const core::WorstCaseReport report =
        characterizer.optimize(learned.model, rng);
    if (run->status && !report.aborted) {
        std::vector<obs::SiteOutcomeEntry> outcomes(1);
        outcomes[0].parameter = param.name;
        outcomes[0].found = report.worst_record.found;
        outcomes[0].trip_point = report.worst_record.trip_point;
        outcomes[0].wcr = report.worst_record.wcr;
        outcomes[0].margin_risk = 0.0;
        obs::StatusBoard::instance().site_finished(
            0, obs::SitePhase::kDone, std::move(outcomes),
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          hunt_start)
                .count(),
            report.faults.retried_measurements, report.faults.interventions());
    }
    run->finish();

    if (report.aborted) {
        std::printf("hunt checkpointed after generation %zu; resume with "
                    "--resume %s\n",
                    report.outcome.generations_run, run->checkpoint->c_str());
        return 0;
    }
    std::printf("  worst case: T_DQ %.2f ns, WCR %.3f (%s), %zu ATE "
                "measurements\n",
                report.worst_record.trip_point, report.outcome.best_fitness,
                ga::to_string(report.worst_record.wcr_class),
                report.ate_measurements);
    if (run->profile.any() || run->policy_on) {
        std::printf("  faults injected: %llu; policy: %s\n",
                    static_cast<unsigned long long>(report.injected.injected()),
                    report.faults.describe().c_str());
    }
    if (report.cache_stats.lookups() > 0) {
        std::printf("  trip cache: %llu hits / %llu misses (%.1f%%), "
                    "%zu job(s)\n",
                    static_cast<unsigned long long>(report.cache_stats.hits),
                    static_cast<unsigned long long>(report.cache_stats.misses),
                    100.0 * report.cache_stats.hit_rate(), report.jobs);
    }

    core::DesignSpecVariation pooled = learned.dsv;
    if (report.worst_record.found) pooled.add(report.worst_record);
    if (pooled.found_count() > 0) {
        std::printf("%s", core::propose_spec(param, pooled).render().c_str());
    } else {
        std::printf("no trip points found; no spec proposed\n");
    }

    if (args.has("model")) {
        core::save_model_file(args.get("model"), learned.model);
        std::printf("model written to %s\n", args.get("model").c_str());
    }
    std::optional<std::string> db;
    if (args.has("db")) {
        db = args.get("db");
        std::ostringstream out;
        report.database.save(out);
        if (!write_output(*db, out.str())) return 1;
        std::printf("worst-case database written to %s\n", db->c_str());
    }
    if (run->report) {
        std::optional<core::SpecProposal> proposal;
        if (pooled.found_count() > 0) {
            proposal = core::propose_spec(param, pooled);
        }
        core::ReportInputs inputs;
        inputs.seed = seed;
        inputs.learned = &learned;
        inputs.hunt = &report;
        inputs.proposal = proposal ? &*proposal : nullptr;
        inputs.ledger = &tester.log();
        std::ostringstream out;
        core::write_report(out, inputs);
        if (!write_output(*run->report, out.str())) return 1;
        std::printf("report written to %s\n", run->report->c_str());
    }
    // A killed-and-resumed hunt re-offers identical records, so the
    // ledger converges on the exact bytes an uninterrupted run writes.
    const bool sealed = ledger.seal(
        [&](store::Ledger& l, std::uint64_t campaign) {
            if (report.worst_record.found) {
                store::TripRecordPayload trip;
                trip.site = 0;
                trip.parameter = param.name;
                trip.margin_risk = 0.0;
                trip.record = report.worst_record;
                l.append_if_absent({store::RecordType::kTripRecord, campaign,
                                    0, store::encode_trip_record(trip)});
            }
            const std::vector<core::WorstCaseEntry>& entries =
                report.database.entries();
            for (std::size_t i = 0; i < entries.size(); ++i) {
                l.append_if_absent(
                    {store::RecordType::kWorstCaseEntry, campaign, i,
                     store::encode_worst_case_entry({entries[i]})});
            }
        },
        tester.log(), "database", kLedgerRefDatabase, db);
    return sealed ? 0 : 1;
}

int cmd_shmoo(const Args& args) {
    const std::uint64_t seed = args.get_u64("seed", 2005);
    const auto test_count =
        static_cast<std::size_t>(args.get_u64("tests", 200));
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const testgen::RandomTestGenerator generator(
        default_options().generator);
    util::Rng rng(seed);
    std::vector<testgen::Test> tests;
    for (std::size_t i = 0; i < test_count; ++i) {
        tests.push_back(generator.random_test(rng, "t" + std::to_string(i)));
    }
    ate::ShmooOptions shmoo_options;
    shmoo_options.x_min = 18.0;
    shmoo_options.x_max = 40.0;
    shmoo_options.x_steps = 67;
    const ate::ShmooGrid grid =
        ate::ShmooPlotter(shmoo_options).run(tester, param, tests);
    std::printf("%s", grid.render(param).c_str());
    if (args.has("csv")) {
        std::ostringstream out;
        grid.write_csv(out);
        if (!write_output(args.get("csv"), out.str())) return 1;
        std::printf("grid written to %s\n", args.get("csv").c_str());
    }
    return 0;
}

int cmd_screen(const Args& args) {
    if (!args.has("db")) {
        std::fprintf(stderr, "screen requires --db FILE\n");
        return 2;
    }
    std::ifstream in(args.get("db"));
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", args.get("db").c_str());
        return 1;
    }
    const core::WorstCaseDatabase database = core::WorstCaseDatabase::load(in);
    if (database.empty()) {
        std::fprintf(stderr, "database has no entries\n");
        return 1;
    }
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const double limit = args.get_double("limit", param.spec);
    const auto lot_size = static_cast<std::size_t>(args.get_u64("lot", 20));
    const std::uint64_t seed = args.get_u64("seed", 1);

    const ate::ProductionTestProgram program = core::build_production_program(
        database, default_options().generator, param, limit);
    std::printf("program: %zu steps, limit %.2f %s, lot of %zu dies\n",
                program.step_count(), limit, param.unit.c_str(), lot_size);

    util::Rng rng(seed);
    const device::ProcessVariation process;
    ate::BinningSummary bins;
    bins.fails_per_step.assign(program.step_count(), 0);
    for (std::size_t d = 0; d < lot_size; ++d) {
        device::MemoryChipOptions chip_options;
        chip_options.seed = rng();
        device::MemoryTestChip die(process.sample(rng), chip_options);
        ate::Tester tester(die);
        const ate::ProductionOutcome outcome = program.run(tester);
        ++bins.devices;
        if (outcome.pass) {
            ++bins.passed;
        } else {
            ++bins.fails_per_step[outcome.failed_step];
        }
    }
    std::printf("yield: %.1f %% (%zu/%zu)\n", 100.0 * bins.yield(),
                bins.passed, bins.devices);
    for (std::size_t s = 0; s < bins.fails_per_step.size(); ++s) {
        if (bins.fails_per_step[s] > 0) {
            std::printf("  bin %zu (%s): %zu\n", s,
                        program.step(s).name.c_str(), bins.fails_per_step[s]);
        }
    }
    return 0;
}

int cmd_campaign(const Args& args) {
    const std::uint64_t seed = args.get_u64("seed", 2005);
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    core::CharacterizerOptions options = default_options();
    options.learner.training_tests =
        static_cast<std::size_t>(args.get_u64("tests", 120));
    options.optimizer.ga.max_generations =
        static_cast<std::size_t>(args.get_u64("generations", 25));

    const core::CharacterizationCampaign campaign(
        tester,
        {ate::Parameter::data_valid_time(), ate::Parameter::max_frequency(),
         ate::Parameter::min_vdd()},
        options);
    util::Rng rng(seed);
    std::printf("running T_DQ + Fmax + Vmin campaign (seed %llu)...\n",
                static_cast<unsigned long long>(seed));
    const auto results = campaign.run(rng);
    std::printf("%s", core::CharacterizationCampaign::render(results).c_str());
    std::printf("%s", tester.log().report().c_str());
    return 0;
}

/// The `cichar lot` knobs that shape the lot (and, except --jobs, its
/// checkpoint fingerprint). With the resilience policy on, a hopeless
/// site is quarantined instead of burning its tester budget.
lot::LotOptions lot_options_from_args(const Args& args,
                                      const RunOptions& run) {
    lot::LotOptions options;
    options.sites = static_cast<std::size_t>(args.get_u64("sites", 8));
    options.jobs = static_cast<std::size_t>(args.get_u64("jobs", 1));
    options.inflight = static_cast<std::size_t>(args.get_u64("inflight", 0));
    options.seed = args.get_u64("seed", 2005);
    options.characterizer = default_options();
    options.characterizer.learner.training_tests =
        static_cast<std::size_t>(args.get_u64("tests", 80));
    options.characterizer.optimizer.ga.max_generations =
        static_cast<std::size_t>(args.get_u64("generations", 15));
    options.characterizer.optimizer.ga.populations = 2;
    if (args.get("params") == "all") {
        options.parameters = {ate::Parameter::data_valid_time(),
                              ate::Parameter::max_frequency(),
                              ate::Parameter::min_vdd()};
    }
    options.faults = run.profile;
    options.policy.enabled = run.policy_on;
    if (options.policy.enabled) options.policy.quarantine_after = 8;
    return options;
}

int cmd_lot(const Args& args) {
    std::optional<RunOptions> run = RunOptions::parse(args, "lot");
    if (!run) return 2;
    lot::LotOptions options = lot_options_from_args(args, *run);
    options.on_progress = [](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "  site campaign finished (%zu/%zu)\n", done,
                     total);
    };

    // --ledger DIR: durable append-only sink alongside the checkpoint.
    // Finished sites are appended (and fsync'd) incrementally via the
    // checkpoint stream; the campaign-level summaries and end marker are
    // written only by the run that completes the lot, so resumed runs and
    // an uninterrupted run converge on one record set.
    const std::string fingerprint = lot::LotRunner(options).fingerprint();
    RunLedger ledger(run->ledger, fingerprint, options.seed);
    if (!ledger.commit("open", [](store::Ledger&, std::uint64_t) {})) {
        return 1;
    }
    RunOptions::Sink ledger_sink;
    if (ledger) {
        // Called under the runner's checkpoint mutex, so ledger access is
        // serialized. A failed append only costs durability of this
        // increment — the post-run sweep re-offers every record.
        ledger_sink = [&ledger, fingerprint](const std::string& blob) {
            std::string payload;
            if (!core::decode_checkpoint(blob, fingerprint, payload)) return;
            (void)ledger.commit(
                "append to", [&](store::Ledger& l, std::uint64_t campaign) {
                    ledger_add_sites(l, campaign,
                                     lot::decode_finished_sites(payload));
                });
        };
    }

    // --checkpoint/--resume/--max-sites: crash-safe stop-and-go lots. The
    // runner envelopes + fingerprints the blob itself; the CLI only
    // persists it atomically and feeds the raw file back on resume.
    options.checkpoint.save = run->checkpoint_sink(
        [](const std::string& path, const std::string& blob) {
            return util::atomic_write_file(path, blob);
        },
        ledger_sink);
    if (run->resume) {
        std::optional<std::string> bytes = run->read_resume();
        if (!bytes) return 1;
        options.checkpoint.resume_blob = std::move(*bytes);
    }
    options.checkpoint.max_sites_per_run =
        static_cast<std::size_t>(args.get_u64("max-sites", 0));

    std::printf("characterizing lot: %zu sites, %zu jobs (seed %llu)...\n",
                options.sites, options.jobs,
                static_cast<unsigned long long>(options.seed));
    if (run->profile.any()) {
        std::printf("  fault profile: %s; policy %s\n",
                    run->profile.describe().c_str(),
                    options.policy.enabled ? "on" : "off");
    }
    if (run->status_dir) {
        // LotRunner::run registers the lot again (and posts the sites a
        // resume restores); registering here first lets the writer's
        // first snapshot name the lot.
        obs::StatusBoard::instance().begin_campaign("lot", fingerprint,
                                                    options.seed,
                                                    options.sites);
        run->start_status();
    }
    const lot::LotRunner runner(options);
    const lot::LotResult result = runner.run();
    run->finish();
    // Sweep every finished site (checkpointed, restored, or live) —
    // idempotent, so it only adds what the incremental sink missed.
    if (!ledger.commit("update",
                       [&](store::Ledger& l, std::uint64_t campaign) {
                           ledger_add_sites(l, campaign, result.sites);
                       })) {
        return 1;
    }
    if (!result.complete()) {
        // Only --max-sites stops a lot early, and it needs --checkpoint.
        std::printf("partial lot: %zu/%zu sites characterized; resume with "
                    "--resume %s\n",
                    result.finished_sites(), options.sites,
                    run->checkpoint->c_str());
        std::printf("wall clock: %.2f s\n", result.wall_seconds);
        return 0;
    }
    const lot::LotReport report = lot::LotReport::build(result);
    std::printf("%s", report.render().c_str());
    if (options.jobs == 0) {
        std::printf("\nwall clock: %.2f s (auto jobs)\n", result.wall_seconds);
    } else {
        std::printf("\nwall clock: %.2f s with %zu jobs\n",
                    result.wall_seconds, options.jobs);
    }
    if (run->report) {
        if (!write_output(*run->report, report.render())) return 1;
        std::printf("lot report written to %s\n", run->report->c_str());
    }
    // The completing run seals the campaign: lot-wide tester costs, the
    // report pointer, and the end marker.
    const bool sealed =
        ledger.seal([](store::Ledger&, std::uint64_t) {}, result.merged_log,
                    "report", kLedgerRefReport, run->report);
    return sealed ? 0 : 1;
}

/// cichar ledger verify|inspect DIR | compact DIR --out DIR
/// Offline campaign-ledger maintenance (read-only except compact).
int cmd_ledger(const Args& args) {
    const std::vector<std::string>& operands = args.positionals();
    if (operands.size() != 2) {
        std::fprintf(stderr,
                     "usage: cichar ledger verify|inspect DIR\n"
                     "       cichar ledger compact DIR --out DIR\n");
        return 2;
    }
    const std::string& action = operands[0];
    const std::string& directory = operands[1];

    if (action == "verify") {
        const store::VerifyResult result = store::verify_ledger(directory);
        std::printf("ledger %s: %zu segment(s), %zu record(s), "
                    "%zu campaign(s) (%zu complete)\n",
                    directory.c_str(), result.segments, result.records,
                    result.campaigns, result.complete_campaigns);
        for (const std::string& issue : result.issues) {
            std::printf("  issue: %s\n", issue.c_str());
        }
        std::printf("verify: %s\n", result.ok ? "OK" : "FAILED");
        return result.ok ? 0 : 1;
    }
    if (action == "inspect") {
        std::printf("%s", store::inspect_ledger(directory).c_str());
        return 0;
    }
    if (action == "compact") {
        if (!args.has("out")) {
            std::fprintf(stderr, "ledger compact requires --out DIR\n");
            return 2;
        }
        const store::CompactStats stats =
            store::compact_ledger(directory, args.get("out"));
        for (const std::string& issue : stats.issues) {
            std::fprintf(stderr, "warning: %s: %s\n", directory.c_str(),
                         issue.c_str());
        }
        std::printf("compacted %s: %zu record(s) in, %zu out "
                    "(%zu duplicate(s) dropped), %zu segment(s) -> %s\n",
                    directory.c_str(), stats.input_records,
                    stats.output_records, stats.duplicates_dropped,
                    stats.segments_written, args.get("out").c_str());
        return 0;
    }
    std::fprintf(stderr, "unknown ledger action: %s\n", action.c_str());
    return 2;
}

int cmd_trace_report(const std::string& path, const Args& args) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }
    const util::TraceParse parse = util::parse_trace_jsonl(in);
    const auto top = static_cast<std::size_t>(args.get_u64("top", 10));
    std::printf("%s",
                util::render_trace_report(parse, top, args.get("phase"))
                    .c_str());
    return 0;
}

/// cichar status DIR [--json] [--ledger DIR]
int cmd_status(const std::string& directory, const Args& args) {
    const obs::RunView view =
        obs::read_run_status(directory, args.get("ledger"));
    if (args.has("json")) {
        std::printf("%s", obs::render_run_json(view).c_str());
    } else {
        std::printf("%s", obs::render_run_text(view).c_str());
    }
    return 0;
}

/// cichar top DIR [--interval S] [--iterations N] [--ledger DIR]
/// Live refreshing view; --iterations bounds the frame count (0 = until
/// interrupted) so tests and scripts can run it non-interactively.
int cmd_top(const std::string& directory, const Args& args) {
    const std::string ledger_dir = args.get("ledger");
    const double interval = args.get_double("interval", 1.0);
    const auto iterations =
        static_cast<std::size_t>(args.get_u64("iterations", 0));
    for (std::size_t frame = 0; iterations == 0 || frame < iterations;
         ++frame) {
        if (frame > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(interval > 0.0 ? interval
                                                             : 1.0));
        }
        const obs::RunView view = obs::read_run_status(directory, ledger_dir);
        // ANSI clear + home, like any terminal dashboard; harmless when
        // redirected to a file.
        std::printf("\033[2J\033[H%s", obs::render_run_top(view).c_str());
        std::fflush(stdout);
    }
    return 0;
}

/// --log-level debug|info|warn|error|off (any subcommand). Returns false
/// after a diagnostic when the value is unknown.
bool apply_log_level(const Args& args) {
    if (!args.has("log-level")) return true;
    const std::optional<util::LogLevel> level =
        util::parse_log_level(args.get("log-level"));
    if (!level) {
        std::fprintf(stderr, "unknown --log-level: %s\n",
                     args.get("log-level").c_str());
        return false;
    }
    util::Log::set_level(*level);
    return true;
}

int cmd_pattern(const Args& args) {
    if (args.has("info")) {
        const testgen::TestPattern pattern =
            testgen::load_pattern_file(args.get("info"));
        const testgen::FeatureVector fv =
            testgen::extract_pattern_features(pattern);
        std::printf("pattern '%s': %zu cycles\n", pattern.name().c_str(),
                    pattern.size());
        for (std::size_t f = 0; f < testgen::kPatternFeatureCount; ++f) {
            std::printf("  %-20s %.3f\n",
                        std::string(testgen::FeatureVector::name(f)).c_str(),
                        fv[f]);
        }
        return 0;
    }
    if (!args.has("march") || !args.has("out")) {
        std::fprintf(stderr,
                     "pattern requires --march NAME --out FILE or --info\n");
        return 2;
    }
    const std::string which = args.get("march");
    testgen::TestPattern pattern;
    if (which == "c-") pattern = testgen::march_c_minus().expand();
    else if (which == "mats+") pattern = testgen::mats_plus().expand();
    else if (which == "x") pattern = testgen::march_x().expand();
    else if (which == "y") pattern = testgen::march_y().expand();
    else if (which == "checkerboard") pattern = testgen::checkerboard();
    else {
        std::fprintf(stderr, "unknown march: %s\n", which.c_str());
        return 2;
    }
    testgen::save_pattern_file(args.get("out"), pattern);
    std::printf("%s (%zu cycles) written to %s\n", pattern.name().c_str(),
                pattern.size(), args.get("out").c_str());
    return 0;
}

/// Flags each verb reads, besides the global --log-level and, for hunt
/// and lot, kRunFlags. A flag outside its verb's list (a typo or a
/// retired option) is rejected instead of silently ignored. Returns false
/// after naming the flag.
bool flags_known(const std::string& verb, const Args& args) {
    static const std::map<std::string, std::vector<std::string_view>>
        kFlags = {
            {"selftest", {}},
            {"hunt",
             {"seed", "coding", "generations", "populations", "jobs",
              "inflight", "cache",
              "abort-after-generation", "db", "model"}},
            {"shmoo", {"seed", "tests", "csv"}},
            {"screen", {"db", "limit", "lot", "seed"}},
            {"campaign", {"seed", "tests", "generations"}},
            {"lot",
             {"sites", "jobs", "inflight", "seed", "params", "tests",
              "generations", "max-sites"}},
            {"ledger", {"out"}},
            {"status", {"json", "ledger"}},
            {"top", {"interval", "iterations", "ledger"}},
            {"pattern", {"march", "out", "info"}},
            {"trace-report", {"top", "phase"}},
        };
    const auto it = kFlags.find(verb);
    if (it == kFlags.end()) return true;  // unknown verb: usage() says so
    std::vector<std::string_view> known = it->second;
    known.emplace_back("log-level");
    if (verb == "hunt" || verb == "lot") {
        known.insert(known.end(), std::begin(kRunFlags), std::end(kRunFlags));
    }
    const std::optional<std::string> unknown = args.first_unknown(known);
    if (!unknown) return true;
    std::fprintf(stderr, "cichar %s: unknown flag --%s\n", verb.c_str(),
                 unknown->c_str());
    return false;
}

/// Flag combinations whose extra flag the verb would silently ignore are
/// rejected at parse time, like unknown flags. Returns false after
/// naming the combination.
bool flags_consistent(const std::string& verb, const Args& args) {
    const auto reject = [&](const char* why) {
        std::fprintf(stderr, "cichar %s: %s\n", verb.c_str(), why);
        return false;
    };
    const bool hunt = verb == "hunt";
    if (!hunt && verb != "lot") return true;
    if (args.has("status-interval") && !args.has("status")) {
        return reject("--status-interval needs --status");
    }
    // Each run verb's early stop leaves a partial run that only its
    // --checkpoint can finish.
    const std::string stop = hunt ? "abort-after-generation" : "max-sites";
    if (args.has(stop) && !args.has("checkpoint")) {
        return reject(("--" + stop + " needs --checkpoint").c_str());
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    if (command == "trace-report") {
        // Positional FILE operand: parse flags after it.
        if (argc < 3 || argv[2][0] == '-') return usage();
        const Args args(argc, argv, 3);
        if (!args.ok() || !apply_log_level(args)) return usage();
        if (!flags_known(command, args)) return 2;
        try {
            return cmd_trace_report(argv[2], args);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    if (command == "status" || command == "top") {
        // Positional DIR operand: parse flags after it.
        if (argc < 3 || argv[2][0] == '-') return usage();
        const Args args(argc, argv, 3);
        if (!args.ok() || !apply_log_level(args)) return usage();
        if (!flags_known(command, args)) return 2;
        try {
            return command == "status" ? cmd_status(argv[2], args)
                                       : cmd_top(argv[2], args);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    if (command == "ledger") {
        // Action + directory are positional: cichar ledger verify DIR
        const Args args(argc, argv, 2, Args::Positionals::kCollect);
        if (!apply_log_level(args) || !flags_known(command, args)) return 2;
        try {
            return cmd_ledger(args);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    const Args args(argc, argv, 2);
    if (!args.ok()) return usage();
    if (!apply_log_level(args) || !flags_known(command, args) ||
        !flags_consistent(command, args)) {
        return 2;
    }
    try {
        if (command == "selftest") return cmd_selftest(args);
        if (command == "hunt") return cmd_hunt(args);
        if (command == "shmoo") return cmd_shmoo(args);
        if (command == "screen") return cmd_screen(args);
        if (command == "campaign") return cmd_campaign(args);
        if (command == "lot") return cmd_lot(args);
        if (command == "pattern") return cmd_pattern(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
