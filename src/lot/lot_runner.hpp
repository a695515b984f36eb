// Multi-site lot characterization engine. Production ATEs characterize a
// wafer lot by running many sites in parallel; this runner samples N dies
// from the process-variation model and gives every site its own DUT +
// tester + forked RNG stream. It learns once per lot: a reference site
// runs the Fig. 4 learning loop and scores the NN seeds for every
// parameter before the sites start, and then every site runs the GA hunt
// + spec-proposal phase with that shared committee on a util::ThreadPool.
// Each site's hunt aligns the shared committee to its own die through the
// residuals of its measured evaluations (core::ResidualMemory).
//
// Determinism contract: the lot seed fully determines every per-site
// result and the aggregated LotReport, *independent of the thread count*.
// All randomness is pre-committed on the calling thread — the wafer is
// sampled, one Rng per site is forked, and (with faults enabled) one
// FaultInjector per site is forked before any task is submitted — so
// workers never share a stochastic state. The reference site is chosen
// serially: site 0, or the first site in index order whose learning
// neither dies nor is quarantined. It learns on its own streams exactly as
// a site always did and keeps its tester for its hunt, so its results do
// not depend on which other sites the lot has.
//
// Fault tolerance: an optional FaultProfile gives every site its own
// deterministic fault stream, and an optional MeasurementPolicy screens
// and retries each site's measurements. A site that dies (SiteDeadError)
// or crosses the quarantine limit (SiteQuarantinedError) is recorded with
// its status and partial ledger; the lot completes on the surviving
// sites. A candidate reference lost during learning is recorded the same
// way before the next candidate learns. With both knobs off the lot is
// byte-identical to a build that predates them.
//
// Crash-safe resume: with a checkpoint sink installed, the runner emits a
// versioned blob after every finished site. A later run handed that blob
// via `resume_blob` restores the finished sites (distilled results: trip
// records, risk, ledger, health), re-learns on a fresh copy of the
// reference site's streams (dropping that rig when the reference itself
// was restored), and only characterizes the rest — producing a LotReport
// byte-identical to an uninterrupted lot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ate/fault_injector.hpp"
#include "ate/measurement_log.hpp"
#include "core/campaign.hpp"
#include "core/measurement_policy.hpp"
#include "device/memory_chip.hpp"
#include "device/process.hpp"

namespace cichar::lot {

/// Crash-safe lot resume knobs.
struct LotCheckpointOptions {
    /// Called with a fresh checkpoint blob after every finished site
    /// (from worker threads, serialized internally; persist it with
    /// core::write_checkpoint_file or util::atomic_write_file).
    std::function<void(const std::string&)> save{};
    /// Blob from a previous (interrupted) run of the *same* lot
    /// configuration. Finished sites are restored instead of re-run.
    /// A blob from a different configuration is rejected (throws).
    std::string resume_blob{};
    /// Characterize at most this many *new* sites, then return a partial
    /// LotResult (stop-and-go lots; 0 = no cap). Only meaningful with a
    /// checkpoint sink to carry the finished sites forward.
    std::size_t max_sites_per_run = 0;
};

struct LotOptions {
    /// Dies sampled from the process model (one per site).
    std::size_t sites = 8;
    /// Worker threads; 0 means one per hardware thread. Sizes the site
    /// pool and the reference site's committee training and NN scoring.
    std::size_t jobs = 1;
    /// Trip searches in flight per site ring (0 = classic serial in-situ
    /// site hunts, the pre-replica behavior and the default). >= 1
    /// switches the reference site's learning and every worst-case hunt
    /// to replica evaluation on the async submission/completion ring:
    /// each site keeps its own ring — its ordering domain — at this
    /// depth, as `cichar hunt --inflight` does for one hunt. Reports and
    /// checkpoints are byte-identical at any inflight >= 1 x jobs
    /// combination (the 0 -> >=1 switch changes the measurement
    /// discipline and is fingerprinted).
    std::size_t inflight = 0;
    /// Master seed; forks one independent stream per site.
    std::uint64_t seed = 2005;
    /// Parameters characterized at every site (empty = T_DQ only).
    std::vector<ate::Parameter> parameters{};
    /// Every site's learn and hunt settings; `learner.committee.jobs`
    /// is replaced by `jobs`.
    core::CharacterizerOptions characterizer{};
    device::ProcessVariation process{};
    /// Per-site chip behavior; the noise seed is re-derived per site.
    device::MemoryChipOptions chip{};
    ate::TesterOptions tester{};
    /// ATE fault injection, one independent stream per site (off by
    /// default: the measurement path is byte-identical to an
    /// uninstrumented lot).
    ate::FaultProfile faults{};
    /// Measurement resilience policy applied to every site's learning and
    /// hunt sessions. The per-site policy seed is derived from the site
    /// stream only when enabled, so a disabled policy changes nothing.
    /// Set quarantine_after > 0 so a hopeless site is abandoned instead
    /// of burning its full tester budget.
    core::MeasurementPolicyOptions policy{};
    LotCheckpointOptions checkpoint{};
    /// Invoked after each site completes with (sites done, sites total).
    /// Called from worker threads (already serialized by completion
    /// order), and from the calling thread for a reference candidate
    /// lost while learning; keep it cheap and thread-safe. Site
    /// completion order is scheduling-dependent — results are not.
    std::function<void(std::size_t, std::size_t)> on_progress{};
    /// Observability hook: called after every GA generation of every
    /// site's hunt with (site, progress). Runs on worker threads — keep
    /// it cheap and thread-safe; it cannot steer the lot.
    std::function<void(std::size_t, const core::HuntProgress&)>
        on_generation{};
};

/// How one site's characterization ended.
enum class SiteStatus : std::uint8_t {
    kPending,      ///< not characterized (partial stop-and-go run)
    kCompleted,    ///< full campaign finished
    kQuarantined,  ///< abandoned by the measurement policy
    kDead,         ///< the site's tester electronics died mid-campaign
};

[[nodiscard]] const char* to_string(SiteStatus status) noexcept;

/// Distilled result of one parameter at one site — everything the
/// LotReport needs, small enough to live in a checkpoint (unlike the
/// full ParameterCampaign with its NN committee).
struct SiteParameterOutcome {
    ate::Parameter parameter;
    core::TripPointRecord worst;  ///< the site's worst-case trip record
    double margin_risk = 0.0;     ///< fuzzy-fused risk score in [0, 1]
};

/// Everything one site produced.
struct SiteResult {
    std::size_t site = 0;
    device::DieParameters die;
    SiteStatus status = SiteStatus::kPending;
    /// Distilled per-parameter results (empty when the site died or was
    /// quarantined before finishing). Always populated for finished
    /// sites, whether characterized live or restored from a checkpoint.
    std::vector<SiteParameterOutcome> outcomes;
    /// Full campaigns (hunt reports, proposals, and the shared learning
    /// they ran with). Populated only for sites characterized in *this*
    /// run — a checkpoint carries the distilled outcomes, not the
    /// committees.
    std::vector<core::ParameterCampaign> campaigns;
    ate::MeasurementLog log;   ///< this site's tester ledger
    double max_risk = 0.0;     ///< worst fuzzy margin risk across parameters
    /// Resilience-policy interventions on this site (learning + hunt).
    core::FaultCounters faults;
    /// Faults the site's injector actually fired (zero with faults off).
    ate::InjectionStats injected;
    /// True when this result was restored from a checkpoint.
    bool restored = false;

    [[nodiscard]] bool finished() const noexcept {
        return status != SiteStatus::kPending;
    }
};

/// Whole-lot outcome, sites in site-index order.
struct LotResult {
    std::uint64_t seed = 0;
    std::size_t jobs = 1;
    /// The lot's parameter list (so the report can name parameters even
    /// when no site survived to characterize them).
    std::vector<ate::Parameter> parameters;
    std::vector<SiteResult> sites;
    /// The site whose learning every site of this run hunted with; empty
    /// when no site hunted in this run (nothing was left, or every
    /// candidate the run could try was lost while learning).
    std::optional<std::size_t> reference_site;
    /// The reference site's learning, one per parameter in parameter
    /// order. Every campaign of `sites` points at these; the learning
    /// tests' ATE applications are in the reference site's ledger only.
    std::vector<std::shared_ptr<const core::LearnResult>> learned;
    ate::MeasurementLog merged_log;  ///< finished-site ledgers, site order
    /// The lot's fault profile ("off" when faults were disabled) and
    /// whether the resilience policy was active — rendered in the report.
    std::string fault_profile = "off";
    bool policy_enabled = false;
    /// Real elapsed time of the learn and hunt phases. Reporting only —
    /// never rendered into the deterministic LotReport.
    double wall_seconds = 0.0;

    /// All sites finished (false after a max_sites_per_run partial run).
    [[nodiscard]] bool complete() const noexcept;
    [[nodiscard]] std::size_t finished_sites() const noexcept;
};

class LotRunner {
public:
    LotRunner() = default;
    explicit LotRunner(LotOptions options);

    [[nodiscard]] const LotOptions& options() const noexcept {
        return options_;
    }

    /// The checkpoint fingerprint of this lot configuration; a resume
    /// blob whose fingerprint differs is rejected.
    [[nodiscard]] std::string fingerprint() const;

    /// Samples the lot, learns on the reference site, and characterizes
    /// every (remaining) site. Thread-count independent given the same
    /// options (excluding `jobs`). Throws std::runtime_error when
    /// `resume_blob` is set but corrupt or from a different lot
    /// configuration.
    [[nodiscard]] LotResult run() const;

private:
    LotOptions options_;
};

// ---------------------------------------------------------------------
// Lot-checkpoint payload codec. The runner distills every finished site
// into this payload (wrapped in the core::checkpoint envelope); a resumed
// run decodes it and installs the finished sites, and the CLI's ledger
// sink decodes it to append each finished site's trip records.

/// Serializes the finished sites of `sites` (pending ones are skipped)
/// in vector order. Only distilled state is kept: status, risk, health
/// counters, ledger, and per-parameter trip records — not committees.
[[nodiscard]] std::string encode_finished_sites(
    const std::vector<SiteResult>& sites);

/// Parses a payload back into standalone SiteResults (every entry
/// finished, `restored` set). Parameter descriptors carry only their
/// names — the caller that knows the lot configuration re-attaches the
/// full descriptors (install_finished_sites does). Throws
/// std::runtime_error on any truncation or malformed field.
[[nodiscard]] std::vector<SiteResult> decode_finished_sites(
    const std::string& payload);

/// Installs decoded entries into a lot's site array, validating site
/// indices, duplicate/finished collisions, and parameter names against
/// `parameters`. Throws std::runtime_error on any mismatch.
void install_finished_sites(const std::vector<SiteResult>& decoded,
                            const std::vector<ate::Parameter>& parameters,
                            std::vector<SiteResult>& sites);

}  // namespace cichar::lot
