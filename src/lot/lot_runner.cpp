#include "lot/lot_runner.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "obs/status_board.hpp"
#include "util/binio.hpp"
#include "util/crash_point.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace cichar::lot {
namespace {

obs::SitePhase status_phase(SiteStatus status) noexcept {
    switch (status) {
        case SiteStatus::kCompleted: return obs::SitePhase::kDone;
        case SiteStatus::kQuarantined: return obs::SitePhase::kQuarantined;
        case SiteStatus::kDead: return obs::SitePhase::kDead;
        case SiteStatus::kPending: break;
    }
    return obs::SitePhase::kPending;
}

std::vector<obs::SiteOutcomeEntry> distill_outcomes(const SiteResult& site) {
    std::vector<obs::SiteOutcomeEntry> outcomes;
    outcomes.reserve(site.outcomes.size());
    for (const SiteParameterOutcome& outcome : site.outcomes) {
        obs::SiteOutcomeEntry entry;
        entry.parameter = outcome.parameter.name;
        entry.found = outcome.worst.found;
        entry.trip_point = outcome.worst.trip_point;
        entry.wcr = outcome.worst.wcr;
        entry.margin_risk = outcome.margin_risk;
        outcomes.push_back(std::move(entry));
    }
    return outcomes;
}

}  // namespace

const char* to_string(SiteStatus status) noexcept {
    switch (status) {
        case SiteStatus::kPending: return "pending";
        case SiteStatus::kCompleted: return "ok";
        case SiteStatus::kQuarantined: return "quarantined";
        case SiteStatus::kDead: return "dead";
    }
    return "?";
}

bool LotResult::complete() const noexcept {
    return std::all_of(sites.begin(), sites.end(),
                       [](const SiteResult& s) { return s.finished(); });
}

std::size_t LotResult::finished_sites() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(sites.begin(), sites.end(),
                      [](const SiteResult& s) { return s.finished(); }));
}

LotRunner::LotRunner(LotOptions options) : options_(std::move(options)) {
    if (options_.parameters.empty()) {
        options_.parameters = {ate::Parameter::data_valid_time()};
    }
}

std::string LotRunner::fingerprint() const {
    // Everything that changes per-site results belongs here; `jobs` and
    // the checkpoint knobs do not (results are thread-count independent).
    std::ostringstream out;
    out << "lot:seed=" << options_.seed << ":sites=" << options_.sites
        << ":params=";
    for (const ate::Parameter& parameter : options_.parameters) {
        out << parameter.name << ",";
    }
    out << ":faults=" << options_.faults.describe()
        << ":policy=" << (options_.policy.enabled ? 1 : 0)
        << ":quarantine=" << options_.policy.quarantine_after
        // Sites hunt with the reference site's committee: a checkpoint
        // from before, when every site learned its own, must not resume.
        << ":learn=reference";
    // Replica-mode sites learn and hunt on clones instead of in situ,
    // which changes per-site results — but the depth itself (like jobs)
    // does not, so only the mode is fingerprinted and checkpoints resume
    // across any inflight >= 1. Token 2 since learning joined the hunt on
    // replicas: a token-1 checkpoint holds sites that learned in situ.
    // Appended only in replica mode, so a classic lot's fingerprint
    // carries no replica token.
    if (options_.inflight > 0) out << ":replica=2";
    return out.str();
}

namespace {

/// Encodes the sites `keep` selects, in vector order.
template <typename Keep>
std::string encode_sites(const std::vector<SiteResult>& sites, Keep keep) {
    std::string out;
    std::uint64_t kept = 0;
    for (const SiteResult& site : sites) {
        if (keep(site)) ++kept;
    }
    util::put_u64(out, kept);
    for (const SiteResult& site : sites) {
        if (!keep(site)) continue;
        util::put_u64(out, site.site);
        util::put_u64(out, static_cast<std::uint64_t>(site.status));
        util::put_double(out, site.max_risk);
        site.faults.save(out);
        site.injected.save(out);
        site.log.save(out);
        util::put_u64(out, site.outcomes.size());
        for (const SiteParameterOutcome& outcome : site.outcomes) {
            util::put_string(out, outcome.parameter.name);
            outcome.worst.save(out);
            util::put_double(out, outcome.margin_risk);
        }
    }
    return out;
}

// Smallest encodings get_count bounds the counts by: a site is at least
// its index, status, risk and outcome count; an outcome at least a name
// length prefix and its margin risk.
constexpr std::size_t kSiteMinBytes = 4 * 8;
constexpr std::size_t kOutcomeMinBytes = 2 * 8;

}  // namespace

std::string encode_finished_sites(const std::vector<SiteResult>& sites) {
    return encode_sites(sites,
                        [](const SiteResult& site) { return site.finished(); });
}

std::vector<SiteResult> decode_finished_sites(const std::string& payload) {
    util::ByteReader in(payload);
    const std::size_t finished = in.get_count(kSiteMinBytes);
    std::vector<SiteResult> decoded;
    decoded.reserve(finished);
    for (std::size_t i = 0; i < finished; ++i) {
        SiteResult site;
        site.site = static_cast<std::size_t>(in.get_u64());
        const std::uint64_t status = in.get_u64();
        if (status == static_cast<std::uint64_t>(SiteStatus::kPending) ||
            status > static_cast<std::uint64_t>(SiteStatus::kDead)) {
            throw std::runtime_error("lot checkpoint payload: bad site status");
        }
        site.status = static_cast<SiteStatus>(status);
        site.max_risk = in.get_double();
        site.faults = core::FaultCounters::load(in);
        site.injected = ate::InjectionStats::load(in);
        site.log.load(in);
        const std::size_t outcomes = in.get_count(kOutcomeMinBytes);
        site.outcomes.reserve(outcomes);
        for (std::size_t p = 0; p < outcomes; ++p) {
            SiteParameterOutcome outcome;
            outcome.parameter.name = in.get_string();
            outcome.worst = core::TripPointRecord::load(in);
            outcome.margin_risk = in.get_double();
            site.outcomes.push_back(std::move(outcome));
        }
        site.restored = true;
        decoded.push_back(std::move(site));
    }
    if (!in.at_end()) {
        throw std::runtime_error("lot checkpoint payload: trailing bytes");
    }
    return decoded;
}

void install_finished_sites(const std::vector<SiteResult>& decoded,
                            const std::vector<ate::Parameter>& parameters,
                            std::vector<SiteResult>& sites) {
    if (decoded.size() > sites.size()) {
        throw std::runtime_error("lot resume: more sites than the lot has");
    }
    for (const SiteResult& entry : decoded) {
        if (entry.site >= sites.size()) {
            throw std::runtime_error("lot resume: site index out of range");
        }
        SiteResult& site = sites[entry.site];
        if (site.finished()) {
            throw std::runtime_error("lot resume: duplicate site");
        }
        if (entry.outcomes.size() > parameters.size()) {
            throw std::runtime_error("lot resume: too many parameters");
        }
        site.status = entry.status;
        site.max_risk = entry.max_risk;
        site.faults = entry.faults;
        site.injected = entry.injected;
        site.log = entry.log;
        site.outcomes.clear();
        site.outcomes.reserve(entry.outcomes.size());
        for (std::size_t p = 0; p < entry.outcomes.size(); ++p) {
            SiteParameterOutcome outcome = entry.outcomes[p];
            if (outcome.parameter.name != parameters[p].name) {
                throw std::runtime_error("lot resume: parameter mismatch");
            }
            outcome.parameter = parameters[p];
            site.outcomes.push_back(std::move(outcome));
        }
        site.restored = true;
    }
}

namespace {

/// One site's chip, tester and campaign, built from the site's
/// pre-committed stream in the order every site has always drawn it: the
/// chip's noise seed first, then (with the policy on) two policy seeds,
/// then one stream per parameter. The rig owns a copy of the site's
/// fault injector, so a rig that is thrown away leaves the site's
/// streams fresh for another.
struct SiteRig {
    SiteRig(const util::Rng& site_rng, const device::DieParameters& die,
            const device::MemoryChipOptions& chip_options,
            const ate::TesterOptions& tester_options,
            const ate::FaultInjector* site_injector)
        : rng(site_rng),
          chip(die, seeded(chip_options, rng)),
          injector(site_injector != nullptr
                       ? std::optional<ate::FaultInjector>(*site_injector)
                       : std::nullopt),
          tester(chip, tester_options) {
        if (injector) tester.attach_fault_injector(&*injector);
    }
    SiteRig(const SiteRig&) = delete;
    SiteRig& operator=(const SiteRig&) = delete;

    static device::MemoryChipOptions seeded(device::MemoryChipOptions options,
                                            util::Rng& rng) {
        options.seed = rng();  // independent per-site noise stream
        return options;
    }

    util::Rng rng;
    device::MemoryTestChip chip;
    std::optional<ate::FaultInjector> injector;
    ate::Tester tester;
    std::optional<core::CharacterizationCampaign> campaign;
    std::vector<util::Rng> streams;  ///< one per parameter
};

}  // namespace

LotResult LotRunner::run() const {
    LotResult result;
    result.seed = options_.seed;
    result.jobs = options_.jobs;
    result.parameters = options_.parameters;
    result.fault_profile = options_.faults.describe();
    result.policy_enabled = options_.policy.enabled;
    if (options_.sites == 0) return result;

    // Pre-commit all randomness sequentially: wafer sample first, then one
    // forked stream (and, with faults on, one fault injector) per site.
    // Nothing below this point draws from lot_rng or the lot injector, so
    // scheduling cannot perturb any stream — and a resumed lot forks the
    // exact same per-site streams as the interrupted one.
    util::Rng lot_rng(options_.seed);
    const std::vector<device::DieParameters> dies =
        options_.process.sample_wafer(options_.sites, lot_rng);
    std::vector<util::Rng> site_rngs;
    site_rngs.reserve(options_.sites);
    for (std::size_t site = 0; site < options_.sites; ++site) {
        site_rngs.push_back(lot_rng.fork(site + 1));
    }
    const bool faults_on = options_.faults.any();
    std::vector<ate::FaultInjector> site_injectors;
    if (faults_on) {
        ate::FaultInjector lot_injector(options_.faults);
        site_injectors.reserve(options_.sites);
        for (std::size_t site = 0; site < options_.sites; ++site) {
            site_injectors.push_back(lot_injector.fork(site + 1));
        }
    }

    result.sites.resize(options_.sites);
    for (std::size_t site = 0; site < options_.sites; ++site) {
        result.sites[site].site = site;
        result.sites[site].die = dies[site];
    }

    const std::string lot_fingerprint = fingerprint();
    if (!options_.checkpoint.resume_blob.empty()) {
        std::string payload;
        if (!core::decode_checkpoint(options_.checkpoint.resume_blob,
                                     lot_fingerprint, payload)) {
            throw std::runtime_error(
                "lot resume: checkpoint is corrupt or from a different lot "
                "configuration");
        }
        install_finished_sites(decode_finished_sites(payload),
                               options_.parameters, result.sites);
    }

    // New sites this run may finish: every unfinished one, or at most
    // max_sites_per_run of them.
    std::size_t budget = static_cast<std::size_t>(
        std::count_if(result.sites.begin(), result.sites.end(),
                      [](const SiteResult& s) { return !s.finished(); }));
    if (options_.checkpoint.max_sites_per_run > 0) {
        budget = std::min(budget, options_.checkpoint.max_sites_per_run);
    }

    const bool observing = obs::status_enabled();
    if (observing) {
        // Out-of-band status feed (invisibility contract: no RNG draws,
        // no result mutation — the feed on/off leaves every report,
        // checkpoint, and ledger byte identical).
        obs::StatusBoard::instance().begin_campaign(
            "lot", lot_fingerprint, options_.seed, options_.sites);
        for (const SiteResult& site : result.sites) {
            if (!site.finished()) continue;
            obs::StatusBoard::instance().site_finished(
                site.site, status_phase(site.status), distill_outcomes(site),
                0.0, site.faults.retried_measurements,
                site.faults.interventions(), /*restored=*/true);
        }
    }

    const auto build_rig = [&](std::optional<SiteRig>& rig, std::size_t site) {
        rig.emplace(site_rngs[site], dies[site], options_.chip,
                    options_.tester,
                    faults_on ? &site_injectors[site] : nullptr);
        core::CharacterizerOptions characterizer = options_.characterizer;
        // Only the reference site learns; its committee training and NN
        // scoring use the lot's workers (bit-identical at any count).
        characterizer.learner.committee.jobs = options_.jobs;
        if (options_.inflight > 0) {
            // The site's thread owns the hunt ring (one ordering domain,
            // `inflight` deep, so results match the single-hunt replica
            // path byte for byte at any depth); measurements evaluate
            // inline on it, and emulated tester latency rides the
            // completion deadlines.
            characterizer.optimizer.parallel.enabled = true;
            characterizer.optimizer.parallel.jobs = 1;
            characterizer.optimizer.parallel.inflight = options_.inflight;
        }
        if (options_.policy.enabled) {
            // Per-site policy seeds, drawn only when the policy is on so
            // a disabled policy leaves the site stream untouched.
            characterizer.learner.trip.policy = options_.policy;
            characterizer.learner.trip.policy.seed = rig->rng();
            characterizer.optimizer.trip.policy = options_.policy;
            characterizer.optimizer.trip.policy.seed = rig->rng();
        }
        if (observing || options_.on_generation) {
            // Progress hook only — installing it never changes the GA
            // trajectory (the optimizer calls it outside the fitness
            // path and ignores its effects).
            characterizer.optimizer.on_generation =
                [this, site](const core::HuntProgress& hunt) {
                    if (obs::status_enabled()) {
                        obs::GenerationPost post;
                        post.generation = hunt.next_generation;
                        post.generations_total = hunt.max_generations;
                        post.evaluations = hunt.evaluations;
                        post.best_wcr = hunt.best_fitness;
                        post.ate_applications = hunt.ate_applications;
                        post.cache_hits = hunt.cache.hits;
                        post.cache_misses = hunt.cache.misses;
                        post.inflight = hunt.inflight;
                        obs::StatusBoard::instance().post_generation(site,
                                                                     post);
                    }
                    if (options_.on_generation) {
                        options_.on_generation(site, hunt);
                    }
                };
        }
        rig->campaign.emplace(rig->tester, options_.parameters,
                              std::move(characterizer));
        rig->streams = rig->campaign->parameter_streams(rig->rng);
    };

    // Serializes "mark finished + snapshot the finished set" so the
    // checkpoint sink never observes a half-written SiteResult.
    std::mutex checkpoint_mutex;
    std::vector<char> finished(options_.sites, 0);
    for (std::size_t site = 0; site < options_.sites; ++site) {
        finished[site] = result.sites[site].finished() ? 1 : 0;
    }
    util::ProgressCounter progress(budget);

    // Closes a site whose status is set: its ledger (partial for a lost
    // site) and injector tally, the status feed, the checkpoint, and the
    // progress hooks.
    using Clock = std::chrono::steady_clock;
    const auto settle_site = [&](std::size_t site, const SiteRig& rig,
                                 Clock::time_point started) {
        SiteResult& out = result.sites[site];
        out.log = rig.tester.log();
        if (rig.injector) out.injected = rig.injector->stats();
        if (observing) {
            const double seconds =
                std::chrono::duration<double>(Clock::now() - started).count();
            obs::StatusBoard::instance().site_finished(
                site, status_phase(out.status), distill_outcomes(out), seconds,
                out.faults.retried_measurements, out.faults.interventions());
        }

        {
            const std::lock_guard<std::mutex> lock(checkpoint_mutex);
            finished[site] = 1;
            if (options_.checkpoint.save) {
                // Only sites marked finished under the lock are read, so
                // concurrent writers' entries are never read mid-write.
                options_.checkpoint.save(core::encode_checkpoint(
                    lot_fingerprint,
                    encode_sites(result.sites, [&](const SiteResult& s) {
                        return finished[s.site] != 0;
                    })));
                CICHAR_CRASH_POINT("lot.runner.post_site_checkpoint");
            }
        }
        const std::size_t done = progress.tick();
        if (util::telemetry::metrics_enabled()) {
            namespace telem = util::telemetry;
            static auto& completed = telem::Registry::instance().counter(
                "cichar_lot_sites_completed_total");
            static auto& in_run = telem::Registry::instance().gauge(
                "cichar_lot_sites_in_run");
            completed.add();
            in_run.set(static_cast<double>(done));
        }
        if (options_.on_progress) options_.on_progress(done, options_.sites);
    };

    if (util::telemetry::metrics_enabled()) {
        namespace telem = util::telemetry;
        static auto& total =
            telem::Registry::instance().gauge("cichar_lot_sites_total");
        total.set(static_cast<double>(options_.sites));
    }
    const auto start = Clock::now();

    // The learn phase, once per lot and before any site hunts: the
    // reference site (the first in index order whose learning survives)
    // learns every parameter and scores its NN seeds. A candidate that
    // dies or is quarantined while learning is finished with that status
    // and its partial ledger, and the next one tries. A restored
    // candidate re-learns on a fresh rig of its own streams, which
    // repeats the interrupted run's learning exactly, and the rig is then
    // dropped: its results stand in the checkpoint.
    std::optional<SiteRig> reference_rig;
    std::vector<core::LearnedParameter> learned;
    std::size_t settled = 0;  // sites the learn phase finished
    Clock::time_point reference_start{};
    if (budget > 0) {
        TELEM_SPAN("lot.reference_learn");
        for (std::size_t site = 0; site < options_.sites && settled < budget;
             ++site) {
            const util::LogContext log_ctx("site=" + std::to_string(site));
            const bool fresh = !result.sites[site].finished();
            reference_start = Clock::now();
            if (fresh && observing) {
                obs::StatusBoard::instance().begin_site(site);
            }
            build_rig(reference_rig, site);
            SiteStatus lost{};
            try {
                for (std::size_t p = 0; p < options_.parameters.size(); ++p) {
                    learned.push_back(reference_rig->campaign->learn(
                        p, reference_rig->streams[p]));
                }
                result.reference_site = site;
                break;
            } catch (const ate::SiteDeadError&) {
                lost = SiteStatus::kDead;
            } catch (const core::SiteQuarantinedError&) {
                lost = SiteStatus::kQuarantined;
            }
            learned.clear();
            if (fresh) {
                result.sites[site].status = lost;
                result.sites[site].max_risk = 1.0;  // no answer: maximum risk
                settle_site(site, *reference_rig, reference_start);
                ++settled;
            }
        }
    }
    for (const core::LearnedParameter& parameter : learned) {
        result.learned.push_back(parameter.learned);
    }

    std::vector<std::size_t> to_run;
    if (result.reference_site) {
        if (result.sites[*result.reference_site].finished()) {
            reference_rig.reset();
        }
        CICHAR_CRASH_POINT("lot.runner.post_reference_learn");
        for (std::size_t site = 0; site < options_.sites; ++site) {
            if (!result.sites[site].finished()) to_run.push_back(site);
        }
        to_run.resize(std::min(to_run.size(), budget - settled));
    }

    // The hunt phase: every site hunts on its own rig and streams with the
    // shared committee and seeds; the reference site keeps the rig it
    // learned on. A site's generation-0 measurements fill its residual
    // memory, which aligns the shared committee to its die.
    const auto hunt_site = [&](std::size_t site) {
        TELEM_SPAN("lot.site");
        const util::LogContext log_ctx("site=" + std::to_string(site));
        const bool is_reference = site == result.reference_site;
        Clock::time_point site_start = reference_start;
        std::optional<SiteRig> own_rig;
        if (!is_reference) {
            site_start = Clock::now();
            if (observing) {
                obs::StatusBoard::instance().begin_site(
                    site, obs::SitePhase::kHunting);
            }
            build_rig(own_rig, site);
        }
        SiteRig& rig = is_reference ? *reference_rig : *own_rig;

        SiteResult& out = result.sites[site];
        try {
            std::vector<core::ParameterCampaign> campaigns;
            campaigns.reserve(learned.size());
            for (std::size_t p = 0; p < learned.size(); ++p) {
                campaigns.push_back(
                    rig.campaign->hunt(p, learned[p], rig.streams[p]));
            }
            out.campaigns = std::move(campaigns);
            out.status = SiteStatus::kCompleted;
            out.max_risk = 0.0;
            for (const core::ParameterCampaign& c : out.campaigns) {
                SiteParameterOutcome outcome;
                outcome.parameter = c.parameter;
                outcome.worst = c.report.worst_record;
                outcome.margin_risk = c.margin_risk;
                out.outcomes.push_back(std::move(outcome));
                out.max_risk = std::max(out.max_risk, c.margin_risk);
                // The learning's policy activity is the reference site's.
                if (is_reference) out.faults.merge(c.learned->faults);
                out.faults.merge(c.report.faults);
            }
        } catch (const ate::SiteDeadError&) {
            out.status = SiteStatus::kDead;
            out.max_risk = 1.0;  // a site with no answer is maximum risk
        } catch (const core::SiteQuarantinedError&) {
            out.status = SiteStatus::kQuarantined;
            out.max_risk = 1.0;
        }
        settle_site(site, rig, site_start);
    };

    util::ThreadPool pool(options_.jobs);
    for (const std::size_t site : to_run) {
        pool.submit([&hunt_site, site] { hunt_site(site); });
    }
    pool.wait();
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    // Merge in site order so the lot ledger is thread-count independent.
    for (const SiteResult& site : result.sites) {
        if (site.finished()) result.merged_log.merge(site.log);
    }
    return result;
}

}  // namespace cichar::lot
