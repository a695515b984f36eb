#include "lot/lot_runner.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ate/async_tester.hpp"
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
        << ":quarantine=" << options_.policy.quarantine_after;
    // Replica-mode site hunts measure on clones instead of in situ, which
    // changes per-site results — but the depth itself (like jobs) does
    // not, so only the on/off bit is fingerprinted and checkpoints
    // resume across any inflight >= 1.
    // Appended conditionally so classic-lot checkpoints keep their
    // pre-replica fingerprint.
    if (options_.inflight > 0) out << ":replica=1";
    return out.str();
}

std::string encode_finished_sites(const std::vector<SiteResult>& sites) {
    std::string out;
    std::uint64_t finished = 0;
    for (const SiteResult& site : sites) {
        if (site.finished()) ++finished;
    }
    util::put_u64(out, finished);
    for (const SiteResult& site : sites) {
        if (!site.finished()) continue;
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

std::vector<SiteResult> decode_finished_sites(const std::string& payload) {
    // Corruption guard only — real lots are far smaller. A count above it
    // means the length field itself is garbage.
    constexpr std::uint64_t kMaxSites = 1 << 20;
    constexpr std::uint64_t kMaxParameters = 1024;
    util::ByteReader in(payload);
    const std::uint64_t finished = in.get_u64();
    if (finished > kMaxSites) {
        throw std::runtime_error("lot checkpoint payload: absurd site count");
    }
    std::vector<SiteResult> decoded;
    decoded.reserve(static_cast<std::size_t>(finished));
    for (std::uint64_t i = 0; i < finished; ++i) {
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
        const std::uint64_t outcomes = in.get_u64();
        if (outcomes > kMaxParameters) {
            throw std::runtime_error("lot checkpoint payload: too many parameters");
        }
        site.outcomes.reserve(static_cast<std::size_t>(outcomes));
        for (std::uint64_t p = 0; p < outcomes; ++p) {
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

    if (!options_.checkpoint.resume_blob.empty()) {
        std::string payload;
        if (!core::decode_checkpoint(options_.checkpoint.resume_blob,
                                     fingerprint(), payload)) {
            throw std::runtime_error(
                "lot resume: checkpoint is corrupt or from a different lot "
                "configuration");
        }
        install_finished_sites(decode_finished_sites(payload),
                               options_.parameters, result.sites);
    }

    std::vector<std::size_t> to_run;
    for (std::size_t site = 0; site < options_.sites; ++site) {
        if (!result.sites[site].finished()) to_run.push_back(site);
    }
    if (options_.checkpoint.max_sites_per_run > 0 &&
        to_run.size() > options_.checkpoint.max_sites_per_run) {
        to_run.resize(options_.checkpoint.max_sites_per_run);
    }

    if (obs::status_enabled()) {
        // Out-of-band status feed (invisibility contract: no RNG draws,
        // no result mutation — the feed on/off leaves every report,
        // checkpoint, and ledger byte identical).
        obs::StatusBoard::instance().begin_campaign(
            "lot", fingerprint(), options_.seed, options_.sites);
        for (const SiteResult& site : result.sites) {
            if (!site.finished()) continue;
            obs::StatusBoard::instance().site_finished(
                site.site, status_phase(site.status), distill_outcomes(site),
                0.0, site.faults.retried_measurements,
                site.faults.interventions(), /*restored=*/true);
        }
    }

    // Replica-mode hunts: one lot-wide inflight budget, donated between
    // sites. Each site's ring stays its own ordering domain, so results
    // match the single-hunt replica path byte for byte at any depth.
    // Every site holds a guaranteed floor of 1; only the depth beyond
    // the floors is donatable.
    const bool replica_hunts = options_.inflight > 0;
    std::optional<ate::SharedRingCredits> shared_credits;
    if (replica_hunts) {
        shared_credits.emplace(options_.inflight > options_.sites
                                   ? options_.inflight - options_.sites
                                   : 0);
    }

    // Serializes "mark finished + snapshot the finished set" so the
    // checkpoint sink never observes a half-written SiteResult.
    std::mutex checkpoint_mutex;
    std::vector<char> finished(options_.sites, 0);
    for (std::size_t site = 0; site < options_.sites; ++site) {
        finished[site] = result.sites[site].finished() ? 1 : 0;
    }
    util::ProgressCounter progress(to_run.size());

    const auto characterize_site = [&](std::size_t site) {
        TELEM_SPAN("lot.site");
        const util::LogContext log_ctx("site=" + std::to_string(site));
        const bool observing = obs::status_enabled();
        const auto site_start = std::chrono::steady_clock::now();
        if (observing) obs::StatusBoard::instance().begin_site(site);
        util::Rng rng = site_rngs[site];
        device::MemoryChipOptions chip_options = options_.chip;
        chip_options.seed = rng();  // independent per-site noise stream
        device::MemoryTestChip chip(dies[site], chip_options);
        ate::Tester tester(chip, options_.tester);
        if (faults_on) tester.attach_fault_injector(&site_injectors[site]);

        core::CharacterizerOptions characterizer = options_.characterizer;
        if (replica_hunts) {
            // The site's worker thread owns the hunt ring (one ordering
            // domain); measurements evaluate inline on it, and emulated
            // tester latency rides the completion deadlines — overlapped
            // across sites through the shared budget.
            characterizer.optimizer.parallel.enabled = true;
            characterizer.optimizer.parallel.jobs = 1;
            characterizer.optimizer.parallel.inflight = options_.inflight;
            characterizer.optimizer.parallel.shared_credits =
                &*shared_credits;
        }
        if (options_.policy.enabled) {
            // Per-site policy seeds, drawn only when the policy is on so
            // a disabled policy leaves the site stream untouched.
            characterizer.learner.trip.policy = options_.policy;
            characterizer.learner.trip.policy.seed = rng();
            characterizer.optimizer.trip.policy = options_.policy;
            characterizer.optimizer.trip.policy.seed = rng();
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
        const core::CharacterizationCampaign campaign(
            tester, options_.parameters, characterizer);

        SiteResult& out = result.sites[site];
        try {
            out.campaigns = campaign.run(rng);
            out.status = SiteStatus::kCompleted;
            out.max_risk = 0.0;
            for (const core::ParameterCampaign& c : out.campaigns) {
                SiteParameterOutcome outcome;
                outcome.parameter = c.parameter;
                outcome.worst = c.report.worst_record;
                outcome.margin_risk = c.margin_risk;
                out.outcomes.push_back(std::move(outcome));
                out.max_risk = std::max(out.max_risk, c.margin_risk);
                out.faults.merge(c.learned.faults);
                out.faults.merge(c.report.faults);
            }
        } catch (const ate::SiteDeadError&) {
            out.status = SiteStatus::kDead;
            out.max_risk = 1.0;  // a site with no answer is maximum risk
        } catch (const core::SiteQuarantinedError&) {
            out.status = SiteStatus::kQuarantined;
            out.max_risk = 1.0;
        }
        out.log = tester.log();  // partial ledger survives a dead site
        if (faults_on) out.injected = site_injectors[site].stats();
        if (observing) {
            const double seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              site_start)
                    .count();
            obs::StatusBoard::instance().site_finished(
                site, status_phase(out.status), distill_outcomes(out), seconds,
                out.faults.retried_measurements, out.faults.interventions());
        }

        {
            const std::lock_guard<std::mutex> lock(checkpoint_mutex);
            finished[site] = 1;
            if (options_.checkpoint.save) {
                std::vector<SiteResult> snapshot;
                // The sink sees only sites marked finished under the lock,
                // so concurrent writers' entries are never read mid-write.
                for (std::size_t s = 0; s < options_.sites; ++s) {
                    if (finished[s]) snapshot.push_back(result.sites[s]);
                }
                options_.checkpoint.save(core::encode_checkpoint(
                    fingerprint(), encode_finished_sites(snapshot)));
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
    const auto start = std::chrono::steady_clock::now();
    util::ThreadPool pool(options_.jobs);
    for (const std::size_t site : to_run) {
        pool.submit([&characterize_site, site] { characterize_site(site); });
    }
    pool.wait();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    // Merge in site order so the lot ledger is thread-count independent.
    for (const SiteResult& site : result.sites) {
        if (site.finished()) result.merged_log.merge(site.log);
    }
    return result;
}

}  // namespace cichar::lot
