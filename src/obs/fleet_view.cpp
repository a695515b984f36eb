#include "obs/fleet_view.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <system_error>

#include "store/ledger_format.hpp"
#include "store/ledger_payloads.hpp"
#include "util/ascii.hpp"
#include "util/binio.hpp"

namespace cichar::obs {
namespace fs = std::filesystem;
namespace {

/// Age of a file in seconds via its mtime; nullopt when unreadable.
std::optional<double> file_age_seconds(const fs::path& path) {
    std::error_code ec;
    const fs::file_time_type mtime = fs::last_write_time(path, ec);
    if (ec) return std::nullopt;
    const auto age = fs::file_time_type::clock::now() - mtime;
    return std::chrono::duration<double>(age).count();
}

/// True when `candidate` should replace `incumbent` for the same site
/// (terminal beats live, then further-along wins).
bool site_entry_wins(const SiteStatusEntry& candidate,
                     const SiteStatusEntry& incumbent) {
    const bool candidate_terminal = is_terminal(candidate.phase);
    const bool incumbent_terminal = is_terminal(incumbent.phase);
    if (candidate_terminal != incumbent_terminal) return candidate_terminal;
    if (candidate.generation != incumbent.generation) {
        return candidate.generation > incumbent.generation;
    }
    return static_cast<std::uint8_t>(candidate.phase) >
           static_cast<std::uint8_t>(incumbent.phase);
}

void fuse_sites(FleetModel& model) {
    std::map<std::uint64_t, SiteView> fused;
    for (const WorkerView& worker : model.workers) {
        model.sites_total =
            std::max(model.sites_total, worker.snapshot.sites_total);
        model.policy_retries += worker.snapshot.policy_retries;
        model.policy_interventions += worker.snapshot.policy_interventions;
        for (const SiteStatusEntry& entry : worker.snapshot.sites) {
            auto [it, inserted] = fused.try_emplace(entry.site);
            if (inserted || site_entry_wins(entry, it->second.entry)) {
                it->second.entry = entry;
                it->second.worker = worker.name;
            }
        }
    }
    // The ETA histogram: durations of every site any worker completed.
    std::vector<double> durations;
    for (const WorkerView& worker : model.workers) {
        durations.insert(durations.end(),
                         worker.snapshot.completed_seconds.begin(),
                         worker.snapshot.completed_seconds.end());
    }
    double mean_duration = 0.0;
    for (const double d : durations) mean_duration += d;
    if (!durations.empty()) {
        mean_duration /= static_cast<double>(durations.size());
    }

    for (auto& [site, view] : fused) {
        const SiteStatusEntry& entry = view.entry;
        switch (entry.phase) {
            case SitePhase::kDone: ++model.sites_done; break;
            case SitePhase::kQuarantined: ++model.sites_quarantined; break;
            case SitePhase::kDead: ++model.sites_dead; break;
            case SitePhase::kTraining:
            case SitePhase::kHunting: ++model.sites_running; break;
            case SitePhase::kPending: break;
        }
        model.ate_applications += entry.ate_applications;
        model.cache_hits += entry.cache_hits;
        model.cache_misses += entry.cache_misses;

        if (is_terminal(entry.phase)) {
            view.eta_seconds = 0.0;
        } else if (entry.generations_total > 0) {
            // Generation progress scales either the fleet's observed
            // mean site duration or, before any site has finished, the
            // site's own elapsed time.
            const double frac = std::min(
                1.0, static_cast<double>(entry.generation) /
                         static_cast<double>(entry.generations_total));
            if (!durations.empty()) {
                view.eta_seconds = std::max(0.0, mean_duration * (1.0 - frac));
            } else if (frac > 0.0) {
                view.eta_seconds =
                    std::max(0.0, entry.elapsed_seconds * (1.0 - frac) / frac);
            }
        } else if (!durations.empty()) {
            view.eta_seconds =
                std::max(0.0, mean_duration - entry.elapsed_seconds);
        }
        model.sites.push_back(view);
    }
}

void build_partials(FleetModel& model, const FleetViewOptions& options) {
    struct Sample {
        std::uint64_t site;
        double trip;
        double wcr;
    };
    std::map<std::string, std::vector<Sample>> by_parameter;
    std::vector<std::string> order;  // first-seen parameter order
    for (const SiteView& view : model.sites) {
        if (view.entry.phase != SitePhase::kDone) continue;
        for (const SiteOutcomeEntry& outcome : view.entry.outcomes) {
            if (!outcome.found) continue;
            auto [it, inserted] = by_parameter.try_emplace(outcome.parameter);
            if (inserted) order.push_back(outcome.parameter);
            it->second.push_back(
                {view.entry.site, outcome.trip_point, outcome.wcr});
        }
    }
    for (const std::string& parameter : order) {
        const std::vector<Sample>& samples = by_parameter[parameter];
        ParameterPartial partial;
        partial.parameter = parameter;
        partial.sites = samples.size();
        std::vector<double> trips;
        std::vector<double> wcrs;
        trips.reserve(samples.size());
        wcrs.reserve(samples.size());
        for (const Sample& s : samples) {
            trips.push_back(s.trip);
            wcrs.push_back(s.wcr);
        }
        partial.trip = util::summarize(trips);
        partial.wcr = util::summarize(wcrs);
        partial.trip_spread = partial.trip.max - partial.trip.min;
        const double median = partial.wcr.median;
        const double tolerance =
            options.wcr_outlier_fraction * std::max(std::abs(median), 1e-12);
        for (const Sample& s : samples) {
            if (std::abs(s.wcr - median) > tolerance) {
                partial.outlier_sites.push_back(s.site);
            }
        }
        model.partials.push_back(std::move(partial));
    }
}

void flag_anomalies(FleetModel& model, const FleetViewOptions& options) {
    const std::uint64_t finished = model.finished_sites();
    const std::uint64_t unhealthy = model.sites_quarantined + model.sites_dead;
    if (finished > 0 &&
        static_cast<double>(unhealthy) >
            options.quarantine_spike_fraction *
                static_cast<double>(finished)) {
        model.anomalies.push_back(
            "quarantine spike: " + std::to_string(unhealthy) + " of " +
            std::to_string(finished) + " finished sites quarantined/dead");
    }
    for (const ParameterPartial& partial : model.partials) {
        for (const std::uint64_t site : partial.outlier_sites) {
            model.anomalies.push_back(
                "WCR outlier: site " + std::to_string(site) + " (" +
                partial.parameter + ") vs running lot median " +
                util::fixed(partial.wcr.median, 3));
        }
    }
    for (const WorkerView& worker : model.workers) {
        if (worker.stalled) {
            model.anomalies.push_back(
                "stalled worker: " + worker.name + " (no snapshot for " +
                util::fixed(worker.age_seconds, 1) + " s)");
        }
    }
    if (model.torn_snapshots > 0) {
        model.anomalies.push_back(
            "torn snapshot file(s): " + std::to_string(model.torn_snapshots));
    }
}

void tail_ledger(FleetModel& model, const FleetViewOptions& options) {
    if (options.ledger_dir.empty()) return;
    // Strictly read-only: scan the segment bytes in place (never
    // Ledger::open, whose recovery truncates torn tails on disk).
    std::error_code ec;
    std::vector<std::pair<std::uint64_t, fs::path>> segments;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(options.ledger_dir, ec)) {
        if (ec) break;
        const std::optional<std::uint64_t> index =
            store::parse_segment_file_name(entry.path().filename().string());
        if (index) segments.emplace_back(*index, entry.path());
    }
    std::sort(segments.begin(), segments.end());
    std::vector<LedgerTailEntry> tail;
    for (const auto& [index, path] : segments) {
        const std::optional<std::string> bytes =
            util::read_file(path.string());
        if (!bytes) continue;
        const store::SegmentScan scan = store::scan_segment(*bytes);
        for (const store::LedgerRecord& record : scan.records) {
            if (record.type != store::RecordType::kTripRecord) continue;
            try {
                const store::TripRecordPayload payload =
                    store::decode_trip_record(record.payload);
                LedgerTailEntry entry;
                entry.site = payload.site;
                entry.parameter = payload.parameter;
                entry.trip_point = payload.record.trip_point;
                entry.wcr = payload.record.wcr;
                entry.margin_risk = payload.margin_risk;
                tail.push_back(std::move(entry));
            } catch (const std::exception&) {
                // A corrupt payload only costs this tail entry.
            }
        }
    }
    if (tail.size() > options.ledger_tail) {
        tail.erase(tail.begin(),
                   tail.end() - static_cast<std::ptrdiff_t>(
                                    options.ledger_tail));
    }
    model.ledger_tail = std::move(tail);
}

std::string json_escape(const std::string& text) {
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string json_double(double value) {
    if (!std::isfinite(value)) return "null";
    std::ostringstream out;
    out.precision(12);
    out << value;
    return out.str();
}

std::string eta_cell(double eta_seconds, SitePhase phase) {
    if (is_terminal(phase)) return "-";
    if (eta_seconds < 0.0) return "?";
    return util::fixed(eta_seconds, 1) + " s";
}

std::string site_flags(const FleetModel& model, const SiteStatusEntry& entry) {
    std::string flags;
    if (entry.phase == SitePhase::kQuarantined) flags += " QUARANTINED";
    if (entry.phase == SitePhase::kDead) flags += " DEAD";
    for (const ParameterPartial& partial : model.partials) {
        if (std::find(partial.outlier_sites.begin(),
                      partial.outlier_sites.end(),
                      entry.site) != partial.outlier_sites.end()) {
            flags += " WCR-OUTLIER";
            break;
        }
    }
    return flags.empty() ? std::string("-") : flags.substr(1);
}

}  // namespace

FleetModel fuse_run_directory(const std::string& directory,
                              const FleetViewOptions& options) {
    FleetModel model;
    model.directory = directory;

    std::error_code ec;
    std::vector<fs::path> status_files;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(directory, ec)) {
        if (ec) break;
        if (!entry.is_regular_file(ec)) continue;
        const fs::path& path = entry.path();
        if (path.extension() == ".status") status_files.push_back(path);
    }
    std::sort(status_files.begin(), status_files.end());

    for (const fs::path& path : status_files) {
        const std::optional<std::string> bytes =
            util::read_file(path.string());
        if (!bytes) {
            ++model.torn_snapshots;
            continue;
        }
        std::optional<StatusSnapshot> snapshot = decode_status(*bytes);
        if (!snapshot) {
            ++model.torn_snapshots;
            continue;
        }
        WorkerView worker;
        worker.name = path.stem().string();
        worker.age_seconds = file_age_seconds(path).value_or(0.0);
        worker.snapshot = std::move(*snapshot);
        const bool finished =
            worker.snapshot.sites_total > 0 &&
            worker.snapshot.finished_sites() >= worker.snapshot.sites_total;
        worker.stalled =
            !finished && worker.age_seconds > options.stall_after_seconds;
        model.workers.push_back(std::move(worker));
    }

    fuse_sites(model);
    build_partials(model, options);
    tail_ledger(model, options);
    flag_anomalies(model, options);
    return model;
}

std::string render_fleet_text(const FleetModel& model) {
    std::ostringstream out;
    const std::uint64_t finished = model.finished_sites();
    out << "fleet: " << model.directory << "\n";
    out << "  sites: " << finished << "/" << model.sites_total
        << " finished (" << model.sites_done << " ok, "
        << model.sites_quarantined << " quarantined, " << model.sites_dead
        << " dead, " << model.sites_running << " running)\n";
    out << "  ATE applications: " << model.ate_applications
        << "  trip cache: " << model.cache_hits << " hits / "
        << model.cache_misses << " misses ("
        << util::fixed(100.0 * model.cache_hit_rate(), 1) << "%)\n";
    if (model.policy_retries > 0 || model.policy_interventions > 0) {
        out << "  policy: " << model.policy_retries << " retries, "
            << model.policy_interventions << " interventions\n";
    }

    if (!model.workers.empty()) {
        util::TextTable table({"worker", "kind", "seq", "age s", "sites",
                               "uptime s", "stalled"});
        for (const WorkerView& worker : model.workers) {
            table.add_row(
                {worker.name, worker.snapshot.kind,
                 std::to_string(worker.snapshot.sequence),
                 util::fixed(worker.age_seconds, 1),
                 std::to_string(worker.snapshot.finished_sites()) + "/" +
                     std::to_string(worker.snapshot.sites_total),
                 util::fixed(worker.snapshot.uptime_seconds, 1),
                 worker.stalled ? "YES" : "no"});
        }
        out << "\nworkers\n" << table.render();
    }

    if (!model.sites.empty()) {
        util::TextTable table({"site", "phase", "gen", "ETA", "best WCR",
                               "elapsed s", "worker", "flags"});
        for (const SiteView& view : model.sites) {
            const SiteStatusEntry& entry = view.entry;
            table.add_row(
                {std::to_string(entry.site), to_string(entry.phase),
                 std::to_string(entry.generation) + "/" +
                     std::to_string(entry.generations_total),
                 eta_cell(view.eta_seconds, entry.phase),
                 util::fixed(entry.best_wcr, 3),
                 util::fixed(entry.elapsed_seconds, 1), view.worker,
                 site_flags(model, entry)});
        }
        out << "\nsites\n" << table.render();
    }

    if (!model.partials.empty()) {
        util::TextTable table({"parameter", "sites", "trip mean", "trip min",
                               "trip max", "spread", "WCR median",
                               "WCR max"});
        for (const ParameterPartial& partial : model.partials) {
            table.add_row({partial.parameter, std::to_string(partial.sites),
                           util::fixed(partial.trip.mean, 3),
                           util::fixed(partial.trip.min, 3),
                           util::fixed(partial.trip.max, 3),
                           util::fixed(partial.trip_spread, 3),
                           util::fixed(partial.wcr.median, 3),
                           util::fixed(partial.wcr.max, 3)});
        }
        out << "\npartial lot report (" << model.sites_done
            << " finished sites)\n"
            << table.render();
    }

    if (!model.ledger_tail.empty()) {
        util::TextTable table(
            {"site", "parameter", "trip", "WCR", "risk"});
        for (const LedgerTailEntry& entry : model.ledger_tail) {
            table.add_row({std::to_string(entry.site), entry.parameter,
                           util::fixed(entry.trip_point, 3),
                           util::fixed(entry.wcr, 3),
                           util::fixed(entry.margin_risk, 3)});
        }
        out << "\nledger tail\n" << table.render();
    }

    if (!model.anomalies.empty()) {
        out << "\nanomalies\n";
        for (const std::string& anomaly : model.anomalies) {
            out << "  ! " << anomaly << "\n";
        }
    }
    return out.str();
}

std::string render_fleet_json(const FleetModel& model) {
    std::ostringstream out;
    out << "{";
    out << "\"directory\":\"" << json_escape(model.directory) << "\"";
    out << ",\"sites_total\":" << model.sites_total;
    out << ",\"sites_done\":" << model.sites_done;
    out << ",\"sites_quarantined\":" << model.sites_quarantined;
    out << ",\"sites_dead\":" << model.sites_dead;
    out << ",\"sites_running\":" << model.sites_running;
    out << ",\"finished_sites\":" << model.finished_sites();
    out << ",\"ate_applications\":" << model.ate_applications;
    out << ",\"cache_hits\":" << model.cache_hits;
    out << ",\"cache_misses\":" << model.cache_misses;
    out << ",\"cache_hit_rate\":" << json_double(model.cache_hit_rate());
    out << ",\"policy_retries\":" << model.policy_retries;
    out << ",\"policy_interventions\":" << model.policy_interventions;
    out << ",\"torn_snapshots\":" << model.torn_snapshots;

    out << ",\"workers\":[";
    for (std::size_t i = 0; i < model.workers.size(); ++i) {
        const WorkerView& worker = model.workers[i];
        if (i > 0) out << ",";
        out << "{\"name\":\"" << json_escape(worker.name) << "\""
            << ",\"kind\":\"" << json_escape(worker.snapshot.kind) << "\""
            << ",\"fingerprint\":\""
            << json_escape(worker.snapshot.fingerprint) << "\""
            << ",\"seed\":" << worker.snapshot.seed
            << ",\"pid\":" << worker.snapshot.pid
            << ",\"sequence\":" << worker.snapshot.sequence
            << ",\"uptime_seconds\":"
            << json_double(worker.snapshot.uptime_seconds)
            << ",\"age_seconds\":" << json_double(worker.age_seconds)
            << ",\"sites_total\":" << worker.snapshot.sites_total
            << ",\"finished_sites\":" << worker.snapshot.finished_sites()
            << ",\"stalled\":" << (worker.stalled ? "true" : "false") << "}";
    }
    out << "]";

    out << ",\"sites\":[";
    for (std::size_t i = 0; i < model.sites.size(); ++i) {
        const SiteView& view = model.sites[i];
        const SiteStatusEntry& entry = view.entry;
        if (i > 0) out << ",";
        out << "{\"site\":" << entry.site << ",\"phase\":\""
            << to_string(entry.phase) << "\""
            << ",\"generation\":" << entry.generation
            << ",\"generations_total\":" << entry.generations_total
            << ",\"evaluations\":" << entry.evaluations
            << ",\"best_wcr\":" << json_double(entry.best_wcr)
            << ",\"ate_applications\":" << entry.ate_applications
            << ",\"cache_hits\":" << entry.cache_hits
            << ",\"cache_misses\":" << entry.cache_misses
            << ",\"inflight\":" << entry.inflight
            << ",\"elapsed_seconds\":" << json_double(entry.elapsed_seconds)
            << ",\"eta_seconds\":" << json_double(view.eta_seconds)
            << ",\"worker\":\"" << json_escape(view.worker) << "\""
            << ",\"outcomes\":[";
        for (std::size_t p = 0; p < entry.outcomes.size(); ++p) {
            const SiteOutcomeEntry& outcome = entry.outcomes[p];
            if (p > 0) out << ",";
            out << "{\"parameter\":\"" << json_escape(outcome.parameter)
                << "\",\"found\":" << (outcome.found ? "true" : "false")
                << ",\"trip_point\":" << json_double(outcome.trip_point)
                << ",\"wcr\":" << json_double(outcome.wcr)
                << ",\"margin_risk\":" << json_double(outcome.margin_risk)
                << "}";
        }
        out << "]}";
    }
    out << "]";

    out << ",\"partials\":[";
    for (std::size_t i = 0; i < model.partials.size(); ++i) {
        const ParameterPartial& partial = model.partials[i];
        if (i > 0) out << ",";
        out << "{\"parameter\":\"" << json_escape(partial.parameter) << "\""
            << ",\"sites\":" << partial.sites
            << ",\"trip_mean\":" << json_double(partial.trip.mean)
            << ",\"trip_min\":" << json_double(partial.trip.min)
            << ",\"trip_max\":" << json_double(partial.trip.max)
            << ",\"trip_spread\":" << json_double(partial.trip_spread)
            << ",\"wcr_median\":" << json_double(partial.wcr.median)
            << ",\"wcr_mean\":" << json_double(partial.wcr.mean)
            << ",\"wcr_max\":" << json_double(partial.wcr.max)
            << ",\"outlier_sites\":[";
        for (std::size_t s = 0; s < partial.outlier_sites.size(); ++s) {
            if (s > 0) out << ",";
            out << partial.outlier_sites[s];
        }
        out << "]}";
    }
    out << "]";

    out << ",\"ledger_tail\":[";
    for (std::size_t i = 0; i < model.ledger_tail.size(); ++i) {
        const LedgerTailEntry& entry = model.ledger_tail[i];
        if (i > 0) out << ",";
        out << "{\"site\":" << entry.site << ",\"parameter\":\""
            << json_escape(entry.parameter) << "\""
            << ",\"trip_point\":" << json_double(entry.trip_point)
            << ",\"wcr\":" << json_double(entry.wcr)
            << ",\"margin_risk\":" << json_double(entry.margin_risk) << "}";
    }
    out << "]";

    out << ",\"anomalies\":[";
    for (std::size_t i = 0; i < model.anomalies.size(); ++i) {
        if (i > 0) out << ",";
        out << "\"" << json_escape(model.anomalies[i]) << "\"";
    }
    out << "]}";
    out << "\n";
    return out.str();
}

std::string render_fleet_top(const FleetModel& model) {
    std::ostringstream out;
    const std::uint64_t finished = model.finished_sites();
    const double total = model.sites_total > 0
                             ? static_cast<double>(model.sites_total)
                             : 1.0;
    out << "cichar top — " << model.directory << "\n";
    out << "[" << util::bar(static_cast<double>(finished), total, 40) << "] "
        << finished << "/" << model.sites_total << " sites  ("
        << model.sites_done << " ok, " << model.sites_quarantined
        << " quarantined, " << model.sites_dead << " dead, "
        << model.sites_running << " running)\n";
    out << "ATE " << model.ate_applications << " applications · cache "
        << util::fixed(100.0 * model.cache_hit_rate(), 1) << "% hit · policy "
        << model.policy_retries << " retries\n";
    out << render_fleet_text(model);
    return out.str();
}

}  // namespace cichar::obs
