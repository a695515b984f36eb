#include "obs/run_view.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "store/ledger_format.hpp"
#include "store/ledger_payloads.hpp"
#include "util/ascii.hpp"
#include "util/binio.hpp"

namespace cichar::obs {
namespace fs = std::filesystem;
namespace {

/// Anomaly: quarantined+dead sites exceeding this fraction of the
/// finished sites.
constexpr double kQuarantineSpikeFraction = 0.25;
/// Anomaly: a site whose worst WCR deviates from the running lot median
/// by more than this fraction of the median.
constexpr double kWcrOutlierFraction = 0.10;
/// Most-recent trip records kept from the ledger tail.
constexpr std::size_t kLedgerTail = 8;

/// Age of a file in seconds via its mtime; nullopt when unreadable.
std::optional<double> file_age_seconds(const fs::path& path) {
    std::error_code ec;
    const fs::file_time_type mtime = fs::last_write_time(path, ec);
    if (ec) return std::nullopt;
    const auto age = fs::file_time_type::clock::now() - mtime;
    return std::chrono::duration<double>(age).count();
}

std::uint64_t sites_running(const StatusSnapshot& snapshot) {
    return snapshot.count(SitePhase::kTraining) +
           snapshot.count(SitePhase::kHunting);
}

double cache_hit_rate(const StatusSnapshot& snapshot) {
    const std::uint64_t hits = snapshot.cache_hits();
    const std::uint64_t lookups = hits + snapshot.cache_misses();
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
}

void build_sites(RunView& view) {
    // The ETA histogram: durations of every site the run completed.
    const std::vector<double>& durations = view.snapshot.completed_seconds;
    double mean_duration = 0.0;
    for (const double d : durations) mean_duration += d;
    if (!durations.empty()) {
        mean_duration /= static_cast<double>(durations.size());
    }

    for (const SiteStatusEntry& entry : view.snapshot.sites) {
        SiteView site;
        site.entry = entry;
        if (is_terminal(entry.phase)) {
            site.eta_seconds = 0.0;
        } else if (entry.generations_total > 0) {
            // Generation progress scales either the run's observed mean
            // site duration or, before any site has finished, the site's
            // own elapsed time.
            const double frac = std::min(
                1.0, static_cast<double>(entry.generation) /
                         static_cast<double>(entry.generations_total));
            if (!durations.empty()) {
                site.eta_seconds = std::max(0.0, mean_duration * (1.0 - frac));
            } else if (frac > 0.0) {
                site.eta_seconds =
                    std::max(0.0, entry.elapsed_seconds * (1.0 - frac) / frac);
            }
        } else if (!durations.empty()) {
            site.eta_seconds =
                std::max(0.0, mean_duration - entry.elapsed_seconds);
        }
        view.sites.push_back(std::move(site));
    }
}

void build_partials(RunView& view) {
    struct Sample {
        std::uint64_t site;
        double trip;
        double wcr;
    };
    std::map<std::string, std::vector<Sample>> by_parameter;
    std::vector<std::string> order;  // first-seen parameter order
    for (const SiteView& site : view.sites) {
        if (site.entry.phase != SitePhase::kDone) continue;
        for (const SiteOutcomeEntry& outcome : site.entry.outcomes) {
            if (!outcome.found) continue;
            auto [it, inserted] = by_parameter.try_emplace(outcome.parameter);
            if (inserted) order.push_back(outcome.parameter);
            it->second.push_back(
                {site.entry.site, outcome.trip_point, outcome.wcr});
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
            kWcrOutlierFraction * std::max(std::abs(median), 1e-12);
        for (const Sample& s : samples) {
            if (std::abs(s.wcr - median) > tolerance) {
                partial.outlier_sites.push_back(s.site);
            }
        }
        view.partials.push_back(std::move(partial));
    }
}

void flag_anomalies(RunView& view) {
    const StatusSnapshot& snapshot = view.snapshot;
    const std::uint64_t finished = snapshot.finished_sites();
    const std::uint64_t unhealthy = snapshot.count(SitePhase::kQuarantined) +
                                    snapshot.count(SitePhase::kDead);
    if (finished > 0 &&
        static_cast<double>(unhealthy) >
            kQuarantineSpikeFraction * static_cast<double>(finished)) {
        view.anomalies.push_back(
            "quarantine spike: " + std::to_string(unhealthy) + " of " +
            std::to_string(finished) + " finished sites quarantined/dead");
    }
    for (const ParameterPartial& partial : view.partials) {
        for (const std::uint64_t site : partial.outlier_sites) {
            view.anomalies.push_back(
                "WCR outlier: site " + std::to_string(site) + " (" +
                partial.parameter + ") vs running lot median " +
                util::fixed(partial.wcr.median, 3));
        }
    }
    if (view.stalled) {
        view.anomalies.push_back("stalled: no snapshot for " +
                                 util::fixed(view.age_seconds, 1) + " s");
    }
}

void tail_ledger(RunView& view, const std::string& ledger_dir) {
    if (ledger_dir.empty()) return;
    // Strictly read-only: scan the segment bytes in place (never
    // Ledger::open, whose recovery truncates torn tails on disk).
    std::error_code ec;
    std::vector<std::pair<std::uint64_t, fs::path>> segments;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(ledger_dir, ec)) {
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
    if (tail.size() > kLedgerTail) {
        tail.erase(tail.begin(),
                   tail.end() - static_cast<std::ptrdiff_t>(kLedgerTail));
    }
    view.ledger_tail = std::move(tail);
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

std::string site_flags(const RunView& view, const SiteStatusEntry& entry) {
    std::string flags;
    if (entry.phase == SitePhase::kQuarantined) flags += " QUARANTINED";
    if (entry.phase == SitePhase::kDead) flags += " DEAD";
    for (const ParameterPartial& partial : view.partials) {
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

std::vector<fs::path> status_files(const std::string& directory) {
    std::error_code ec;
    std::vector<fs::path> files;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(directory, ec)) {
        if (ec) break;
        if (!entry.is_regular_file(ec)) continue;
        if (entry.path().extension() == ".status") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

RunView read_run_status(const std::string& directory,
                        const std::string& ledger_dir) {
    RunView view;
    view.directory = directory;

    const std::vector<fs::path> files = status_files(directory);
    if (files.size() > 1) {
        std::string names;
        for (const fs::path& path : files) {
            names += (names.empty() ? "" : ", ") + path.string();
        }
        throw std::runtime_error(
            "status: " + directory + " holds " +
            std::to_string(files.size()) + " snapshots (" + names +
            "); give each run its own --status directory");
    }
    if (files.size() == 1) {
        const fs::path& path = files.front();
        const std::optional<std::string> bytes =
            util::read_file(path.string());
        if (bytes && bytes->starts_with(kOlderStatusMagic)) {
            throw std::runtime_error(
                "status: " + path.string() +
                " is in an older status format (CISTAT1); this build reads "
                "CISTAT2 only");
        }
        std::optional<StatusSnapshot> snapshot =
            bytes ? decode_status(*bytes) : std::nullopt;
        if (snapshot) {
            view.snapshot_path = path.string();
            view.snapshot = std::move(*snapshot);
            view.age_seconds = file_age_seconds(path).value_or(0.0);
            const bool finished =
                view.snapshot.sites_total > 0 &&
                view.snapshot.finished_sites() >= view.snapshot.sites_total;
            view.stalled = !finished && view.age_seconds > kStallAfterSeconds;
        } else {
            view.anomalies.push_back("unreadable snapshot: " + path.string());
        }
    }

    build_sites(view);
    build_partials(view);
    tail_ledger(view, ledger_dir);
    flag_anomalies(view);
    return view;
}

std::string render_run_text(const RunView& view) {
    const StatusSnapshot& snapshot = view.snapshot;
    std::ostringstream out;
    out << "run: " << view.directory << "\n";
    if (view.snapshot_path.empty()) {
        out << "  no snapshot yet\n";
    } else {
        out << "  snapshot: " << view.snapshot_path << " (" << snapshot.kind
            << ", seed " << snapshot.seed << ", sequence "
            << snapshot.sequence << ", uptime "
            << util::fixed(snapshot.uptime_seconds, 1) << " s, age "
            << util::fixed(view.age_seconds, 1) << " s)\n";
    }
    out << "  sites: " << snapshot.finished_sites() << "/"
        << snapshot.sites_total << " finished ("
        << snapshot.count(SitePhase::kDone) << " ok, "
        << snapshot.count(SitePhase::kQuarantined) << " quarantined, "
        << snapshot.count(SitePhase::kDead) << " dead, "
        << sites_running(snapshot) << " running)\n";
    out << "  ATE applications: " << snapshot.ate_applications()
        << "  trip cache: " << snapshot.cache_hits() << " hits / "
        << snapshot.cache_misses() << " misses ("
        << util::fixed(100.0 * cache_hit_rate(snapshot), 1) << "%)\n";
    if (snapshot.policy_retries > 0 || snapshot.policy_interventions > 0) {
        out << "  policy: " << snapshot.policy_retries << " retries, "
            << snapshot.policy_interventions << " interventions\n";
    }

    if (!view.sites.empty()) {
        util::TextTable table({"site", "phase", "gen", "ETA", "best WCR",
                               "elapsed s", "flags"});
        for (const SiteView& site : view.sites) {
            const SiteStatusEntry& entry = site.entry;
            table.add_row(
                {std::to_string(entry.site), to_string(entry.phase),
                 std::to_string(entry.generation) + "/" +
                     std::to_string(entry.generations_total),
                 eta_cell(site.eta_seconds, entry.phase),
                 util::fixed(entry.best_wcr, 3),
                 util::fixed(entry.elapsed_seconds, 1),
                 site_flags(view, entry)});
        }
        out << "\nsites\n" << table.render();
    }

    if (!view.partials.empty()) {
        util::TextTable table({"parameter", "sites", "trip mean", "trip min",
                               "trip max", "spread", "WCR median",
                               "WCR max"});
        for (const ParameterPartial& partial : view.partials) {
            table.add_row({partial.parameter, std::to_string(partial.sites),
                           util::fixed(partial.trip.mean, 3),
                           util::fixed(partial.trip.min, 3),
                           util::fixed(partial.trip.max, 3),
                           util::fixed(partial.trip_spread, 3),
                           util::fixed(partial.wcr.median, 3),
                           util::fixed(partial.wcr.max, 3)});
        }
        out << "\npartial lot report (" << snapshot.count(SitePhase::kDone)
            << " finished sites)\n"
            << table.render();
    }

    if (!view.ledger_tail.empty()) {
        util::TextTable table(
            {"site", "parameter", "trip", "WCR", "risk"});
        for (const LedgerTailEntry& entry : view.ledger_tail) {
            table.add_row({std::to_string(entry.site), entry.parameter,
                           util::fixed(entry.trip_point, 3),
                           util::fixed(entry.wcr, 3),
                           util::fixed(entry.margin_risk, 3)});
        }
        out << "\nledger tail\n" << table.render();
    }

    if (!view.anomalies.empty()) {
        out << "\nanomalies\n";
        for (const std::string& anomaly : view.anomalies) {
            out << "  ! " << anomaly << "\n";
        }
    }
    return out.str();
}

std::string render_run_json(const RunView& view) {
    const StatusSnapshot& snapshot = view.snapshot;
    std::ostringstream out;
    out << "{";
    out << "\"directory\":\"" << util::escape_json(view.directory) << "\"";
    out << ",\"kind\":\"" << util::escape_json(snapshot.kind) << "\"";
    out << ",\"fingerprint\":\"" << util::escape_json(snapshot.fingerprint)
        << "\"";
    out << ",\"seed\":" << snapshot.seed;
    out << ",\"pid\":" << snapshot.pid;
    out << ",\"sequence\":" << snapshot.sequence;
    out << ",\"uptime_seconds\":" << json_double(snapshot.uptime_seconds);
    out << ",\"age_seconds\":" << json_double(view.age_seconds);
    out << ",\"stalled\":" << (view.stalled ? "true" : "false");
    out << ",\"sites_total\":" << snapshot.sites_total;
    out << ",\"sites_done\":" << snapshot.count(SitePhase::kDone);
    out << ",\"sites_quarantined\":"
        << snapshot.count(SitePhase::kQuarantined);
    out << ",\"sites_dead\":" << snapshot.count(SitePhase::kDead);
    out << ",\"sites_running\":" << sites_running(snapshot);
    out << ",\"finished_sites\":" << snapshot.finished_sites();
    out << ",\"ate_applications\":" << snapshot.ate_applications();
    out << ",\"cache_hits\":" << snapshot.cache_hits();
    out << ",\"cache_misses\":" << snapshot.cache_misses();
    out << ",\"cache_hit_rate\":" << json_double(cache_hit_rate(snapshot));
    out << ",\"policy_retries\":" << snapshot.policy_retries;
    out << ",\"policy_interventions\":" << snapshot.policy_interventions;

    out << ",\"sites\":[";
    for (std::size_t i = 0; i < view.sites.size(); ++i) {
        const SiteView& site = view.sites[i];
        const SiteStatusEntry& entry = site.entry;
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
            << ",\"eta_seconds\":" << json_double(site.eta_seconds)
            << ",\"outcomes\":[";
        for (std::size_t p = 0; p < entry.outcomes.size(); ++p) {
            const SiteOutcomeEntry& outcome = entry.outcomes[p];
            if (p > 0) out << ",";
            out << "{\"parameter\":\"" << util::escape_json(outcome.parameter)
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
    for (std::size_t i = 0; i < view.partials.size(); ++i) {
        const ParameterPartial& partial = view.partials[i];
        if (i > 0) out << ",";
        out << "{\"parameter\":\"" << util::escape_json(partial.parameter)
            << "\""
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
    for (std::size_t i = 0; i < view.ledger_tail.size(); ++i) {
        const LedgerTailEntry& entry = view.ledger_tail[i];
        if (i > 0) out << ",";
        out << "{\"site\":" << entry.site << ",\"parameter\":\""
            << util::escape_json(entry.parameter) << "\""
            << ",\"trip_point\":" << json_double(entry.trip_point)
            << ",\"wcr\":" << json_double(entry.wcr)
            << ",\"margin_risk\":" << json_double(entry.margin_risk) << "}";
    }
    out << "]";

    out << ",\"anomalies\":[";
    for (std::size_t i = 0; i < view.anomalies.size(); ++i) {
        if (i > 0) out << ",";
        out << "\"" << util::escape_json(view.anomalies[i]) << "\"";
    }
    out << "]}";
    out << "\n";
    return out.str();
}

std::string render_run_top(const RunView& view) {
    const std::uint64_t finished = view.snapshot.finished_sites();
    const std::uint64_t total = view.snapshot.sites_total;
    std::ostringstream out;
    out << "cichar top — " << view.directory << "\n";
    out << "[" << util::bar(static_cast<double>(finished),
                            total > 0 ? static_cast<double>(total) : 1.0, 40)
        << "] " << finished << "/" << total << " sites\n";
    out << render_run_text(view);
    return out.str();
}

}  // namespace cichar::obs
