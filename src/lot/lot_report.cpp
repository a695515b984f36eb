#include "lot/lot_report.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/ascii.hpp"

namespace cichar::lot {

namespace {

double median_of(std::vector<double> values) {
    return util::percentile(values, 0.5);
}

}  // namespace

LotReport LotReport::build(const LotResult& result, LotReportOptions options) {
    LotReport report;
    report.seed_ = result.seed;
    report.options_ = options;
    report.merged_log_ = result.merged_log;
    report.fault_profile_ = result.fault_profile;
    report.policy_enabled_ = result.policy_enabled;

    const std::size_t site_count = result.sites.size();
    if (site_count == 0) {
        throw std::invalid_argument("LotReport: a lot of zero sites");
    }
    // A dead/quarantined site carries no outcomes; the parameter list
    // comes from the lot itself (or, for hand-built results, from any
    // site that finished its campaign).
    std::size_t param_count = result.parameters.size();
    for (const SiteResult& site : result.sites) {
        if (!site.finished()) {
            throw std::invalid_argument(
                "LotReport: site " + std::to_string(site.site) +
                " is pending; resume the lot before reporting");
        }
        param_count = std::max(param_count, site.outcomes.size());
    }

    report.sites_.reserve(site_count);
    for (const SiteResult& site : result.sites) {
        SiteSummary summary;
        summary.site = site.site;
        summary.die = site.die;
        summary.status = site.status;
        summary.max_risk = site.max_risk;
        summary.faults = site.faults;
        summary.injected = site.injected;
        for (std::size_t p = 0; p < param_count; ++p) {
            if (p < site.outcomes.size()) {
                const SiteParameterOutcome& o = site.outcomes[p];
                summary.trip.push_back(o.worst.trip_point);
                summary.wcr.push_back(o.worst.wcr);
                summary.wcr_class.push_back(ga::to_string(o.worst.wcr_class));
                summary.risk.push_back(o.margin_risk);
                summary.found.push_back(o.worst.found);
            } else {
                // The site failed before characterizing this parameter.
                summary.trip.push_back(0.0);
                summary.wcr.push_back(0.0);
                summary.wcr_class.push_back("n/a");
                summary.risk.push_back(1.0);
                summary.found.push_back(false);
            }
        }
        report.sites_.push_back(std::move(summary));
    }

    report.aggregates_.reserve(param_count);
    for (std::size_t p = 0; p < param_count; ++p) {
        ParameterAggregate agg;
        if (p < result.parameters.size()) {
            agg.parameter = result.parameters[p];
        } else {
            for (const SiteResult& site : result.sites) {
                if (p < site.outcomes.size()) {
                    agg.parameter = site.outcomes[p].parameter;
                    break;
                }
            }
        }

        std::vector<double> trips;
        std::vector<double> wcrs;
        std::vector<double> risks;
        core::DesignSpecVariation lot_dsv;
        for (const SiteSummary& site : report.sites_) {
            risks.push_back(site.risk[p]);
            if (!site.found[p]) continue;
            trips.push_back(site.trip[p]);
            wcrs.push_back(site.wcr[p]);
            core::TripPointRecord record;
            record.test_name = "site" + std::to_string(site.site);
            record.trip_point = site.trip[p];
            record.wcr = site.wcr[p];
            record.found = true;
            lot_dsv.add(std::move(record));
        }
        agg.sites_found = trips.size();
        agg.median_risk = median_of(risks);
        if (!trips.empty()) {
            agg.trip = util::summarize(trips);
            agg.wcr = util::summarize(wcrs);
            agg.trip_spread = agg.trip.max - agg.trip.min;
            // The fused lot spec guard-bands the worst site: every site's
            // proposal is at least this permissive, so the lot-level limit
            // is the one the whole population supports.
            agg.fused = core::propose_spec(agg.parameter, lot_dsv,
                                           options.guard_band_fraction);
        }

        for (SiteSummary& site : report.sites_) {
            const bool flagged =
                !site.found[p] ||
                site.risk[p] > agg.median_risk + options.outlier_risk_margin;
            if (flagged) {
                site.outlier = true;
                agg.outlier_sites.push_back(site.site);
            }
        }
        report.aggregates_.push_back(std::move(agg));
    }
    return report;
}

std::size_t LotReport::failed_site_count() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(sites_.begin(), sites_.end(), [](const SiteSummary& s) {
            return s.status != SiteStatus::kCompleted;
        }));
}

std::vector<std::size_t> LotReport::outlier_sites() const {
    std::vector<std::size_t> flagged;
    for (const SiteSummary& site : sites_) {
        if (site.outlier) flagged.push_back(site.site);
    }
    return flagged;
}

std::string LotReport::render() const {
    std::ostringstream out;
    out << "lot characterization report: " << sites_.size() << " sites, seed "
        << seed_ << "\n";

    for (std::size_t p = 0; p < aggregates_.size(); ++p) {
        const ParameterAggregate& agg = aggregates_[p];
        out << "\n=== " << agg.parameter.name << " (" << agg.parameter.unit
            << ") across the lot ===\n";

        util::TextTable table({"site", "window ns", "sens", "worst trip",
                               "WCR", "class", "risk", "flag"});
        for (const SiteSummary& site : sites_) {
            const bool site_outlier =
                std::find(agg.outlier_sites.begin(), agg.outlier_sites.end(),
                          site.site) != agg.outlier_sites.end();
            table.add_row(
                {std::to_string(site.site), util::fixed(site.die.window_ns, 2),
                 util::fixed(site.die.sensitivity_scale, 3),
                 site.found[p] ? util::fixed(site.trip[p], 3) : "n/a",
                 site.found[p] ? util::fixed(site.wcr[p], 3) : "n/a",
                 site.wcr_class[p], util::fixed(site.risk[p], 2),
                 site_outlier ? "OUTLIER" : ""});
        }
        out << table.render();

        out << "sites with a found worst case: " << agg.sites_found << "/"
            << sites_.size() << "\n";
        if (agg.sites_found == 0) {
            out << "no surviving site found a worst case for this parameter; "
                   "no fused lot spec proposed\n";
            continue;
        }
        out << "per-site worst trip: mean " << util::fixed(agg.trip.mean, 3)
            << ", median " << util::fixed(agg.trip.median, 3) << ", min "
            << util::fixed(agg.trip.min, 3) << ", max "
            << util::fixed(agg.trip.max, 3) << " " << agg.parameter.unit
            << " (cross-site spread " << util::fixed(agg.trip_spread, 3)
            << ")\n";
        out << "per-site WCR: mean " << util::fixed(agg.wcr.mean, 3)
            << ", stddev " << util::fixed(agg.wcr.stddev, 3) << ", worst "
            << util::fixed(agg.wcr.max, 3) << "\n";
        out << "lot median margin risk: " << util::fixed(agg.median_risk, 2)
            << "; outlier rule: risk > median + "
            << util::fixed(options_.outlier_risk_margin, 2)
            << " or no trip found\n";
        if (agg.outlier_sites.empty()) {
            out << "outlier sites: none\n";
        } else {
            out << "outlier sites:";
            for (const std::size_t site : agg.outlier_sites) {
                out << " " << site;
            }
            out << "\n";
        }
        out << "fused lot " << agg.fused.render();
    }

    // Site health is rendered only when something could have gone wrong
    // (fault injection, the resilience policy, or a lost site), so a
    // clean lot's report stays byte-identical to earlier builds.
    if (fault_profile_ != "off" || policy_enabled_ ||
        failed_site_count() > 0) {
        out << "\n=== site health (fault profile: " << fault_profile_
            << "; policy " << (policy_enabled_ ? "on" : "off") << ") ===\n";
        util::TextTable table(
            {"site", "status", "injected faults", "policy interventions"});
        std::size_t quarantined = 0;
        std::size_t dead = 0;
        ate::InjectionStats lot_injected;
        core::FaultCounters lot_faults;
        for (const SiteSummary& site : sites_) {
            if (site.status == SiteStatus::kQuarantined) ++quarantined;
            if (site.status == SiteStatus::kDead) ++dead;
            lot_injected.merge(site.injected);
            lot_faults.merge(site.faults);
            table.add_row({std::to_string(site.site), to_string(site.status),
                           std::to_string(site.injected.injected()),
                           site.faults.describe()});
        }
        out << table.render();
        out << "sites quarantined: " << quarantined << ", dead: " << dead
            << ", healthy: " << sites_.size() - quarantined - dead << "/"
            << sites_.size() << "\n";
        out << "lot injected faults: " << lot_injected.injected()
            << " (transients " << lot_injected.transients << ", stuck "
            << lot_injected.stuck_measurements << ", timeouts "
            << lot_injected.timeouts << ", site deaths "
            << lot_injected.site_deaths << ")\n";
        out << "lot policy activity: " << lot_faults.describe() << "\n";
    }

    out << "\nmerged lot ledger (all sites):\n" << merged_log_.report();
    return out.str();
}

}  // namespace cichar::lot
