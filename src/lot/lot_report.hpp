// Lot-level aggregation of a multi-site characterization run: cross-site
// trip-point/WCR distributions, outlier-site flagging against the lot
// median margin risk, and a fused guard-banded specification per
// parameter (the production limit the whole lot supports). render() is
// byte-stable: two LotResults with identical site data render identically
// regardless of how many threads produced them.
#pragma once

#include <string>
#include <vector>

#include "core/spec_report.hpp"
#include "lot/lot_runner.hpp"
#include "util/statistics.hpp"

namespace cichar::lot {

struct LotReportOptions {
    /// Guard band of the fused lot spec, relative to the lot-worst trip.
    double guard_band_fraction = 0.05;
    /// A site is an outlier when its fuzzy margin risk exceeds the lot
    /// median risk by more than this (for any parameter), or when any of
    /// its trip searches failed.
    double outlier_risk_margin = 0.25;
};

/// Cross-site aggregate for one parameter.
struct ParameterAggregate {
    ate::Parameter parameter;
    std::size_t sites_found = 0;     ///< sites with a found worst trip
    util::Summary trip{};            ///< per-site worst trip points
    util::Summary wcr{};             ///< per-site worst-case ratios
    double trip_spread = 0.0;        ///< max - min per-site worst trip
    double median_risk = 0.0;        ///< lot median fuzzy margin risk
    core::SpecProposal fused{};      ///< lot-level guard-banded limit
    std::vector<std::size_t> outlier_sites;  ///< ascending site indices
};

/// One site's row in the lot tables (copied out of the LotResult so the
/// report stays self-contained).
struct SiteSummary {
    std::size_t site = 0;
    device::DieParameters die;
    SiteStatus status = SiteStatus::kCompleted;
    double max_risk = 0.0;
    bool outlier = false;
    core::FaultCounters faults;     ///< resilience-policy interventions
    ate::InjectionStats injected;   ///< faults the site's injector fired
    /// Parallel to the parameter list. Sites that died or were
    /// quarantined before finishing carry found=false / risk=1 padding.
    std::vector<double> trip;
    std::vector<double> wcr;
    std::vector<std::string> wcr_class;
    std::vector<double> risk;
    std::vector<bool> found;
};

class LotReport {
public:
    /// Aggregates a finished lot. Degrades gracefully over dead or
    /// quarantined sites: aggregates and the fused spec come from the
    /// surviving sites, and a parameter no surviving site could
    /// characterize renders "no fused spec" instead of failing. Throws
    /// std::invalid_argument for a lot of zero sites (there is no median
    /// risk to take) and for a partial (pending-site) lot — resume it
    /// before reporting.
    [[nodiscard]] static LotReport build(const LotResult& result,
                                         LotReportOptions options = {});

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    [[nodiscard]] std::size_t site_count() const noexcept {
        return sites_.size();
    }
    [[nodiscard]] const std::vector<SiteSummary>& sites() const noexcept {
        return sites_;
    }
    [[nodiscard]] const std::vector<ParameterAggregate>& aggregates()
        const noexcept {
        return aggregates_;
    }
    [[nodiscard]] const ate::MeasurementLog& merged_log() const noexcept {
        return merged_log_;
    }

    /// All sites flagged by any parameter, ascending.
    [[nodiscard]] std::vector<std::size_t> outlier_sites() const;

    /// Sites that did not complete their campaign (dead + quarantined).
    [[nodiscard]] std::size_t failed_site_count() const noexcept;

    /// Deterministic multi-section text report (tables + fused specs +
    /// merged tester ledger).
    [[nodiscard]] std::string render() const;

private:
    std::uint64_t seed_ = 0;
    LotReportOptions options_;
    std::vector<SiteSummary> sites_;
    std::vector<ParameterAggregate> aggregates_;
    ate::MeasurementLog merged_log_;
    std::string fault_profile_ = "off";
    bool policy_enabled_ = false;
};

}  // namespace cichar::lot
