// Multi-parameter characterization campaign. The paper: "we propose to
// pre-select a set of DC or AC critical parameters; and generate NNs
// individually for each parameter or each characterization analysis
// task." A campaign runs the full learn + optimize pipeline per parameter
// on the same device, derives a spec proposal for each, and fuses the
// results into a margin-risk judgment via the fuzzy analyzer.
//
// Each parameter's pipeline is two phases. The learn phase runs the
// Fig. 4 loop and scores the NN seeds (Fig. 5 step 1); the hunt phase
// runs the seeded GA (Fig. 5) and judges the result. A lot runs the
// learn phase once, on its reference site, and every site's hunt phase
// from it.
#pragma once

#include <memory>
#include <vector>

#include "core/characterizer.hpp"
#include "core/spec_report.hpp"
#include "fuzzy/margin.hpp"

namespace cichar::core {

/// What one parameter's learn phase hands its hunt phase: the committee
/// with its learning DSV, and the NN generator's GA seeds. Read-only, so
/// the sites of a lot share one.
struct LearnedParameter {
    std::shared_ptr<const LearnResult> learned;
    std::vector<ga::TestChromosome> seeds;
};

/// Everything learned about one parameter.
struct ParameterCampaign {
    ate::Parameter parameter;
    /// The NN committee the hunt ran with (per the paper, one per
    /// parameter); the sites of a lot share their reference site's.
    std::shared_ptr<const LearnResult> learned;
    WorstCaseReport report;
    SpecProposal proposal;
    double margin_risk = 0.0;     ///< fuzzy-fused risk score in [0, 1]
    std::string risk_label;
};

class CharacterizationCampaign {
public:
    /// Borrows the tester (one device under characterization).
    CharacterizationCampaign(ate::Tester& tester,
                             std::vector<ate::Parameter> parameters,
                             CharacterizerOptions options = {});

    [[nodiscard]] const std::vector<ate::Parameter>& parameters()
        const noexcept {
        return parameters_;
    }

    /// One stream per parameter, forked from `rng` in parameter order:
    /// parameter i's learn and hunt phases both draw from entry i.
    [[nodiscard]] std::vector<util::Rng> parameter_streams(
        util::Rng& rng) const;

    /// Learn phase of parameter `index`: the Fig. 4 loop on the borrowed
    /// tester, then NN seeding. Committee training and NN scoring run on
    /// `options.learner.committee.jobs` workers, bit-identical at any
    /// count. `rng` is left where the parameter's hunt phase continues.
    [[nodiscard]] LearnedParameter learn(std::size_t index,
                                         util::Rng& rng) const;

    /// Hunt phase of parameter `index`: the GA hunt seeded by `learned`,
    /// then the spec proposal and margin risk, both over `learned`'s DSV
    /// plus this device's re-measured worst case.
    [[nodiscard]] ParameterCampaign hunt(std::size_t index,
                                         const LearnedParameter& learned,
                                         util::Rng& rng) const;

    /// Runs learn then hunt for every parameter in turn.
    [[nodiscard]] std::vector<ParameterCampaign> run(util::Rng& rng) const;

    /// Formatted multi-parameter summary table.
    [[nodiscard]] static std::string render(
        const std::vector<ParameterCampaign>& campaigns);

private:
    ate::Tester* tester_;
    std::vector<ate::Parameter> parameters_;
    CharacterizerOptions options_;
};

}  // namespace cichar::core
