#include "core/campaign.hpp"

#include <algorithm>

#include "util/ascii.hpp"

namespace cichar::core {

CharacterizationCampaign::CharacterizationCampaign(
    ate::Tester& tester, std::vector<ate::Parameter> parameters,
    CharacterizerOptions options)
    : tester_(&tester),
      parameters_(std::move(parameters)),
      options_(std::move(options)) {}

std::vector<util::Rng> CharacterizationCampaign::parameter_streams(
    util::Rng& rng) const {
    std::vector<util::Rng> streams;
    streams.reserve(parameters_.size());
    for (std::size_t i = 0; i < parameters_.size(); ++i) {
        streams.push_back(rng.fork(i + 1));
    }
    return streams;
}

LearnedParameter CharacterizationCampaign::learn(std::size_t index,
                                                 util::Rng& rng) const {
    const DeviceCharacterizer characterizer(*tester_, parameters_[index],
                                            options_);
    auto learned =
        std::make_shared<const LearnResult>(characterizer.learn(rng));
    const WorstCaseOptimizer optimizer(options_.optimizer);
    std::vector<ga::TestChromosome> seeds = optimizer.suggest_seeds(
        learned->model, rng, options_.learner.committee.jobs);
    return {std::move(learned), std::move(seeds)};
}

ParameterCampaign CharacterizationCampaign::hunt(
    std::size_t index, const LearnedParameter& learned, util::Rng& rng) const {
    const ate::Parameter& parameter = parameters_[index];
    const LearnResult& learning = *learned.learned;
    const WorstCaseOptimizer optimizer(options_.optimizer);
    WorstCaseReport report =
        optimizer.run(*tester_, parameter, learning.model, learned.seeds,
                      objective_for(parameter), rng);

    // Spec proposal over everything measured: the learning DSV plus the
    // re-measured worst case.
    DesignSpecVariation pooled = learning.dsv;
    if (report.worst_record.found) pooled.add(report.worst_record);
    SpecProposal proposal = propose_spec(parameter, pooled);

    const double spread_fraction =
        pooled.trip_spread() /
        std::max(1e-9, parameter.characterization_range());
    const double agreement =
        report.worst_record.found
            ? learning.model.vote(report.worst_test).agreement
            : 0.0;
    const fuzzy::MarginRiskAnalyzer analyzer;
    const double risk = analyzer.risk(report.outcome.best_fitness, agreement,
                                      spread_fraction);
    return ParameterCampaign{parameter,
                             learned.learned,
                             std::move(report),
                             std::move(proposal),
                             risk,
                             analyzer.label(risk)};
}

std::vector<ParameterCampaign> CharacterizationCampaign::run(
    util::Rng& rng) const {
    std::vector<util::Rng> streams = parameter_streams(rng);
    std::vector<ParameterCampaign> campaigns;
    campaigns.reserve(parameters_.size());
    for (std::size_t i = 0; i < parameters_.size(); ++i) {
        const LearnedParameter learned = learn(i, streams[i]);
        campaigns.push_back(hunt(i, learned, streams[i]));
    }
    return campaigns;
}

std::string CharacterizationCampaign::render(
    const std::vector<ParameterCampaign>& campaigns) {
    util::TextTable table({"parameter", "worst trip", "WCR", "class",
                           "proposed limit", "meets target", "risk"});
    for (const ParameterCampaign& c : campaigns) {
        table.add_row(
            {c.parameter.name + " (" + c.parameter.unit + ")",
             util::fixed(c.report.worst_record.trip_point, 3),
             util::fixed(c.report.outcome.best_fitness, 3),
             ga::to_string(c.report.worst_record.wcr_class),
             util::fixed(c.proposal.proposed_limit, 3),
             c.proposal.meets_target ? "yes" : "NO",
             c.risk_label + " (" + util::fixed(c.margin_risk, 2) + ")"});
    }
    return table.render();
}

}  // namespace cichar::core
