#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include "device/memory_chip.hpp"

namespace cichar::core {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    o.noise_sigma_mhz = 0.0;
    o.noise_sigma_v = 0.0;
    return o;
}

CharacterizerOptions fast_options() {
    CharacterizerOptions opts;
    opts.generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    opts.learner.training_tests = 50;
    opts.learner.committee.members = 2;
    opts.learner.committee.hidden_layers = {10};
    opts.learner.committee.train.max_epochs = 80;
    opts.optimizer.ga.population.size = 10;
    opts.optimizer.ga.populations = 2;
    opts.optimizer.ga.max_generations = 8;
    opts.optimizer.nn_candidates = 200;
    opts.optimizer.nn_seed_count = 6;
    return opts;
}

struct CampaignFixture : ::testing::Test {
    CampaignFixture() : chip({}, noiseless()), tester(chip) {}
    device::MemoryTestChip chip;
    ate::Tester tester;
};

TEST_F(CampaignFixture, RunsPerParameter) {
    const CharacterizationCampaign campaign(
        tester,
        {ate::Parameter::data_valid_time(), ate::Parameter::max_frequency()},
        fast_options());
    util::Rng rng(1);
    const std::vector<ParameterCampaign> results = campaign.run(rng);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].parameter.name, "T_DQ");
    EXPECT_EQ(results[1].parameter.name, "Fmax");
    for (const ParameterCampaign& c : results) {
        // Each parameter gets its own committee (the paper's per-parameter
        // NN recommendation).
        EXPECT_GE(c.learned->model.committee().member_count(), 2u);
        EXPECT_TRUE(c.report.worst_record.found);
        EXPECT_GT(c.proposal.proposed_limit, 0.0);
        EXPECT_GE(c.margin_risk, 0.0);
        EXPECT_LE(c.margin_risk, 1.0);
        EXPECT_FALSE(c.risk_label.empty());
    }
}

TEST_F(CampaignFixture, ReversedParameterWorksInCampaign) {
    const CharacterizationCampaign campaign(
        tester, {ate::Parameter::min_vdd()}, fast_options());
    util::Rng rng(2);
    const std::vector<ParameterCampaign> results = campaign.run(rng);
    ASSERT_EQ(results.size(), 1u);
    const ParameterCampaign& vmin = results[0];
    EXPECT_GT(vmin.report.worst_record.trip_point, 1.0);
    EXPECT_LT(vmin.report.worst_record.trip_point, 1.6);
    // Max-limit spec: the proposal adds guard band above the worst.
    EXPECT_GT(vmin.proposal.proposed_limit, vmin.proposal.observed_worst);
}

TEST_F(CampaignFixture, RenderProducesTable) {
    const CharacterizationCampaign campaign(
        tester, {ate::Parameter::data_valid_time()}, fast_options());
    util::Rng rng(3);
    const auto results = campaign.run(rng);
    const std::string table = CharacterizationCampaign::render(results);
    EXPECT_NE(table.find("T_DQ"), std::string::npos);
    EXPECT_NE(table.find("proposed limit"), std::string::npos);
    EXPECT_NE(table.find("risk"), std::string::npos);
}

TEST_F(CampaignFixture, SpecProposalCoversWorstCase) {
    const CharacterizationCampaign campaign(
        tester, {ate::Parameter::data_valid_time()}, fast_options());
    util::Rng rng(4);
    const auto results = campaign.run(rng);
    const ParameterCampaign& tdq = results[0];
    // The proposal's observed worst includes the GA's find, so it is at
    // least as bad as anything in the learning DSV.
    EXPECT_LE(tdq.proposal.observed_worst,
              tdq.learned->dsv.worst().trip_point + 1e-9);
    EXPECT_LE(tdq.proposal.observed_worst,
              tdq.report.worst_record.trip_point + 1e-9);
}

TEST_F(CampaignFixture, DeterministicGivenSeed) {
    const CharacterizationCampaign campaign(
        tester, {ate::Parameter::data_valid_time()}, fast_options());
    // Note: the shared device is stateless between campaigns when drift is
    // off and the rng is re-seeded, so identical seeds reproduce.
    util::Rng a(9);
    util::Rng b(9);
    const auto ra = campaign.run(a);
    const auto rb = campaign.run(b);
    EXPECT_DOUBLE_EQ(ra[0].report.outcome.best_fitness,
                     rb[0].report.outcome.best_fitness);
}

}  // namespace
}  // namespace cichar::core
