// Extension bench: the multi-parameter characterization campaign. The
// paper recommends "generate NNs individually for each parameter"; this
// bench runs the complete learn + hunt + spec-proposal flow for T_DQ,
// Fmax, and Vmin on one die, and prints the fused campaign table with the
// fuzzy margin-risk judgment per parameter.
#include "bench_common.hpp"

#include "core/campaign.hpp"
#include "util/ascii.hpp"

using namespace cichar;

int main() {
    constexpr std::uint64_t kSeed = 2005;
    bench::header("Extension",
                  "multi-parameter campaign: T_DQ + Fmax + Vmin on one die",
                  kSeed);

    device::MemoryChipOptions chip_opts;  // realistic noise on
    bench::Rig rig(chip_opts);

    core::CharacterizerOptions options;
    options.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.learner.training_tests = 120;
    options.optimizer.ga.max_generations = 25;
    options.optimizer.ga.populations = 3;

    const core::CharacterizationCampaign campaign(
        rig.tester,
        {ate::Parameter::data_valid_time(), ate::Parameter::max_frequency(),
         ate::Parameter::min_vdd()},
        options);

    util::Rng rng(kSeed);
    const std::vector<core::ParameterCampaign> results = campaign.run(rng);

    bench::section("campaign summary (one NN committee per parameter)");
    std::printf("%s", core::CharacterizationCampaign::render(results).c_str());

    bench::section("per-parameter detail");
    for (const core::ParameterCampaign& c : results) {
        std::printf("%s: learned from %zu tests (val err %.5f), GA %zu "
                    "evaluations, worst %s = %.3f %s\n",
                    c.parameter.name.c_str(), c.learned->tests_measured,
                    c.learned->mean_validation_error,
                    c.report.outcome.evaluations, c.parameter.name.c_str(),
                    c.report.worst_record.trip_point,
                    c.parameter.unit.c_str());
        std::printf("%s", c.proposal.render().c_str());
    }

    std::printf("%s", rig.tester.log().report().c_str());
    std::printf("\npaper context: \"we propose to pre-select a set of DC or "
                "AC critical parameters; and generate NNs individually for "
                "each parameter\" — the campaign automates exactly that, "
                "ending in per-parameter spec proposals and a fused fuzzy "
                "risk judgment.\n");
    return 0;
}
