// Multi-site lot characterization: the production end game of the paper's
// method. Samples a lot of dies from the process model, learns once on
// a reference site, runs the optimize + spec-proposal phase with that
// committee on every site in parallel, and aggregates into a lot report:
// cross-site trip/WCR spread, outlier sites vs. the lot median margin
// risk, and a fused guard-banded spec the whole lot supports. The same
// seed yields the same report whether the lot runs on 1 thread or 8.
#include <algorithm>
#include <cstdio>

#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"

using namespace cichar;

int main() {
    lot::LotOptions options;
    options.sites = 6;
    options.jobs = 0;  // one worker per hardware thread
    options.seed = 2005;
    options.characterizer.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.characterizer.learner.training_tests = 60;
    options.characterizer.optimizer.ga.max_generations = 10;
    options.characterizer.optimizer.ga.populations = 2;
    options.on_progress = [](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "  [%zu/%zu] site done\n", done, total);
    };

    std::printf("characterizing a %zu-site lot in parallel...\n",
                options.sites);
    const lot::LotRunner runner(options);
    const lot::LotResult result = runner.run();
    const lot::LotReport report = lot::LotReport::build(result);

    std::printf("%s", report.render().c_str());
    std::printf("\nwall clock: %.2f s\n", result.wall_seconds);

    // The per-site detail stays available for drill-down.
    const lot::SiteResult& worst_site = *std::max_element(
        result.sites.begin(), result.sites.end(),
        [](const lot::SiteResult& a, const lot::SiteResult& b) {
            return a.max_risk < b.max_risk;
        });
    std::printf("\nhighest-risk site %zu (risk %.2f): die window %.2f ns, "
                "sensitivity %.3f\n",
                worst_site.site, worst_site.max_risk,
                worst_site.die.window_ns, worst_site.die.sensitivity_scale);
    std::printf("%s", worst_site.log.report().c_str());
    return 0;
}
