#include "testgen/random_gen.hpp"

#include <algorithm>
#include <cassert>

#include "testgen/address_map.hpp"

namespace cichar::testgen {

RandomTestGenerator::RandomTestGenerator(RandomGeneratorOptions options)
    : options_(options) {
    assert(options_.min_cycles >= 1);
    assert(options_.min_cycles <= options_.max_cycles);
    assert(options_.max_cycles <= kMaxPatternCycles);
}

PatternRecipe RandomTestGenerator::random_recipe(util::Rng& rng) const {
    std::array<double, kSequenceGeneCount> genes{};
    for (double& g : genes) g = rng.uniform();
    PatternRecipe r =
        PatternRecipe::decode(genes, options_.min_cycles, options_.max_cycles);
    r.seed = rng();
    return r;
}

TestConditions RandomTestGenerator::random_conditions(util::Rng& rng) const {
    return options_.condition_bounds.decode(rng.uniform(), rng.uniform(),
                                            rng.uniform(), rng.uniform());
}

namespace {

// The one cycle loop behind expand() and expand_stats(): emits
// recipe.cycles cycles, in order, into `emit`. Every compare of a draw
// against a recipe probability, or against a cumulative sum of them added
// in the same order, is an integer compare of the draw's top 53 bits
// against util::Rng::threshold(), which takes the same branch from the
// same draw as the double compare it stands for.
template <typename Sink>
void generate_cycles(const PatternRecipe& recipe, Sink emit) {
    using util::Rng;
    Rng rng(recipe.seed);

    std::uint32_t prev_addr = 0;
    std::uint16_t prev_data = 0;
    std::uint32_t burst_remaining = 0;
    bool have_prev = false;
    bool ce = true;
    bool oe = false;

    const double p_continue_burst =
        recipe.burst_length > 1.0 ? 1.0 - 1.0 / recipe.burst_length : 0.0;
    const auto max_burst =
        static_cast<std::int64_t>(std::max(1.0, recipe.burst_length));
    const double toggle_or_alternating =
        recipe.toggle_bias + recipe.alternating_data_bias;

    const std::uint64_t t_half = Rng::threshold(0.5);
    const std::uint64_t t_control = Rng::threshold(recipe.control_activity);
    const std::uint64_t t_nop = Rng::threshold(recipe.nop_fraction);
    const std::uint64_t t_row = Rng::threshold(recipe.row_locality);
    const std::uint64_t t_row_or_bank =
        Rng::threshold(recipe.row_locality + recipe.bank_conflict_bias);
    const std::uint64_t t_burst = Rng::threshold(p_continue_burst);
    const std::uint64_t t_write = Rng::threshold(recipe.write_fraction);
    const std::uint64_t t_toggle = Rng::threshold(recipe.toggle_bias);
    const std::uint64_t t_alternating = Rng::threshold(toggle_or_alternating);
    const std::uint64_t t_solid =
        Rng::threshold(toggle_or_alternating + recipe.solid_data_bias);

    for (std::uint32_t i = 0; i < recipe.cycles; ++i) {
        // Bus control disturbance: real application boards wiggle CE/OE
        // asynchronously; this is the paper's "bus control signals" noise.
        if (rng.below(t_control)) {
            if (rng.below(t_half)) ce = !ce;
            else oe = !oe;
        }

        if (rng.below(t_nop)) {
            VectorCycle vc;
            vc.op = BusOp::kNop;
            vc.chip_enable = ce;
            vc.output_enable = oe;
            emit(vc);
            burst_remaining = 0;
            continue;
        }

        std::uint32_t address = 0;
        bool in_burst = false;
        if (burst_remaining > 0 && have_prev) {
            address = AddressMap::wrap(prev_addr + 1);
            --burst_remaining;
            in_burst = true;
        } else {
            const std::uint64_t r = rng.unit_bits();
            if (r < t_row && have_prev) {
                // Stay in the open row, hop columns.
                address = AddressMap::compose(
                    AddressMap::bank_of(prev_addr), AddressMap::row_of(prev_addr),
                    static_cast<std::uint32_t>(rng.index(AddressMap::kColumns)));
            } else if (r < t_row_or_bank && have_prev) {
                // Same bank, different row: forces a precharge/activate.
                std::uint32_t row = static_cast<std::uint32_t>(
                    rng.index(AddressMap::kRows));
                if (row == AddressMap::row_of(prev_addr)) {
                    row = (row + 1) % AddressMap::kRows;
                }
                address = AddressMap::compose(
                    AddressMap::bank_of(prev_addr), row,
                    static_cast<std::uint32_t>(rng.index(AddressMap::kColumns)));
            } else {
                address = static_cast<std::uint32_t>(rng.index(AddressMap::kWords));
            }
            if (rng.below(t_burst)) {
                burst_remaining =
                    static_cast<std::uint32_t>(rng.uniform_int(1, max_burst));
            }
        }

        const bool is_write = rng.below(t_write);
        std::uint16_t data = 0;
        if (is_write) {
            const std::uint64_t d = rng.unit_bits();
            if (d < t_toggle) {
                data = static_cast<std::uint16_t>(~prev_data);
            } else if (d < t_alternating) {
                data = (i & 1u) != 0 ? std::uint16_t{0xAAAA}
                                     : std::uint16_t{0x5555};
            } else if (d < t_solid) {
                data = rng.below(t_half) ? std::uint16_t{0xFFFF}
                                         : std::uint16_t{0x0000};
            } else {
                data = static_cast<std::uint16_t>(rng() & 0xFFFFu);
            }
        }

        VectorCycle vc;
        vc.address = address;
        vc.data = data;
        vc.op = is_write ? BusOp::kWrite : BusOp::kRead;
        vc.chip_enable = ce;
        vc.output_enable = is_write ? oe : true;
        vc.burst = in_burst;
        emit(vc);

        prev_addr = address;
        if (is_write) prev_data = data;
        have_prev = true;
    }
}

}  // namespace

TestPattern RandomTestGenerator::expand(const PatternRecipe& recipe,
                                        std::string name) const {
    TestPattern pattern(name.empty() ? "random" : std::move(name));
    pattern.reserve(recipe.cycles);
    generate_cycles(recipe, [&pattern](const VectorCycle& vc) {
        pattern.push_back(vc);
    });
    return pattern;
}

PatternStats RandomTestGenerator::expand_stats(const PatternRecipe& recipe) const {
    PatternStats stats;
    generate_cycles(recipe, [&stats](const VectorCycle& vc) { stats.absorb(vc); });
    return stats;
}

Test RandomTestGenerator::random_test(util::Rng& rng, std::string name) const {
    const PatternRecipe recipe = random_recipe(rng);
    const TestConditions conditions = random_conditions(rng);
    return make_test(recipe, conditions, std::move(name));
}

Test RandomTestGenerator::make_test(const PatternRecipe& recipe,
                                    const TestConditions& conditions,
                                    std::string name) const {
    Test t;
    t.name = name.empty() ? "random" : std::move(name);
    t.pattern = expand(recipe, t.name);
    t.conditions = conditions;
    return t;
}

}  // namespace cichar::testgen
