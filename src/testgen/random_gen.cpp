#include "testgen/random_gen.hpp"

#include <algorithm>
#include <bit>
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

// Draws for an address kind are one `index(n)` each, and index(n) for a
// power-of-two n is uniform_int's bitmask rejection with a mask equal to
// the span, which never rejects: the draw's low bits, from one draw.
static_assert(std::has_single_bit(AddressMap::kColumns) &&
                  std::has_single_bit(AddressMap::kRows) &&
                  std::has_single_bit(AddressMap::kWords),
              "a single draw is an exact index only for a power-of-two range");

// The one cycle loop behind expand() and expand_stats(): emits
// recipe.cycles cycles, in order, into `emit`. Every compare of a draw
// against a recipe probability, or against a cumulative sum of them added
// in the same order, is an integer compare of the draw's top 53 bits
// against util::Rng::threshold(), which takes the same branch from the
// same draw as the double compare it stands for.
//
// A branch stays only where its outcome changes how many draws follow
// (NOP, burst continuation and start, write, control disturbance, the
// bank-conflict column, solid or random data); every other outcome is
// computed on both sides and picked by select, which spares the
// mispredicts of outcomes that hinge on a fresh draw.
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
    // Toggle is tested first, so a draw below t_toggle toggles even where
    // the cumulative sum thresholds lower (a NaN or negative bias).
    const std::uint64_t t_alternating =
        std::max(t_toggle, Rng::threshold(toggle_or_alternating));
    const std::uint64_t t_solid =
        Rng::threshold(toggle_or_alternating + recipe.solid_data_bias);

    for (std::uint32_t i = 0; i < recipe.cycles; ++i) {
        // Bus control disturbance: real application boards wiggle CE/OE
        // asynchronously; this is the paper's "bus control signals" noise.
        if (rng.below(t_control)) {
            const bool half = rng.below(t_half);
            ce ^= half;
            oe ^= !half;
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
        const bool in_burst = burst_remaining > 0 && have_prev;
        if (in_burst) {
            address = AddressMap::wrap(prev_addr + 1);
            --burst_remaining;
        } else {
            // Every kind draws r and one index word; only a bank conflict
            // draws a second, for its column.
            const std::uint64_t r = rng.unit_bits();
            const auto x1 = static_cast<std::uint32_t>(rng());
            const bool row_hop = r < t_row && have_prev;
            const bool bank_hop = !row_hop && r < t_row_or_bank && have_prev;
            std::uint32_t x2 = 0;
            if (bank_hop) x2 = static_cast<std::uint32_t>(rng());

            // compose() keeps each field's low bits: a column or row index
            // drawn from x1 or x2, and the row after the last wrapping to 0.
            const std::uint32_t bank = AddressMap::bank_of(prev_addr);
            const std::uint32_t prev_row = AddressMap::row_of(prev_addr);
            // Stay in the open row, hop columns.
            const std::uint32_t row_hop_address =
                AddressMap::compose(bank, prev_row, x1);
            // Same bank, different row: forces a precharge/activate.
            const std::uint32_t drawn_row = x1 & (AddressMap::kRows - 1);
            const std::uint32_t bank_hop_address = AddressMap::compose(
                bank, drawn_row + (drawn_row == prev_row ? 1u : 0u), x2);
            const std::uint32_t any_address = AddressMap::wrap(x1);
            address = row_hop ? row_hop_address
                              : (bank_hop ? bank_hop_address : any_address);

            if (rng.below(t_burst)) {
                burst_remaining =
                    static_cast<std::uint32_t>(rng.uniform_int(1, max_burst));
            }
        }

        const bool is_write = rng.below(t_write);
        std::uint16_t data = 0;
        if (is_write) {
            const std::uint64_t d = rng.unit_bits();
            if (d < t_alternating) {
                // Toggle or alternating: neither draws again.
                const std::uint16_t alternating = (i & 1u) != 0
                                                      ? std::uint16_t{0xAAAA}
                                                      : std::uint16_t{0x5555};
                data = d < t_toggle ? static_cast<std::uint16_t>(~prev_data)
                                    : alternating;
            } else {
                // Solid or random: both draw one word. Solid's coin is the
                // word's top 53 bits against t_half, as rng.below() does.
                const std::uint64_t x = rng();
                const std::uint16_t solid = (x >> 11) < t_half
                                                ? std::uint16_t{0xFFFF}
                                                : std::uint16_t{0x0000};
                data = d < t_solid ? solid
                                   : static_cast<std::uint16_t>(x & 0xFFFFu);
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
        prev_data = is_write ? data : prev_data;
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
