#include "testgen/pattern.hpp"

#include <bit>

#include "testgen/address_map.hpp"

namespace cichar::testgen {

const char* to_string(BusOp op) noexcept {
    switch (op) {
        case BusOp::kNop: return "NOP";
        case BusOp::kRead: return "RD";
        case BusOp::kWrite: return "WR";
    }
    return "?";
}

void PatternStats::absorb(const VectorCycle& vc) noexcept {
    if (have_prev_cycle &&
        (vc.chip_enable != prev_ce || vc.output_enable != prev_oe)) {
        ++control_changes;
    }
    prev_ce = vc.chip_enable;
    prev_oe = vc.output_enable;
    have_prev_cycle = true;

    if (vc.burst) ++bursts;

    if (vc.op == BusOp::kNop) return;

    if (vc.op == BusOp::kRead) ++reads;
    if (vc.op == BusOp::kWrite) {
        ++writes;
        if (have_prev_write) {
            toggle_bits += static_cast<std::uint64_t>(std::popcount(
                static_cast<std::uint16_t>(vc.data ^ prev_write_data)));
            ++write_pairs;
        }
        prev_write_data = vc.data;
        have_prev_write = true;
        if (vc.data == 0x5555 || vc.data == 0xAAAA) ++alternating_writes;
    }

    if (have_prev_op) {
        addr_bits += static_cast<std::uint64_t>(std::popcount(vc.address ^ prev_addr));
        ++op_pairs;
        const bool same_bank =
            AddressMap::bank_of(vc.address) == AddressMap::bank_of(prev_addr);
        const bool row_match =
            AddressMap::row_of(vc.address) == AddressMap::row_of(prev_addr);
        if (same_bank && !row_match) ++bank_conflicts;
        if (same_bank && row_match) ++same_row;
        if ((vc.op == BusOp::kRead) != (prev_op == BusOp::kRead)) ++rw_switches;
    }
    prev_addr = vc.address;
    prev_op = vc.op;
    have_prev_op = true;
}

TestPattern::TestPattern(std::string name, std::vector<VectorCycle> cycles)
    : name_(std::move(name)), cycles_(std::move(cycles)) {
    for (const VectorCycle& vc : cycles_) stats_.absorb(vc);
}

void TestPattern::append(const TestPattern& other) {
    const std::size_t first = cycles_.size();
    cycles_.insert(cycles_.end(), other.cycles_.begin(), other.cycles_.end());
    for (std::size_t i = first; i < cycles_.size(); ++i) stats_.absorb(cycles_[i]);
}

void TestPattern::write(std::uint32_t address, std::uint16_t data, bool burst) {
    push_back(VectorCycle{.address = address,
                          .data = data,
                          .op = BusOp::kWrite,
                          .chip_enable = true,
                          .output_enable = false,
                          .burst = burst});
}

void TestPattern::read(std::uint32_t address, bool burst) {
    push_back(VectorCycle{.address = address,
                          .data = 0,
                          .op = BusOp::kRead,
                          .chip_enable = true,
                          .output_enable = true,
                          .burst = burst});
}

void TestPattern::nop() {
    push_back(VectorCycle{.address = 0,
                          .data = 0,
                          .op = BusOp::kNop,
                          .chip_enable = false,
                          .output_enable = false,
                          .burst = false});
}

}  // namespace cichar::testgen
