#include "testgen/pattern.hpp"

namespace cichar::testgen {

const char* to_string(BusOp op) noexcept {
    switch (op) {
        case BusOp::kNop: return "NOP";
        case BusOp::kRead: return "RD";
        case BusOp::kWrite: return "WR";
    }
    return "?";
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
