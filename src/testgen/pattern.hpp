// Test stimulus representation: a TestPattern is a sequence of bus vector
// cycles (address, data, control signals), exactly what the paper's random
// test generator emits in 100-1000 cycle bursts per trip-point measurement.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "testgen/address_map.hpp"

namespace cichar::testgen {

/// Memory-bus operation of one vector cycle.
enum class BusOp : std::uint8_t { kNop = 0, kRead = 1, kWrite = 2 };

[[nodiscard]] const char* to_string(BusOp op) noexcept;

/// One tester vector: the state of the DUT pins for one clock cycle.
struct VectorCycle {
    std::uint32_t address = 0;
    std::uint16_t data = 0;        ///< write data (ignored for reads)
    BusOp op = BusOp::kNop;
    bool chip_enable = true;       ///< CE# asserted
    bool output_enable = false;    ///< OE# asserted (reads drive the bus)
    bool burst = false;            ///< cycle continues the previous burst

    [[nodiscard]] bool operator==(const VectorCycle&) const = default;
};

/// Set bits of `x`, counted inline (SWAR). The baseline x86-64 target has
/// no popcnt instruction, so std::popcount would call libgcc's
/// __popcountdi2, twice per absorbed cycle.
[[nodiscard]] constexpr std::uint32_t bit_count(std::uint32_t x) noexcept {
    x -= (x >> 1) & 0x55555555U;
    x = (x & 0x33333333U) + ((x >> 2) & 0x33333333U);
    x = (x + (x >> 4)) & 0x0F0F0F0FU;
    return (x * 0x01010101U) >> 24;
}

/// Running feature statistics of a cycle sequence: the counters behind
/// `extract_pattern_features`, plus the previous-cycle state needed to
/// extend them by one more cycle. All sums are integers, so the ratios
/// computed from them do not depend on how the sequence was assembled.
struct PatternStats {
    std::uint64_t toggle_bits = 0;       ///< data bits flipped, write to write
    std::uint64_t write_pairs = 0;       ///< consecutive write pairs
    std::uint64_t addr_bits = 0;         ///< address bits flipped, op to op
    std::uint64_t op_pairs = 0;          ///< consecutive non-NOP pairs
    std::uint64_t bank_conflicts = 0;    ///< same bank, different row
    std::uint64_t same_row = 0;          ///< same bank, same row
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rw_switches = 0;       ///< read<->write flips, op to op
    std::uint64_t bursts = 0;            ///< burst-flagged cycles
    std::uint64_t alternating_writes = 0;  ///< writes of 0x5555 / 0xAAAA
    std::uint64_t control_changes = 0;   ///< CE/OE changes, cycle to cycle

    bool have_prev_cycle = false;
    bool prev_ce = true;
    bool prev_oe = false;
    bool have_prev_write = false;
    std::uint16_t prev_write_data = 0;
    bool have_prev_op = false;
    BusOp prev_op = BusOp::kNop;
    std::uint32_t prev_addr = 0;

    [[nodiscard]] bool operator==(const PatternStats&) const = default;

    /// Extends the statistics by `vc`, the next cycle in order. Branch
    /// free: each counter adds a bool, and each previous-cycle field keeps
    /// its value or takes the cycle's by select, so the op mix of a
    /// random pattern costs no mispredicts.
    void absorb(const VectorCycle& vc) noexcept {
        control_changes += have_prev_cycle & ((vc.chip_enable != prev_ce) |
                                              (vc.output_enable != prev_oe));
        prev_ce = vc.chip_enable;
        prev_oe = vc.output_enable;
        have_prev_cycle = true;

        bursts += vc.burst;

        const bool is_op = vc.op != BusOp::kNop;
        const bool is_read = vc.op == BusOp::kRead;
        const bool is_write = vc.op == BusOp::kWrite;
        reads += is_read;
        writes += is_write;

        const bool write_pair = is_write & have_prev_write;
        const auto data_flips = static_cast<std::uint64_t>(
            bit_count(static_cast<std::uint16_t>(vc.data ^ prev_write_data)));
        toggle_bits += write_pair ? data_flips : 0;
        write_pairs += write_pair;
        alternating_writes += is_write & ((vc.data == 0x5555) | (vc.data == 0xAAAA));
        prev_write_data = is_write ? vc.data : prev_write_data;
        have_prev_write |= is_write;

        const bool op_pair = is_op & have_prev_op;
        const auto addr_flips =
            static_cast<std::uint64_t>(bit_count(vc.address ^ prev_addr));
        const bool same_bank =
            AddressMap::bank_of(vc.address) == AddressMap::bank_of(prev_addr);
        const bool row_match =
            AddressMap::row_of(vc.address) == AddressMap::row_of(prev_addr);
        addr_bits += op_pair ? addr_flips : 0;
        op_pairs += op_pair;
        bank_conflicts += op_pair & same_bank & !row_match;
        same_row += op_pair & same_bank & row_match;
        rw_switches += op_pair & (is_read != (prev_op == BusOp::kRead));
        prev_addr = is_op ? vc.address : prev_addr;
        prev_op = is_op ? vc.op : prev_op;
        have_prev_op |= is_op;
    }
};

/// An ordered sequence of vector cycles with a human-readable name.
///
/// Patterns are value types: the ATE, the device model, and the feature
/// extractor all consume them read-only. Every mutator also feeds the
/// cycle into `stats()`, so feature extraction never re-scans the cycles.
class TestPattern {
public:
    TestPattern() = default;
    explicit TestPattern(std::string name) : name_(std::move(name)) {}
    TestPattern(std::string name, std::vector<VectorCycle> cycles);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    [[nodiscard]] std::size_t size() const noexcept { return cycles_.size(); }
    [[nodiscard]] bool empty() const noexcept { return cycles_.empty(); }

    [[nodiscard]] const VectorCycle& operator[](std::size_t i) const noexcept {
        return cycles_[i];
    }
    [[nodiscard]] std::span<const VectorCycle> cycles() const noexcept {
        return cycles_;
    }
    [[nodiscard]] const PatternStats& stats() const noexcept { return stats_; }

    void push_back(VectorCycle cycle) {
        cycles_.push_back(cycle);
        stats_.absorb(cycle);
    }
    void reserve(std::size_t n) { cycles_.reserve(n); }
    void append(const TestPattern& other);

    /// Convenience builders for the march/checkerboard generators.
    void write(std::uint32_t address, std::uint16_t data, bool burst = false);
    void read(std::uint32_t address, bool burst = false);
    void nop();

    /// Stats are a function of the cycles, so they take no part.
    [[nodiscard]] bool operator==(const TestPattern& other) const {
        return name_ == other.name_ && cycles_ == other.cycles_;
    }

private:
    std::string name_;
    std::vector<VectorCycle> cycles_;
    PatternStats stats_;
};

}  // namespace cichar::testgen
