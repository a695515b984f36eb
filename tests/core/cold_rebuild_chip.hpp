// A replicable DUT whose replicas refuse reset_warm (the DeviceUnderTest
// default), so every ReplicaSlab lease on it is a cold rebuild through
// clone_cold. Everything else forwards to a real MemoryTestChip (which
// is final, hence the wrapper), including clone_cold and the checkpoint
// state, so a hunt on this chip is the cold-clone reference the warm
// slab must match byte for byte.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "device/memory_chip.hpp"

namespace cichar::core {

class ColdRebuildChip final : public device::DeviceUnderTest {
public:
    ColdRebuildChip(device::DieParameters die,
                    device::MemoryChipOptions options)
        : inner_(std::make_unique<device::MemoryTestChip>(die, options)) {}
    explicit ColdRebuildChip(std::unique_ptr<device::DeviceUnderTest> inner)
        : inner_(std::move(inner)) {}

    [[nodiscard]] bool passes(const testgen::Test& test,
                              device::ParameterKind parameter,
                              double setting) override {
        return inner_->passes(test, parameter, setting);
    }
    [[nodiscard]] device::FunctionalResult run_functional(
        const testgen::Test& test) override {
        return inner_->run_functional(test);
    }
    void settle() override { inner_->settle(); }

    [[nodiscard]] std::unique_ptr<device::DeviceUnderTest> clone_cold(
        std::uint64_t noise_seed) const override {
        return std::make_unique<ColdRebuildChip>(
            inner_->clone_cold(noise_seed));
    }

    [[nodiscard]] bool save_state(std::string& out) const override {
        return inner_->save_state(out);
    }
    [[nodiscard]] bool load_state(util::ByteReader& in) override {
        return inner_->load_state(in);
    }

private:
    std::unique_ptr<device::DeviceUnderTest> inner_;
};

}  // namespace cichar::core
