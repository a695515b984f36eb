#include "core/replica_slab.hpp"

#include <stdexcept>

#include "ate/async_tester.hpp"
#include "util/telemetry.hpp"

namespace cichar::core {

namespace {

void telem_slab(std::uint64_t recycled, std::uint64_t cold,
                std::uint64_t missed) {
    if (!util::telemetry::metrics_enabled()) return;
    namespace telem = util::telemetry;
    static auto& recycles = telem::Registry::instance().counter(
        "cichar_hunt_slab_recycles_total");
    static auto& cold_clones = telem::Registry::instance().counter(
        "cichar_hunt_slab_cold_clones_total");
    static auto& misses = telem::Registry::instance().counter(
        "cichar_hunt_slab_misses_total");
    if (recycled) recycles.add(recycled);
    if (cold) cold_clones.add(cold);
    if (missed) misses.add(missed);
}

}  // namespace

ReplicaSlab::ReplicaSlab(ate::Tester& source, std::size_t capacity)
    : source_(&source),
      options_(ate::AsyncTester::replica_options(source.options())) {
    slots_.reserve(capacity);
    free_.reserve(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
        auto slot = std::make_unique<Slot>();
        // Pre-clone once per hunt; every acquisition afterwards re-arms
        // the same allocation via reset_warm. The placeholder seed never
        // leaks into a measurement (prepare() re-seeds before use).
        slot->dut = source_->dut().clone_cold(1);
        if (slot->dut == nullptr) {
            throw std::runtime_error(
                "ReplicaSlab: DUT does not support clone_cold");
        }
        cold_clones_.fetch_add(1, std::memory_order_relaxed);
        free_.push_back(slot.get());
        slots_.push_back(std::move(slot));
    }
    telem_slab(0, capacity, 0);
}

void ReplicaSlab::prepare(Slot& slot, std::uint64_t noise_seed) {
    const bool warm = slot.dut != nullptr && slot.dut->reset_warm(noise_seed);
    if (warm) {
        recycles_.fetch_add(1, std::memory_order_relaxed);
    } else {
        // reset_warm unsupported (or a transient slot): fall back to the
        // cold clone the hunt would have made anyway.
        slot.dut = source_->dut().clone_cold(noise_seed);
        if (slot.dut == nullptr) {
            throw std::runtime_error(
                "ReplicaSlab: DUT does not support clone_cold");
        }
        cold_clones_.fetch_add(1, std::memory_order_relaxed);
        slot.tester.reset();  // the old tester borrowed the old DUT
    }
    if (!slot.tester.has_value()) {
        slot.tester.emplace(*slot.dut, options_);
    } else {
        // Reuse the tester allocation: fresh ledger, no stale injector.
        slot.tester->attach_fault_injector(nullptr);
        slot.tester->log().reset();
    }
    telem_slab(warm ? 1 : 0, warm ? 0 : 1, 0);
}

ReplicaSlab::Lease ReplicaSlab::acquire(std::uint64_t noise_seed) {
    acquires_.fetch_add(1, std::memory_order_relaxed);
    Slot* slot = nullptr;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        }
    }
    std::unique_ptr<Slot> owned;
    if (slot == nullptr) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        telem_slab(0, 0, 1);
        owned = std::make_unique<Slot>();
        slot = owned.get();
    }
    prepare(*slot, noise_seed);
    return Lease(this, slot, std::move(owned));
}

void ReplicaSlab::release(Slot* slot) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(slot);
}

ReplicaSlabStats ReplicaSlab::stats() const {
    ReplicaSlabStats stats;
    stats.acquires = acquires_.load(std::memory_order_relaxed);
    stats.recycles = recycles_.load(std::memory_order_relaxed);
    stats.cold_clones = cold_clones_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    return stats;
}

}  // namespace cichar::core
