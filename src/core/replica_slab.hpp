// Warm replica slab: a fixed pool of pre-cloned DUT replicas, each paired
// with a reusable ate::Tester, recycled across fitness slots and GA
// generations. A hunt that measures the same die thousands of times pays
// clone_cold + Tester construction (array allocation, ledger setup,
// options copies) once per slab slot instead of once per measurement;
// DeviceUnderTest::reset_warm re-arms a recycled replica to the exact
// state a fresh cold clone would have, so slab-backed hunts stay
// byte-identical to cold-clone hunts at any slab size. It is the one
// place the replica ring obtains a replica.
//
// Every leased Tester runs the source tester's options with realtime
// emulation stripped (AsyncTester::replica_options): the ring's
// completion deadlines carry the emulated latency, never a sleep.
//
// Thread safety: acquire()/release (Lease destruction) may be called from
// any thread. The leased Tester itself is single-threaded, as always.
//
// Exhaustion policy: an empty free list never blocks. The acquire falls
// back to a transient cold clone owned by the lease (counted as a miss),
// so a slab smaller than the leases held at once degrades to a cold
// clone per extra lease instead of deadlocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ate/tester.hpp"
#include "device/dut.hpp"

namespace cichar::core {

/// Recycling effectiveness counters (mirrored to telemetry when enabled).
struct ReplicaSlabStats {
    std::uint64_t acquires = 0;
    /// Warm in-place resets of a pooled replica (the fast path).
    std::uint64_t recycles = 0;
    /// clone_cold fallbacks: slab pre-fill, or a DUT whose reset_warm is
    /// unsupported.
    std::uint64_t cold_clones = 0;
    /// Free list was empty: the lease ran on a transient cold clone.
    std::uint64_t misses = 0;
};

class ReplicaSlab {
public:
    /// Pre-clones `capacity` warm replicas of `source`'s DUT. Requires a
    /// DUT that supports clone_cold (callers gate on that already, like
    /// the parallel hunt does); throws std::runtime_error otherwise.
    ReplicaSlab(ate::Tester& source, std::size_t capacity);

    ReplicaSlab(const ReplicaSlab&) = delete;
    ReplicaSlab& operator=(const ReplicaSlab&) = delete;

    class Lease;

    /// Leases a replica seeded exactly like clone_cold(noise_seed).
    [[nodiscard]] Lease acquire(std::uint64_t noise_seed);

    [[nodiscard]] ReplicaSlabStats stats() const;
    [[nodiscard]] std::size_t capacity() const noexcept {
        return slots_.size();
    }

private:
    struct Slot {
        std::unique_ptr<device::DeviceUnderTest> dut;
        std::optional<ate::Tester> tester;
    };

    /// Warm-resets (or cold-rebuilds) the slot for one evaluation.
    void prepare(Slot& slot, std::uint64_t noise_seed);
    void release(Slot* slot);

    ate::Tester* source_;
    ate::TesterOptions options_;  ///< realtime emulation stripped
    std::vector<std::unique_ptr<Slot>> slots_;
    std::mutex mutex_;
    std::vector<Slot*> free_;
    std::atomic<std::uint64_t> acquires_{0};
    std::atomic<std::uint64_t> recycles_{0};
    std::atomic<std::uint64_t> cold_clones_{0};
    std::atomic<std::uint64_t> misses_{0};

public:
    /// Movable RAII lease over one prepared replica. Destruction returns
    /// a pooled slot to the free list; a transient (miss) slot just dies.
    class Lease {
    public:
        Lease() = default;
        Lease(Lease&& other) noexcept { *this = std::move(other); }
        Lease& operator=(Lease&& other) noexcept {
            if (this != &other) {
                reset();
                slab_ = other.slab_;
                slot_ = other.slot_;
                owned_ = std::move(other.owned_);
                other.slab_ = nullptr;
                other.slot_ = nullptr;
            }
            return *this;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        ~Lease() { reset(); }

        void reset() {
            if (slot_ != nullptr && owned_ == nullptr) {
                slab_->release(slot_);
            }
            owned_.reset();
            slot_ = nullptr;
            slab_ = nullptr;
        }

        [[nodiscard]] ate::Tester& tester() noexcept {
            return *slot_->tester;
        }
        [[nodiscard]] explicit operator bool() const noexcept {
            return slot_ != nullptr;
        }

    private:
        friend class ReplicaSlab;
        Lease(ReplicaSlab* slab, Slot* slot, std::unique_ptr<Slot> owned)
            : slab_(slab), slot_(slot), owned_(std::move(owned)) {}

        ReplicaSlab* slab_ = nullptr;
        Slot* slot_ = nullptr;
        std::unique_ptr<Slot> owned_;  ///< set for transient miss leases
    };
};

}  // namespace cichar::core
