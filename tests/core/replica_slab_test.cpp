#include "core/replica_slab.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "ate/tester.hpp"
#include "cold_rebuild_chip.hpp"
#include "device/memory_chip.hpp"
#include "testgen/march.hpp"

namespace cichar::core {
namespace {

testgen::Test slab_test() {
    testgen::TestPattern p("slab");
    for (std::uint32_t i = 0; i < 100; ++i) {
        if (i % 2 == 0) {
            p.write(i % 32, static_cast<std::uint16_t>(i));
        } else {
            p.read((i - 1) % 32);
        }
    }
    return testgen::make_test(std::move(p));
}

TEST(ReplicaSlab, RecyclesPooledReplicasAcrossAcquires) {
    device::MemoryTestChip chip({}, {});
    ate::Tester source(chip);
    ReplicaSlab slab(source, 2);

    for (std::uint64_t i = 0; i < 10; ++i) {
        ReplicaSlab::Lease lease = slab.acquire(i + 1);
        ASSERT_TRUE(lease);
        (void)lease.tester().dut();
    }
    const ReplicaSlabStats stats = slab.stats();
    EXPECT_EQ(stats.acquires, 10u);
    EXPECT_EQ(stats.recycles, 10u);       // every lease reused a pooled slot
    EXPECT_EQ(stats.cold_clones, 2u);     // only the pre-fill cloned
    EXPECT_EQ(stats.misses, 0u);
}

TEST(ReplicaSlab, LeasedReplicaMeasuresIdenticallyToColdClone) {
    device::MemoryChipOptions noisy;  // default options: noise on
    device::MemoryTestChip chip({}, noisy);
    ate::Tester source(chip);
    ReplicaSlab slab(source, 1);
    const testgen::Test t = slab_test();
    const ate::Parameter tdq = ate::Parameter::data_valid_time();

    const std::uint64_t seed = 0xFEED;
    // Dirty the pooled slot first so the recycle has real state to clear.
    {
        ReplicaSlab::Lease dirty = slab.acquire(7);
        for (int i = 0; i < 25; ++i) {
            (void)dirty.tester().apply(t, tdq, 28.0 + 0.1 * i);
        }
        (void)dirty.tester().run_functional(t);
    }

    const auto cold_dut = chip.clone_cold(seed);
    ate::Tester cold(*cold_dut, source.options());
    ReplicaSlab::Lease lease = slab.acquire(seed);
    EXPECT_EQ(slab.stats().recycles, 2u);
    for (int i = 0; i < 40; ++i) {
        const double setting = 26.0 + 0.15 * i;
        ASSERT_EQ(lease.tester().apply(t, tdq, setting),
                  cold.apply(t, tdq, setting))
            << "measurement " << i << " diverged from a cold clone";
    }
    EXPECT_EQ(lease.tester().log().total().applications,
              cold.log().total().applications);
}

TEST(ReplicaSlab, ExhaustedFreeListFallsBackToTransientClone) {
    device::MemoryTestChip chip({}, {});
    ate::Tester source(chip);
    ReplicaSlab slab(source, 1);

    ReplicaSlab::Lease first = slab.acquire(1);
    ReplicaSlab::Lease second = slab.acquire(2);  // free list empty
    ASSERT_TRUE(first);
    ASSERT_TRUE(second);
    (void)second.tester().dut();  // transient lease is fully usable
    EXPECT_EQ(slab.stats().misses, 1u);

    first.reset();
    second.reset();
    ReplicaSlab::Lease third = slab.acquire(3);  // pooled slot back
    ASSERT_TRUE(third);
    EXPECT_EQ(slab.stats().misses, 1u);
}

TEST(ReplicaSlab, ResetWarmUnsupportedFallsBackToColdRebuilds) {
    ColdRebuildChip chip({}, {});
    ate::Tester source(chip);
    ReplicaSlab slab(source, 1);

    for (std::uint64_t i = 0; i < 5; ++i) {
        ReplicaSlab::Lease lease = slab.acquire(i + 1);
        ASSERT_TRUE(lease);
    }
    const ReplicaSlabStats stats = slab.stats();
    EXPECT_EQ(stats.recycles, 0u);
    EXPECT_EQ(stats.cold_clones, 6u);  // pre-fill + one rebuild per lease
    EXPECT_EQ(stats.misses, 0u);
}

TEST(ReplicaSlab, LeaseStripsRealtimeEmulation) {
    device::MemoryTestChip chip({}, {});
    ate::TesterOptions realtime;
    realtime.realtime_fraction = 0.25;
    ate::Tester source(chip, realtime);
    ReplicaSlab slab(source, 1);

    // The ring's completion deadline carries the latency: neither a
    // fresh nor a recycled replica tester may sleep it again.
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        ReplicaSlab::Lease lease = slab.acquire(seed);
        EXPECT_EQ(lease.tester().options().realtime_fraction, 0.0);
    }
    EXPECT_EQ(slab.stats().recycles, 2u);
}

TEST(ReplicaSlab, LeaseStartsWithEmptyLedgerAndNoInjector) {
    device::MemoryTestChip chip({}, {});
    ate::Tester source(chip);
    ReplicaSlab slab(source, 1);
    const testgen::Test t = slab_test();
    const ate::Parameter tdq = ate::Parameter::data_valid_time();

    {
        ReplicaSlab::Lease lease = slab.acquire(1);
        for (int i = 0; i < 10; ++i) {
            (void)lease.tester().apply(t, tdq, 30.0);
        }
        EXPECT_GT(lease.tester().log().total().applications, 0u);
    }
    ReplicaSlab::Lease fresh = slab.acquire(2);
    EXPECT_EQ(fresh.tester().log().total().applications, 0u);
}

}  // namespace
}  // namespace cichar::core
