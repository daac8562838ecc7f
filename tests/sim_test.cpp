/**
 * @file
 * Direct tests for the GPU counting model: bank-conflict wavefront
 * counting against hand-computed cases (broadcast, 2-way/N-way
 * conflicts, vectorized transaction splits, inactive lanes), global
 * sector coalescing (also against a std::set of touched sectors), the
 * data-carrying shared memory, and the platform
 * presets of Table 2.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>

#include "sim/gpu_spec.h"
#include "support/diagnostics.h"
#include "sim/memory_sim.h"

namespace ll {
namespace sim {
namespace {

std::vector<int64_t>
addrs(std::initializer_list<int64_t> list)
{
    return {list};
}

TEST(SharedWavefronts, ContiguousWordAccessIsConflictFree)
{
    auto spec = GpuSpec::gh200();
    std::vector<int64_t> a(32);
    for (int i = 0; i < 32; ++i)
        a[i] = i * 4; // one word per bank
    EXPECT_EQ(SharedMemory::countWavefronts(spec, a, 4), 1);
}

TEST(SharedWavefronts, SameWordIsBroadcast)
{
    auto spec = GpuSpec::gh200();
    std::vector<int64_t> a(32, 0); // all lanes read word 0
    EXPECT_EQ(SharedMemory::countWavefronts(spec, a, 4), 1);
}

TEST(SharedWavefronts, StrideOf128BytesSerializesFully)
{
    auto spec = GpuSpec::gh200();
    std::vector<int64_t> a(32);
    for (int i = 0; i < 32; ++i)
        a[i] = i * 128; // all lanes hit bank 0, distinct words
    EXPECT_EQ(SharedMemory::countWavefronts(spec, a, 4), 32);
}

TEST(SharedWavefronts, TwoWayConflict)
{
    auto spec = GpuSpec::gh200();
    std::vector<int64_t> a(32);
    for (int i = 0; i < 32; ++i)
        a[i] = (i % 16) * 4 + (i / 16) * 256; // halves collide per bank
    EXPECT_EQ(SharedMemory::countWavefronts(spec, a, 4), 2);
}

TEST(SharedWavefronts, VectorizedAccessSplitsInto128ByteGroups)
{
    auto spec = GpuSpec::gh200();
    // 16-byte accesses: groups of 8 lanes; fully contiguous.
    std::vector<int64_t> a(32);
    for (int i = 0; i < 32; ++i)
        a[i] = i * 16;
    EXPECT_EQ(SharedMemory::countWavefronts(spec, a, 16), 4);
    EXPECT_EQ(SharedMemory::countTransactions(spec, a, 16), 4);
}

TEST(SharedWavefronts, InactiveLanesAreSkipped)
{
    auto spec = GpuSpec::gh200();
    std::vector<int64_t> a(32, kInactiveLane);
    EXPECT_EQ(SharedMemory::countWavefronts(spec, a, 4), 0);
    a[5] = 0;
    EXPECT_EQ(SharedMemory::countWavefronts(spec, a, 4), 1);
}

TEST(SharedWavefronts, SubWordBytesOfOneWordMerge)
{
    auto spec = GpuSpec::gh200();
    // 4 lanes per word at byte granularity: still one word per bank.
    std::vector<int64_t> a(32);
    for (int i = 0; i < 32; ++i)
        a[i] = i; // bytes 0..31 = words 0..7
    EXPECT_EQ(SharedMemory::countWavefronts(spec, a, 1), 1);
}

TEST(SharedMemoryData, StoreLoadRoundTrip)
{
    auto spec = GpuSpec::gh200();
    SharedMemory smem(spec, 4, 256);
    AccessStats stats;
    std::vector<int64_t> offsets(32);
    std::vector<uint64_t> values(64);
    for (int i = 0; i < 32; ++i) {
        offsets[i] = i * 2;
        values[2 * i] = uint64_t(i) * 10;
        values[2 * i + 1] = uint64_t(i) * 10 + 1;
    }
    smem.warpStore(offsets, 2, values, stats);
    EXPECT_EQ(stats.instructions, 1);
    std::vector<uint64_t> loaded;
    smem.warpLoad(offsets, 2, loaded, stats);
    EXPECT_EQ(loaded, values);
    EXPECT_EQ(smem.peek(3), 11u);
}

TEST(SharedMemoryData, InactiveLanesMoveNothing)
{
    auto spec = GpuSpec::gh200();
    SharedMemory smem(spec, 4, 64);
    AccessStats stats;
    std::vector<int64_t> offsets = {0, kInactiveLane, 4, kInactiveLane};
    std::vector<uint64_t> values = {1, 2, 3, 4, 5, 6, 7, 8};
    smem.warpStore(offsets, 2, values, stats);
    EXPECT_EQ(smem.peek(0), 1u);
    EXPECT_EQ(smem.peek(2), SharedMemory::kPoison); // lane 1 skipped
    EXPECT_EQ(smem.peek(4), 5u);
    // A reused output buffer is resized, and inactive slots hold poison.
    std::vector<uint64_t> loaded(100, 0);
    offsets = {kInactiveLane, 0, kInactiveLane, 4};
    smem.warpLoad(offsets, 2, loaded, stats);
    const uint64_t p = SharedMemory::kPoison;
    EXPECT_EQ(loaded, (std::vector<uint64_t>{p, p, 1, 2, p, p, 5, 6}));
    EXPECT_EQ(stats.instructions, 2);
}

TEST(SharedMemoryData, CapacityIsEnforced)
{
    auto spec = GpuSpec::rtx4090();
    EXPECT_THROW(SharedMemory(spec, 4, 1 << 20), ll::UserError);
}

TEST(GlobalSectors, FullyCoalescedWarp)
{
    auto spec = GpuSpec::gh200();
    GlobalMemory gmem(spec);
    std::vector<int64_t> a(32);
    for (int i = 0; i < 32; ++i)
        a[i] = i * 4;
    EXPECT_EQ(gmem.countSectors(a, 4), 4); // 128 B = 4 sectors
}

TEST(GlobalSectors, StridedWarpTouchesOneSectorPerLane)
{
    auto spec = GpuSpec::gh200();
    GlobalMemory gmem(spec);
    std::vector<int64_t> a(32);
    for (int i = 0; i < 32; ++i)
        a[i] = i * 512;
    EXPECT_EQ(gmem.countSectors(a, 4), 32);
}

TEST(GlobalSectors, DuplicateAddressesCoalesce)
{
    auto spec = GpuSpec::gh200();
    GlobalMemory gmem(spec);
    EXPECT_EQ(gmem.countSectors(addrs({0, 0, 0, 0}), 4), 1);
    EXPECT_EQ(gmem.countSectors(addrs({0, 30}), 4), 2); // straddles
}

// countSectors against a std::set of every touched sector, over random
// warps of 32 and 64 lanes with inactive lanes mixed in, unaligned
// addresses and access widths that straddle 32-byte sectors.
TEST(GlobalSectors, CountMatchesASetOfTouchedSectors)
{
    GlobalMemory gmem(GpuSpec::mi250());
    std::mt19937 rng(0x5ec7u);
    std::uniform_int_distribution<int64_t> addr(0, int64_t(1) << 14);
    std::uniform_int_distribution<int> idle(0, 4);
    for (int trial = 0; trial < 200; ++trial) {
        for (int lanes : {32, 64}) {
            std::vector<int64_t> a;
            for (int l = 0; l < lanes; ++l)
                a.push_back(idle(rng) == 0 ? kInactiveLane : addr(rng));
            for (int accessBytes : {1, 4, 12, 16, 33, 64}) {
                std::set<int64_t> sectors;
                for (int64_t x : a) {
                    if (x == kInactiveLane)
                        continue;
                    for (int64_t s = x / 32;
                         s <= (x + accessBytes - 1) / 32; ++s)
                        sectors.insert(s);
                }
                EXPECT_EQ(gmem.countSectors(a, accessBytes),
                          static_cast<int64_t>(sectors.size()))
                    << "trial " << trial << ", " << lanes << " lanes, "
                    << accessBytes << " bytes";
            }
        }
    }
    EXPECT_EQ(gmem.countSectors(std::vector<int64_t>(64, kInactiveLane), 4),
              0);
}

TEST(GpuSpecs, Table2Presets)
{
    auto ada = GpuSpec::rtx4090();
    auto hopper = GpuSpec::gh200();
    auto cdna = GpuSpec::mi250();
    EXPECT_EQ(ada.warpSize, 32);
    EXPECT_EQ(cdna.warpSize, 64);
    EXPECT_TRUE(hopper.hasWgmma);
    EXPECT_FALSE(ada.hasWgmma);
    EXPECT_TRUE(ada.hasLdmatrix);
    EXPECT_FALSE(ada.hasStmatrix); // pre-Hopper
    EXPECT_TRUE(hopper.hasStmatrix);
    EXPECT_FALSE(cdna.hasLdmatrix);
    EXPECT_TRUE(hopper.hasTma);
    EXPECT_FALSE(ada.hasTma);
    EXPECT_GT(hopper.sharedMemPerCta, ada.sharedMemPerCta);
}

} // namespace
} // namespace sim
} // namespace ll
