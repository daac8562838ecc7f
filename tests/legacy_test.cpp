/**
 * @file
 * Tests for the legacy-Triton baseline model: the fastest-dim
 * vectorization heuristic (reproducing Table 3's legacy column
 * bit-exactly), the reduction support matrix and duplicate-store
 * counting (Table 4), the padding heuristic (Figure 2 baseline, its
 * addressing independent of the out-dim order), and the replayed
 * Table 5 pass counts.
 */

#include <gtest/gtest.h>

#include "codegen/swizzle.h"
#include "legacy/legacy.h"

namespace ll {
namespace legacy {
namespace {

using triton::BlockedEncoding;
using triton::Shape;

/** The benchmark kernel's blocked encoding for a [512, k] tensor: 16
 *  bytes per thread, k columns. */
BlockedEncoding
table3Encoding(int32_t k, int elemBytes)
{
    BlockedEncoding enc;
    if (k == 1) {
        enc.sizePerThread = {4, 1};
    } else {
        enc.sizePerThread = {std::max(1, 16 / (k * elemBytes)), k};
    }
    enc.threadsPerWarp = {32, 1};
    enc.warpsPerCta = {4, 1};
    enc.order = {1, 0};
    return enc;
}

struct Table3Row
{
    int32_t k;
    int elemBits;
    const char *legacy;
    const char *linear;
};

TEST(LegacyVectorize, ReproducesTable3)
{
    const Table3Row rows[] = {
        {1, 8, "v1.b32", "v1.b32"},   {2, 8, "v1.b16", "v4.b32"},
        {4, 8, "v1.b32", "v4.b32"},   {8, 8, "v2.b32", "v4.b32"},
        {16, 8, "v4.b32", "v4.b32"},  {1, 16, "v2.b32", "v2.b32"},
        {2, 16, "v1.b32", "v4.b32"},  {4, 16, "v2.b32", "v4.b32"},
        {8, 16, "v4.b32", "v4.b32"},  {16, 16, "v4.b32", "v4.b32"},
    };
    for (const auto &row : rows) {
        auto enc = table3Encoding(row.k, row.elemBits / 8);
        Shape shape = {512, row.k};
        auto legacyInst = legacyMemoryInstruction(enc, shape,
                                                  row.elemBits);
        EXPECT_EQ(legacyInst.toString(), row.legacy)
            << "[512," << row.k << "] x f" << row.elemBits;
        auto layout = enc.toLinearLayout(shape);
        auto linearInst =
            codegen::selectMemoryInstruction(layout, row.elemBits);
        EXPECT_EQ(linearInst.toString(), row.linear)
            << "[512," << row.k << "] x f" << row.elemBits;
    }
}

TEST(LegacySupport, ReductionMatrixMatchesTable4)
{
    EXPECT_TRUE(legacySupportsReduction(LayoutKind::Blocked));
    EXPECT_TRUE(legacySupportsReduction(LayoutKind::Mma));
    EXPECT_TRUE(legacySupportsReduction(LayoutKind::SlicedBlocked));
    EXPECT_FALSE(legacySupportsReduction(LayoutKind::MmaInput));
    EXPECT_FALSE(legacySupportsReduction(LayoutKind::SlicedMma));
    EXPECT_FALSE(legacySupportsReduction(LayoutKind::SlicedMmaInput));
    EXPECT_FALSE(legacySupportsReduction(LayoutKind::Custom));
}

TEST(LegacySupport, LinearReductionStoresFewerWithBroadcast)
{
    // A layout broadcasting over warps: linear layouts detect the
    // duplicated data, legacy does not.
    auto spec = sim::GpuSpec::gh200();
    triton::BlockedEncoding enc;
    enc.sizePerThread = {1, 4};
    enc.threadsPerWarp = {8, 4};
    enc.warpsPerCta = {4, 1};
    enc.order = {1, 0};
    auto layout = enc.toLinearLayout({8, 16}); // warps mostly broadcast
    int64_t legacyStores = legacyReductionSharedStores(layout, 1, spec);
    int64_t linearStores = linearReductionSharedStores(layout, 1, spec);
    EXPECT_LT(linearStores, legacyStores);
    EXPECT_GE(linearStores, 1);
}

TEST(LegacySupport, EqualStoresWithoutBroadcast)
{
    auto spec = sim::GpuSpec::gh200();
    triton::BlockedEncoding enc;
    enc.sizePerThread = {2, 2};
    enc.threadsPerWarp = {4, 8};
    enc.warpsPerCta = {2, 2};
    enc.order = {1, 0};
    auto layout = enc.toLinearLayout({32, 32}); // bijective
    EXPECT_EQ(legacyReductionSharedStores(layout, 0, spec),
              linearReductionSharedStores(layout, 0, spec));
}

TEST(LegacyPadding, TransposeConversionHasConflictsOrNarrowVectors)
{
    // The Figure 2 comparison: padding keeps writes conflict-free-ish
    // but cannot match optimal swizzling's vectorization on both sides.
    auto spec = sim::GpuSpec::gh200();
    triton::Shape shape = {64, 64};
    triton::BlockedEncoding row, col;
    row.sizePerThread = {16, 1};
    row.threadsPerWarp = {2, 16};
    row.warpsPerCta = {2, 2};
    row.order = {1, 0};
    col.sizePerThread = {1, 16};
    col.threadsPerWarp = {16, 2};
    col.warpsPerCta = {2, 2};
    col.order = {0, 1};
    auto src = row.toLinearLayout(shape);
    auto dst = col.toLinearLayout(shape);

    auto padded = paddedConversionCost(src, dst, shape, 1, spec);
    EXPECT_GT(padded.sharedBytes, int64_t(64) * 64); // pays padding
    EXPECT_GT(padded.cycles, 0.0);

    auto swz = codegen::computeOptimalSwizzle(src, dst, 1, spec);
    EXPECT_EQ(swz.memLayout.getTotalOutDimSize(), 64 * 64); // no waste
    int64_t swzStore = codegen::analyticWavefronts(swz, src, 1, spec);
    int64_t swzLoad = codegen::analyticWavefronts(swz, dst, 1, spec);
    // The optimal swizzle must not lose to padding on either side.
    EXPECT_LE(swzStore + swzLoad,
              padded.storeWavefronts + padded.loadWavefronts);
}

TEST(LegacyPadding, TileBeyondTheCtaBudgetPaysARoundTripPerPass)
{
    // 256 x (256 + 4 pad) x f32 = 260 KiB against MI250's 64 KiB: five
    // repeated tiles, so four round trips beyond the first. The same
    // tile under an unlimited budget differs by exactly those four.
    auto spec = sim::GpuSpec::mi250();
    Shape shape = {256, 256};
    BlockedEncoding row, col;
    row.sizePerThread = {1, 4};
    row.threadsPerWarp = {8, 8};
    row.warpsPerCta = {2, 2};
    row.order = {1, 0};
    col.sizePerThread = {4, 1};
    col.threadsPerWarp = {8, 8};
    col.warpsPerCta = {2, 2};
    col.order = {0, 1};
    auto src = row.toLinearLayout(shape);
    auto dst = col.toLinearLayout(shape);

    auto cost = paddedConversionCost(src, dst, shape, 4, spec);
    EXPECT_EQ(cost.sharedBytes, int64_t(256) * 260 * 4);
    EXPECT_EQ(cost.passes, 5);

    auto roomy = spec;
    roomy.sharedMemPerCta = 1 << 30;
    auto whole = paddedConversionCost(src, dst, shape, 4, roomy);
    EXPECT_EQ(whole.passes, 1);
    EXPECT_DOUBLE_EQ(cost.cycles - whole.cycles,
                     4 * spec.sharedRoundTripCycles);
}

// The padding heuristic addresses row-major (i, j) = (dim0, dim1) by
// name: listing src's out dims as (dim1, dim0) moves their bit fields
// in the flat index but not the cost. One element per thread on each
// side keeps both accesses scalar in either order, so only the
// addressing could tell the orders apart.
TEST(LegacyPadding, OutDimOrderDoesNotMoveTheCost)
{
    auto spec = sim::GpuSpec::gh200();
    Shape shape = {64, 32};
    BlockedEncoding row, col;
    row.sizePerThread = {1, 1};
    row.threadsPerWarp = {4, 8};
    row.warpsPerCta = {4, 1};
    row.order = {1, 0};
    col.sizePerThread = {1, 1};
    col.threadsPerWarp = {8, 4};
    col.warpsPerCta = {1, 4};
    col.order = {0, 1};
    auto src = row.toLinearLayout(shape).transposeOuts({"dim0", "dim1"});
    auto dst = col.toLinearLayout(shape);
    auto flipped = src.transposeOuts({"dim1", "dim0"});
    for (int elemBytes : {1, 2, 4}) {
        auto want = paddedConversionCost(src, dst, shape, elemBytes, spec);
        auto got =
            paddedConversionCost(flipped, dst, shape, elemBytes, spec);
        EXPECT_EQ(got.storeVecElems, want.storeVecElems) << elemBytes;
        EXPECT_EQ(got.loadVecElems, want.loadVecElems) << elemBytes;
        EXPECT_EQ(got.storeWavefronts, want.storeWavefronts) << elemBytes;
        EXPECT_EQ(got.loadWavefronts, want.loadWavefronts) << elemBytes;
        EXPECT_EQ(got.sharedBytes, want.sharedBytes) << elemBytes;
        EXPECT_EQ(got.passes, want.passes) << elemBytes;
        EXPECT_DOUBLE_EQ(got.cycles, want.cycles) << elemBytes;
    }
}

TEST(LegacyTable5, CountsMatchThePaper)
{
    using ir::DType;
    auto check = [](DType a, DType b, int passed, int total) {
        auto [p, t] = legacyDotPassCounts(a, b);
        EXPECT_EQ(p, passed);
        EXPECT_EQ(t, total);
    };
    check(DType::I16, DType::F16, 32, 64);
    check(DType::I8, DType::F8, 30, 144);
    check(DType::I32, DType::F64, 16, 32);
    check(DType::I64, DType::F16, 32, 32);
    // Symmetric lookup.
    auto [p, t] = legacyDotPassCounts(ir::DType::F8, ir::DType::I16);
    EXPECT_EQ(p, 36);
    EXPECT_EQ(t, 96);
    // Overall rate from the paper: 46.6% of 784.
    const std::pair<ir::DType, ir::DType> pairs[] = {
        {DType::I16, DType::F16}, {DType::I16, DType::F32},
        {DType::I16, DType::F64}, {DType::I16, DType::F8},
        {DType::I32, DType::F16}, {DType::I32, DType::F64},
        {DType::I32, DType::F8},  {DType::I64, DType::F16},
        {DType::I64, DType::F32}, {DType::I64, DType::F8},
        {DType::I8, DType::F16},  {DType::I8, DType::F32},
        {DType::I8, DType::F64},  {DType::I8, DType::F8},
    };
    int passed = 0, total = 0;
    for (auto [a, b] : pairs) {
        auto [pp, tt] = legacyDotPassCounts(a, b);
        passed += pp;
        total += tt;
    }
    EXPECT_EQ(total, 784);
    EXPECT_NEAR(100.0 * passed / total, 46.6, 0.5);
}

} // namespace
} // namespace legacy
} // namespace ll
