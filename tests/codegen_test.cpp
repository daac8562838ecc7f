/**
 * @file
 * Tests for the code-generation algorithms of Section 5: vectorization
 * analysis, the optimal-swizzle construction
 * (checked against the bank-conflict simulator), warp-shuffle conversion
 * plans (executed and verified element-by-element), the lowering
 * selector, and the gather planner.
 */

#include <gtest/gtest.h>

#include "codegen/conversion.h"
#include "codegen/gather.h"
#include "codegen/shared_exec.h"
#include "codegen/shuffle.h"
#include "codegen/swizzle.h"
#include "codegen/vectorize.h"
#include "layout/dims.h"
#include "support/diagnostics.h"
#include "triton/encodings.h"

namespace ll {
namespace codegen {
namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;
using triton::BlockedEncoding;
using triton::MmaEncoding;

LinearLayout
blocked(const triton::Shape &spt, const triton::Shape &tpw,
        const triton::Shape &wpc, const std::vector<int32_t> &order,
        const triton::Shape &shape)
{
    BlockedEncoding enc;
    enc.sizePerThread = spt;
    enc.threadsPerWarp = tpw;
    enc.warpsPerCta = wpc;
    enc.order = order;
    return enc.toLinearLayout(shape);
}

// ----------------------------------------------------------------------
// Vectorization (Section 5.1, Table 3)
// ----------------------------------------------------------------------

TEST(Vectorize, WideContiguousLayoutGetsV4B32)
{
    auto l = blocked({16, 1}, {32, 1}, {4, 1}, {0, 1}, {2048, 1});
    // f8: 16 consecutive elements = 128 bits.
    EXPECT_EQ(selectMemoryInstruction(l, 8).toString(), "v4.b32");
}

TEST(Vectorize, ContiguitySpanningDimsIsFound)
{
    // The [512, 2] x f8 case of Table 3: each thread owns a 2x2 block
    // that is contiguous across the dim boundary.
    auto l = blocked({2, 2}, {32, 1}, {4, 1}, {1, 0}, {512, 2});
    EXPECT_EQ(l.getNumConsecutiveInOut(), 4);
    EXPECT_EQ(selectMemoryInstruction(l, 8).toString(), "v1.b32");
    // With a 4x2 block, 8 f8 elements = 64 bits.
    auto l2 = blocked({4, 2}, {32, 1}, {4, 1}, {1, 0}, {512, 2});
    EXPECT_EQ(selectMemoryInstruction(l2, 8).toString(), "v2.b32");
}

TEST(Vectorize, ScalarLayoutGetsNarrowInstruction)
{
    auto l = blocked({1, 1}, {1, 32}, {1, 4}, {1, 0}, {1, 512});
    EXPECT_EQ(selectMemoryInstruction(l, 8).toString(), "v1.b8");
    EXPECT_EQ(selectMemoryInstruction(l, 16).toString(), "v1.b16");
}

// ----------------------------------------------------------------------
// Optimal swizzling (Section 5.4)
// ----------------------------------------------------------------------

class SwizzlePairs
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    sim::GpuSpec spec_ = sim::GpuSpec::gh200();

    LinearLayout
    layoutFor(int id, const triton::Shape &shape)
    {
        switch (id) {
          case 0:
            return blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, shape);
          case 1:
            return blocked({4, 1}, {4, 8}, {2, 2}, {0, 1}, shape);
          case 2: {
            MmaEncoding enc;
            enc.version = 2;
            enc.warpsPerCta = {2, 2};
            return enc.toLinearLayout(shape);
          }
          case 3:
            return blocked({2, 2}, {8, 4}, {1, 4}, {1, 0}, shape);
          default:
            llPanic("bad layout id");
        }
    }
};

TEST_P(SwizzlePairs, ConversionThroughSharedIsCorrect)
{
    auto [ai, bi] = GetParam();
    triton::Shape shape = {32, 64};
    auto a = layoutFor(ai, shape);
    auto b = layoutFor(bi, shape);
    auto swz = computeOptimalSwizzle(a, b, 2, spec_);
    EXPECT_TRUE(swz.memLayout.isInvertible());
    auto result = executeSharedConversion(swz, a, b, 2, spec_);
    EXPECT_TRUE(result.ok()) << "a=" << ai << " b=" << bi << ": "
                             << result.diag().toString();
}

TEST_P(SwizzlePairs, AnalyticWavefrontsMatchSimulator)
{
    auto [ai, bi] = GetParam();
    triton::Shape shape = {32, 64};
    auto a = layoutFor(ai, shape);
    auto b = layoutFor(bi, shape);
    const int elemBytes = 2;
    auto swz = computeOptimalSwizzle(a, b, elemBytes, spec_);

    // Count simulator wavefronts of the first store access of warp 0
    // and compare to Lemma 9.4.
    auto offsets = warpAccessOffsets(swz, a, 0, 0, 32);
    std::vector<int64_t> byteAddrs;
    for (int64_t o : offsets)
        byteAddrs.push_back(o * elemBytes);
    int64_t simWf = sim::SharedMemory::countWavefronts(
        spec_, byteAddrs, swz.vecElems() * elemBytes);
    int64_t analytic = analyticWavefronts(swz, a, elemBytes, spec_);
    EXPECT_EQ(simWf, analytic) << "a=" << ai << " b=" << bi;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SwizzlePairs,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4)));

TEST(Swizzle, TransposeConversionIsConflictFree)
{
    // The Figure 2 workload: row-major blocked to column-major blocked
    // (a transpose through shared memory) for f8 data.
    triton::Shape shape = {64, 64};
    auto rowMajor = blocked({16, 1}, {2, 16}, {2, 2}, {1, 0}, shape);
    auto colMajor = blocked({1, 16}, {16, 2}, {2, 2}, {0, 1}, shape);
    auto swz = computeOptimalSwizzle(rowMajor, colMajor, 1,
                                     sim::GpuSpec::gh200());
    auto spec = sim::GpuSpec::gh200();
    // Optimal swizzling must reach the no-conflict floor on both sides:
    // wavefronts == banks covered per access.
    int64_t storeWf = analyticWavefronts(swz, rowMajor, 1, spec);
    int64_t loadWf = analyticWavefronts(swz, colMajor, 1, spec);
    int64_t floor = std::max<int64_t>(
        1, int64_t(swz.vecElems()) * 1 / spec.bankWidthBytes);
    EXPECT_EQ(storeWf, floor);
    EXPECT_EQ(loadWf, floor);

    auto result = executeSharedConversion(swz, rowMajor, colMajor, 1,
                                          spec);
    ASSERT_TRUE(result.ok()) << result.diag().toString();
}

TEST(Swizzle, VectorizationIsMaximal)
{
    // Both layouts share 4 contiguous f16 registers: the swizzle must
    // vectorize 8 elements (128 bits).
    triton::Shape shape = {32, 64};
    auto a = blocked({1, 8}, {8, 4}, {2, 2}, {1, 0}, shape);
    auto b = blocked({2, 8}, {8, 4}, {1, 2}, {1, 0}, shape);
    auto swz = computeOptimalSwizzle(a, b, 2, sim::GpuSpec::gh200());
    EXPECT_EQ(swz.vecElems(), 8);
}

TEST(Swizzle, SubWordTransposeIsConflictFreeEndToEnd)
{
    // f8 transpose with no shared register vectorization: the paper's
    // Lemma 9.4 leaves the sub-word case open; our word-bit extension
    // must still reach the conflict-free floor, measured on the
    // executed conversion (regression for the A_Bank shrink bug).
    auto spec = sim::GpuSpec::gh200();
    triton::Shape shape = {64, 64};
    auto src = blocked({1, 16}, {2, 16}, {2, 2}, {1, 0}, shape);
    auto dst = blocked({16, 1}, {16, 2}, {2, 2}, {0, 1}, shape);
    auto swz = computeOptimalSwizzle(src, dst, 1, spec);
    auto result = executeSharedConversion(swz, src, dst, 1, spec);
    ASSERT_TRUE(result.ok()) << result.diag().toString();
    EXPECT_EQ(result->storeStats.wavefronts,
              result->storeStats.transactions);
    EXPECT_EQ(result->loadStats.wavefronts,
              result->loadStats.transactions);
}

TEST(Swizzle, ExecutedWavefrontsMatchAnalyticAcrossPairs)
{
    auto spec = sim::GpuSpec::gh200();
    triton::Shape shape = {32, 64};
    auto a = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, shape);
    auto b = blocked({4, 1}, {4, 8}, {2, 2}, {0, 1}, shape);
    const int elemBytes = 2;
    auto swz = computeOptimalSwizzle(a, b, elemBytes, spec);
    auto result = executeSharedConversion(swz, a, b, elemBytes, spec);
    ASSERT_TRUE(result.ok()) << result.diag().toString();
    // Totals = per-access analytic count x number of accesses.
    int64_t storeAccesses = result->storeStats.instructions;
    int64_t loadAccesses = result->loadStats.instructions;
    EXPECT_EQ(result->storeStats.wavefronts,
              analyticWavefronts(swz, a, elemBytes, spec) *
                  storeAccesses);
    EXPECT_EQ(result->loadStats.wavefronts,
              analyticWavefronts(swz, b, elemBytes, spec) *
                  loadAccesses);
}

TEST(Swizzle, UnavoidableConflictsAreDetectedButCorrect)
{
    // Force a degenerate case: tiny tensor where segment choices are
    // constrained.
    triton::Shape shape = {4, 32};
    auto a = blocked({1, 1}, {1, 32}, {1, 1}, {1, 0}, shape);
    auto b = blocked({1, 1}, {4, 8}, {1, 1}, {0, 1}, shape);
    auto spec = sim::GpuSpec::gh200();
    auto swz = computeOptimalSwizzle(a, b, 4, spec);
    auto result = executeSharedConversion(swz, a, b, 4, spec);
    ASSERT_TRUE(result.ok()) << result.diag().toString();
}

// ----------------------------------------------------------------------
// Warp shuffles (Section 5.4)
// ----------------------------------------------------------------------

/** Exhaustive correctness check of a shuffle plan: seed each register
 *  with its element id under A and confirm layout B's placement. */
void
verifyShufflePlan(const LinearLayout &a, const LinearLayout &b,
                  const WarpShufflePlan &plan)
{
    const int warpSize = plan.warpSize;
    std::vector<std::vector<uint64_t>> src(
        static_cast<size_t>(warpSize));
    for (int lane = 0; lane < warpSize; ++lane) {
        for (int reg = 0; reg < plan.numRegsA; ++reg) {
            uint64_t in = static_cast<uint64_t>(reg) |
                          (static_cast<uint64_t>(lane)
                           << a.getInDimSizeLog2(kReg));
            src[static_cast<size_t>(lane)].push_back(a.applyFlat(in));
        }
    }
    auto dstOr = plan.execute(src);
    ASSERT_TRUE(dstOr.ok()) << dstOr.diag().toString();
    auto &dst = *dstOr;
    LinearLayout bAligned = b.transposeOuts(a.getOutDimNames());
    for (int lane = 0; lane < warpSize; ++lane) {
        for (int reg = 0; reg < plan.numRegsB; ++reg) {
            uint64_t in = static_cast<uint64_t>(reg) |
                          (static_cast<uint64_t>(lane)
                           << bAligned.getInDimSizeLog2(kReg));
            EXPECT_EQ(dst[static_cast<size_t>(lane)]
                         [static_cast<size_t>(reg)],
                      bAligned.applyFlat(in))
                << "lane " << lane << " reg " << reg;
        }
    }
}

TEST(Shuffle, PaperFigure4Example)
{
    // Figure 4: four threads, two registers each, exchanging to the
    // transposed assignment. Build 8-element layouts over dim0.
    LinearLayout::BasesT ab;
    ab.insert(kReg, {{1}});
    ab.insert(kLane, {{2}, {4}});
    LinearLayout a(std::move(ab), {{"dim0", 8}});

    LinearLayout::BasesT bb;
    bb.insert(kReg, {{4}});
    bb.insert(kLane, {{1}, {2}});
    LinearLayout b(std::move(bb), {{"dim0", 8}});

    sim::GpuSpec spec = sim::GpuSpec::gh200();
    spec.warpSize = 4; // the figure's reduced example
    auto plan = planWarpShuffle(a, b, 4, spec);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->rounds, 2); // s(1) and s(2) in the figure
    EXPECT_EQ(plan->vecElems, 1);
    verifyShufflePlan(a, b, *plan);
}

TEST(Shuffle, BlockedToBlockedWithinWarp)
{
    triton::Shape shape = {8, 32};
    auto a = blocked({1, 8}, {8, 4}, {1, 1}, {1, 0}, shape);
    auto b = blocked({8, 1}, {1, 32}, {1, 1}, {1, 0}, shape);
    auto plan = planWarpShuffle(a, b, 2, sim::GpuSpec::gh200());
    ASSERT_TRUE(plan.has_value());
    verifyShufflePlan(a, b, *plan);
    EXPECT_GT(plan->countShuffleInstructions(2), 0);
}

TEST(Shuffle, MmaToBlockedWithinWarp)
{
    MmaEncoding mma;
    mma.version = 2;
    mma.warpsPerCta = {1, 1};
    auto a = mma.toLinearLayout({16, 8});
    auto b = blocked({4, 1}, {4, 8}, {1, 1}, {1, 0}, {16, 8});
    auto plan = planWarpShuffle(a, b, 2, sim::GpuSpec::gh200());
    ASSERT_TRUE(plan.has_value());
    verifyShufflePlan(a, b, *plan);
}

TEST(Shuffle, MultiWarpLayoutsWithMatchingWarps)
{
    triton::Shape shape = {16, 64};
    auto a = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, shape);
    auto b = blocked({4, 1}, {2, 16}, {2, 2}, {1, 0}, shape);
    // Same warp tiling on both sides: the conversion stays in-warp.
    auto plan = planWarpShuffle(a, b, 2, sim::GpuSpec::gh200());
    if (plan.has_value())
        verifyShufflePlan(a, b, *plan);
}

TEST(Shuffle, CrossWarpConversionIsRejected)
{
    triton::Shape shape = {16, 64};
    auto a = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, shape);
    auto b = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, shape);
    EXPECT_FALSE(
        planWarpShuffle(a, b, 2, sim::GpuSpec::gh200()).has_value());
}

TEST(Shuffle, VectorizedPayloadWhenRegistersShared)
{
    // Both layouts share two contiguous f8 registers -> 4-byte payload.
    triton::Shape shape = {8, 64};
    auto a = blocked({1, 4}, {8, 4}, {1, 1}, {1, 0}, shape);
    auto b = blocked({2, 4}, {4, 8}, {1, 1}, {1, 0}, shape);
    auto plan = planWarpShuffle(a, b, 1, sim::GpuSpec::gh200());
    ASSERT_TRUE(plan.has_value());
    EXPECT_GE(plan->vecElems, 2);
    verifyShufflePlan(a, b, *plan);
}

TEST(Shuffle, NoOpDetection)
{
    auto a = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {16, 64});
    EXPECT_TRUE(conversionIsNoOp(a, a));
    auto b = blocked({4, 1}, {4, 8}, {2, 2}, {0, 1}, {16, 64});
    EXPECT_FALSE(conversionIsNoOp(a, b));
}

TEST(Shuffle, NoOpModuloBroadcast)
{
    // Identical layouts except B broadcasts over extra warps.
    auto base = LinearLayout::identity1D(4, kReg, "dim0") *
                LinearLayout::identity1D(32, kLane, "dim0") *
                LinearLayout::zeros1D(2, kWarp, "dim0");
    EXPECT_TRUE(conversionIsNoOp(base, base));
}

TEST(Shuffle, RegisterPermuteDetection)
{
    // Same thread assignment, registers reordered.
    LinearLayout::BasesT ab;
    ab.insert(kReg, {{1}, {2}});
    ab.insert(kLane, {{4}, {8}, {16}, {32}, {64}});
    LinearLayout a(std::move(ab), {{"dim0", 128}});
    LinearLayout::BasesT bb;
    bb.insert(kReg, {{2}, {1}});
    bb.insert(kLane, {{4}, {8}, {16}, {32}, {64}});
    LinearLayout b(std::move(bb), {{"dim0", 128}});
    EXPECT_TRUE(conversionIsRegisterPermute(a, b));
    EXPECT_FALSE(conversionIsNoOp(a, b));
}

// ----------------------------------------------------------------------
// Conversion selector
// ----------------------------------------------------------------------

TEST(Conversion, SelectsCheapestKind)
{
    auto spec = sim::GpuSpec::gh200();
    auto a = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {16, 64});

    EXPECT_EQ(planConversion(a, a, 2, spec).kind, ConversionKind::NoOp);

    auto b = blocked({4, 1}, {2, 16}, {2, 2}, {1, 0}, {16, 64});
    auto planB = planConversion(a, b, 2, spec);
    EXPECT_EQ(planB.kind, ConversionKind::WarpShuffle);

    auto c = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {16, 64});
    auto planC = planConversion(a, c, 2, spec);
    EXPECT_EQ(planC.kind, ConversionKind::SharedMemory);
    ASSERT_TRUE(planC.shared.has_value());
    auto result =
        executeSharedConversion(*planC.shared, a, c, 2, spec);
    ASSERT_TRUE(result.ok()) << result.diag().toString();
}

TEST(Conversion, CostOrderingMatchesIntuition)
{
    auto spec = sim::GpuSpec::gh200();
    auto a = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {16, 64});
    auto b = blocked({4, 1}, {2, 16}, {2, 2}, {1, 0}, {16, 64});
    auto c = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {16, 64});
    double noop = planConversion(a, a, 2, spec)
                      .estimateCycles(a, 2, spec);
    double shuf = planConversion(a, b, 2, spec)
                      .estimateCycles(a, 2, spec);
    double shmem = planConversion(a, c, 2, spec)
                       .estimateCycles(a, 2, spec);
    EXPECT_LT(noop, shuf);
    EXPECT_LT(shuf, shmem);
}

TEST(Conversion, BroadcastLayoutsFallBackToShared)
{
    auto spec = sim::GpuSpec::gh200();
    auto a = blocked({1, 2}, {8, 4}, {1, 2}, {1, 0}, {8, 64});
    // b broadcasts lanes over a smaller tensor footprint.
    auto b = blocked({1, 1}, {32, 1}, {2, 1}, {0, 1}, {8, 64});
    auto plan = planConversion(a, b, 2, spec);
    EXPECT_EQ(plan.kind, ConversionKind::SharedMemory);
    ASSERT_TRUE(plan.shared.has_value());
    auto rb = executeSharedConversion(*plan.shared, a, b, 2, spec);
    ASSERT_TRUE(rb.ok()) << rb.diag().toString();
}

TEST(Conversion, LdmatrixDetectedOnHopper)
{
    // mma fragment loading f16 from shared: the classic ldmatrix case.
    MmaEncoding mma;
    mma.version = 2;
    mma.warpsPerCta = {4, 1};
    auto frag = mma.toLinearLayout({64, 64});
    auto src = blocked({1, 8}, {1, 32}, {4, 1}, {1, 0}, {64, 64});
    auto spec = sim::GpuSpec::gh200();
    auto plan = planConversion(src, frag, 2, spec);
    ASSERT_EQ(plan.kind, ConversionKind::SharedMemory);
    // GH200 has both ldmatrix and stmatrix; at least the vectorized
    // side must be detected.
    EXPECT_TRUE(plan.usesLdmatrix || plan.usesStmatrix);

    auto ada = sim::GpuSpec::rtx4090();
    auto planAda = planConversion(src, frag, 2, ada);
    EXPECT_FALSE(planAda.usesStmatrix); // no stmatrix before Hopper

    auto amd = sim::GpuSpec::mi250();
    amd.warpSize = 32; // keep layouts compatible for this check
    auto planAmd = planConversion(src, frag, 2, amd);
    EXPECT_FALSE(planAmd.usesLdmatrix);
    EXPECT_FALSE(planAmd.usesStmatrix);
}

// ----------------------------------------------------------------------
// Gather (Section 5.5)
// ----------------------------------------------------------------------

TEST(Gather, WarpLocalPlanAndExecution)
{
    // 32x8 tensor; axis 1 held entirely within each thread/warp row.
    auto l = blocked({1, 8}, {32, 1}, {1, 1}, {1, 0}, {32, 8});
    auto spec = sim::GpuSpec::gh200();
    auto plan = planGather(l, 1, spec);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->rounds, 1); // no lane bit moves along axis 1

    // Fill registers with element ids, gather with a reversal index.
    const int numRegs = plan->numRegs;
    std::vector<std::vector<uint64_t>> regs(32);
    std::vector<std::vector<int32_t>> idx(32);
    for (int lane = 0; lane < 32; ++lane) {
        for (int reg = 0; reg < numRegs; ++reg) {
            auto coords =
                l.apply({{kReg, reg}, {kLane, lane}, {kWarp, 0}});
            regs[lane].push_back(
                static_cast<uint64_t>(coords[0].second) |
                (static_cast<uint64_t>(coords[1].second) << 16));
            idx[lane].push_back(7 - coords[0].second); // reverse dim1
        }
    }
    auto outOr = executeGather(*plan, l, 0, regs, idx);
    ASSERT_TRUE(outOr.ok()) << outOr.diag().toString();
    auto &out = *outOr;
    for (int lane = 0; lane < 32; ++lane) {
        for (int reg = 0; reg < numRegs; ++reg) {
            auto coords =
                l.apply({{kReg, reg}, {kLane, lane}, {kWarp, 0}});
            uint64_t expect =
                static_cast<uint64_t>(7 - coords[0].second) |
                (static_cast<uint64_t>(coords[1].second) << 16);
            EXPECT_EQ(out[lane][reg], expect);
        }
    }
}

TEST(Gather, RoundsGrowWithThreadSpread)
{
    auto spec = sim::GpuSpec::gh200();
    // Axis 1 spread over 4 lane bits: 16 rounds.
    auto l = blocked({1, 2}, {2, 16}, {1, 1}, {1, 0}, {2, 32});
    auto plan = planGather(l, 1, spec);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->rounds, 16);
}

TEST(Gather, CrossWarpGatherIsRejected)
{
    auto l = blocked({1, 1}, {1, 32}, {1, 4}, {1, 0}, {1, 128});
    EXPECT_FALSE(planGather(l, 1, sim::GpuSpec::gh200()).has_value());
}

TEST(Gather, CrossWarpOtherAxisIsAccepted)
{
    // Warps tile dim0; gathering along dim1 stays warp-local.
    auto l = blocked({1, 4}, {1, 32}, {4, 1}, {1, 0}, {4, 128});
    auto plan = planGather(l, 1, sim::GpuSpec::gh200());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->rounds, 32);
}

// ----------------------------------------------------------------------
// Structured invalid-input handling (Lemma 9.4 precondition)
// ----------------------------------------------------------------------

TEST(Swizzle, AnalyticWavefrontsRejectsPaddedInputStructurally)
{
    // Lemma 9.4's per-access uniformity does not survive padding, so a
    // padded swizzle is an invalid *input* to the analytic pricer: the
    // structured API must hand back a Diagnostic (not crash, not
    // silently misprice), and the throwing wrapper must surface it as
    // UserError.
    triton::Shape shape = {64, 64};
    auto rowMajor = blocked({16, 1}, {2, 16}, {2, 2}, {1, 0}, shape);
    auto colMajor = blocked({1, 16}, {16, 2}, {2, 2}, {0, 1}, shape);
    auto spec = sim::GpuSpec::gh200();
    auto swz = computeOptimalSwizzle(rowMajor, colMajor, 1, spec);
    swz.padInterval = 32;
    swz.padElems = 4;
    ASSERT_TRUE(swz.padded());

    auto priced = tryAnalyticWavefronts(swz, rowMajor, 1, spec);
    ASSERT_FALSE(priced.ok());
    EXPECT_EQ(priced.diag().code, DiagCode::InvalidInput);
    EXPECT_EQ(priced.diag().stage, "swizzle.analytic");

    EXPECT_THROW(analyticWavefronts(swz, rowMajor, 1, spec), UserError);

    // The same swizzle unpadded prices fine — the rejection really is
    // about the padding, not the layouts.
    swz.padInterval = 0;
    swz.padElems = 0;
    auto clean = tryAnalyticWavefronts(swz, rowMajor, 1, spec);
    ASSERT_TRUE(clean.ok());
    EXPECT_GE(*clean, 1);
}

} // namespace
} // namespace codegen
} // namespace ll
