/**
 * @file
 * Tests for the mini IR, the Section 4.4 shape-operator transfer
 * functions (verified as data-movement no-ops element by element), the
 * layout engine's anchor assignment / conversion insertion / cleanup,
 * and the kernel cost model counters.
 */

#include <gtest/gtest.h>

#include <set>

#include "codegen/conversion.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "engine/shape_transfer.h"
#include "ir/function.h"
#include "kernels.h"
#include "layout/dims.h"
#include "service/plan_cache.h"
#include "support/metrics.h"
#include "triton/encodings.h"

namespace ll {
namespace engine {
namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;
using ir::DType;
using ir::Function;
using ir::OpKind;
using ir::TensorType;

LinearLayout
sampleLayout(const triton::Shape &shape)
{
    triton::BlockedEncoding enc;
    enc.sizePerThread = {2, 2};
    enc.threadsPerWarp = {4, 8};
    enc.warpsPerCta = {2, 2};
    enc.order = {1, 0};
    return enc.toLinearLayout(shape);
}

TEST(Ir, BuildAndPrint)
{
    Function f("softmax");
    int x = f.load({DType::F32, {128, 64}}, "x");
    int m = f.reduce(x, 1, "max");
    int me = f.expandDims(m, 1);
    int mb = f.broadcast(me, {128, 64});
    int centered = f.elementwise({x, mb}, DType::F32, "sub");
    f.store(centered, "out");
    f.verify();
    EXPECT_EQ(f.countOps(OpKind::Load), 1);
    EXPECT_EQ(f.countOps(OpKind::Reduce), 1);
    std::string text = f.print();
    EXPECT_NE(text.find("reduce<max> axis=1"), std::string::npos);
    EXPECT_NE(text.find("elementwise<sub>"), std::string::npos);
}

TEST(Ir, ShapeChecksFire)
{
    Function f("bad");
    int x = f.load({DType::F32, {16, 16}});
    int y = f.load({DType::F32, {16, 32}});
    EXPECT_THROW(f.elementwise({x, y}, DType::F32, "add"), UserError);
    EXPECT_THROW(f.dot(y, x, DType::F32), UserError); // 32 vs 16 inner
    EXPECT_THROW(f.reduce(x, 2), UserError);
    EXPECT_THROW(f.load({DType::F32, {3, 5}}), UserError); // not pow2
}

TEST(Ir, DotShapeInference)
{
    Function f("gemm");
    int a = f.load({DType::F16, {64, 32}});
    int b = f.load({DType::F16, {32, 128}});
    int c = f.dot(a, b, DType::F32);
    EXPECT_EQ(f.value(c).type.shape, (ir::Shape{64, 128}));
    EXPECT_EQ(f.value(c).type.dtype, DType::F32);
}

// ----------------------------------------------------------------------
// Shape transfer functions: each must be a data-movement no-op.
// ----------------------------------------------------------------------

TEST(ShapeTransfer, TransIsANoOp)
{
    LinearLayout l = sampleLayout({32, 64});
    LinearLayout t = transTransfer(l, {1, 0});
    // Element held by hardware index h at (i, j) must be held at (j, i)
    // after the transpose.
    for (uint64_t h = 0; h < 2048; h += 7) {
        auto before = l.unflattenOuts(l.applyFlat(h));
        auto after = t.unflattenOuts(t.applyFlat(h));
        // before: [dim1=j, dim0=i]; after: [dim1'=i, dim0'=j].
        EXPECT_EQ(after[0].second, before[1].second);
        EXPECT_EQ(after[1].second, before[0].second);
    }
}

TEST(ShapeTransfer, ReshapeIsANoOp)
{
    LinearLayout l = sampleLayout({32, 64});
    LinearLayout r = reshapeTransfer(l, {16, 128});
    for (uint64_t h = 0; h < 2048; h += 5) {
        auto before = l.unflattenOuts(l.applyFlat(h));
        // Row-major linear index before: i * 64 + j.
        int64_t lin = int64_t(before[1].second) * 64 + before[0].second;
        auto after = r.unflattenOuts(r.applyFlat(h));
        int64_t lin2 = int64_t(after[1].second) * 128 + after[0].second;
        EXPECT_EQ(lin, lin2);
    }
}

TEST(ShapeTransfer, ExpandDimsAddsSize1Dim)
{
    LinearLayout l = sampleLayout({32, 64});
    LinearLayout e = expandDimsTransfer(l, 1); // [32, 1, 64]
    EXPECT_EQ(e.getNumOutDims(), 3);
    EXPECT_EQ(e.getOutDimSize("dim1"), 1);
    EXPECT_EQ(e.getOutDimSize("dim0"), 32);
    EXPECT_EQ(e.getOutDimSize("dim2"), 64);
    EXPECT_TRUE(e.isSurjective());
}

TEST(ShapeTransfer, BroadcastReplicatesThroughRegisters)
{
    LinearLayout l = sampleLayout({32, 64});
    LinearLayout e = expandDimsTransfer(l, 2); // [32, 64, 1]
    LinearLayout b = broadcastTransfer(e, {32, 64, 8});
    EXPECT_EQ(b.getOutDimSize("dim2"), 8);
    EXPECT_TRUE(b.isSurjective());
    EXPECT_EQ(b.getInDimSize(kReg), l.getInDimSize(kReg) * 8);
}

TEST(ShapeTransfer, JoinSplitRoundTrip)
{
    LinearLayout l = sampleLayout({32, 64});
    LinearLayout j = joinTransfer(l);
    EXPECT_EQ(j.getNumOutDims(), 3);
    EXPECT_EQ(j.getOutDimSize("dim2"), 2);
    EXPECT_EQ(j.getInDimSize(kReg), 2 * l.getInDimSize(kReg));
    LinearLayout s = splitTransfer(j);
    EXPECT_EQ(s, engine::canonicalizeMinorToMajor(l, 2));
}

TEST(ShapeTransfer, ReduceProducesSurjectiveSlice)
{
    LinearLayout l = sampleLayout({32, 64});
    LinearLayout r = reduceTransfer(l, 1);
    EXPECT_EQ(r.getNumOutDims(), 1);
    EXPECT_EQ(r.getOutDimSize("dim0"), 32);
    EXPECT_TRUE(r.isSurjective());
    EXPECT_FALSE(r.isInjective()); // lanes hold duplicated data
}

// ----------------------------------------------------------------------
// Layout engine
// ----------------------------------------------------------------------

TEST(Engine, AnnotatesEveryValue)
{
    Function f("softmax");
    int x = f.load({DType::F32, {128, 64}}, "x");
    int m = f.reduce(x, 1, "max");
    int me = f.expandDims(m, 1);
    int mb = f.broadcast(me, {128, 64});
    int centered = f.elementwise({x, mb}, DType::F32, "sub");
    f.store(centered);

    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    eng.run(f);
    for (int v = 0; v < f.numValues(); ++v)
        EXPECT_TRUE(f.value(v).layout.has_value()) << "value " << v;
}

TEST(Engine, ChainOfShapeOpsNeedsNoConversions)
{
    // The whole point of Section 4.4: layouts propagate through shape
    // ops with zero data movement.
    Function f("shapes");
    int x = f.load({DType::F16, {64, 64}}, "x");
    int t = f.trans(x, {1, 0});
    int r = f.reshape(t, {32, 128});
    int e = f.expandDims(r, 0);
    int b = f.broadcast(e, {4, 32, 128});
    f.store(b);

    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    auto stats = eng.run(f);
    EXPECT_EQ(f.countOps(OpKind::ConvertLayout), 0);
    EXPECT_EQ(stats.convertsInserted, 0);
}

TEST(Engine, DotInsertsOperandConversions)
{
    Function f("gemm");
    int a = f.load({DType::F16, {64, 64}});
    int b = f.load({DType::F16, {64, 64}});
    int c = f.dot(a, b, DType::F32);
    f.store(c);

    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    auto stats = eng.run(f);
    EXPECT_GE(stats.convertsInserted, 2); // both operands re-laid-out
    // Operands end up in MMA-input layouts.
    const auto &dotOp = f.op(f.value(c).defOp);
    for (int v : dotOp.operands) {
        EXPECT_TRUE(triton::isDistributedLayout(*f.value(v).layout));
    }
}

TEST(Engine, RedundantConversionIsEliminated)
{
    Function f("roundtrip");
    int x = f.load({DType::F32, {64, 64}});
    // Identical elementwise ops on the same value: the second operand
    // already carries the wanted layout, so no converts appear at all.
    int y = f.elementwise({x, x}, DType::F32, "add");
    int z = f.elementwise({y, x}, DType::F32, "add");
    f.store(z);
    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    auto stats = eng.run(f);
    EXPECT_EQ(f.countOps(OpKind::ConvertLayout), 0);
    EXPECT_EQ(stats.convertsInserted, 0);
}

TEST(Engine, EquivalentLayoutsAcrossKindsFoldToNoOp)
{
    // The welford case: a conversion between layouts of different
    // construction that are in fact equal folds away.
    Function f("welford");
    int x = f.load({DType::F32, {128, 64}});
    int m = f.reduce(x, 1, "sum");
    // Re-expand and reduce again: layouts stay within the sliced family.
    int e = f.expandDims(m, 1);
    int b = f.broadcast(e, {128, 64});
    int d = f.elementwise({x, b}, DType::F32, "sub");
    int v = f.reduce(d, 1, "sum");
    f.store(v);
    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    eng.run(f);
    EXPECT_EQ(f.countOps(OpKind::ConvertLayout), 0);
}

TEST(Engine, WgmmaChosenOnHopperOnly)
{
    // The wgmma C fragment tiled across a warp group coincides with the
    // tiled mma fragment (both are linear layouts with the same bases);
    // what distinguishes version 3 is the wide instruction tile.
    TensorType acc{DType::F32, {128, 128}};
    LayoutEngine hopper({sim::GpuSpec::gh200(), 8});
    LayoutEngine ada({sim::GpuSpec::rtx4090(), 8});
    auto lh = hopper.dotResultLayout(acc, 16);
    auto la = ada.dotResultLayout(acc, 16);
    EXPECT_EQ(lh.getInDimSize(kWarp), 8);
    EXPECT_EQ(la.getInDimSize(kWarp), 8);
    EXPECT_TRUE(lh.equalsIgnoringOutSizes(la));

    triton::MmaEncoding wgmma;
    wgmma.version = 3;
    wgmma.warpsPerCta = {4, 1};
    wgmma.instrN = 64;
    triton::MmaEncoding mma;
    mma.version = 2;
    mma.warpsPerCta = {1, 1};
    EXPECT_EQ(wgmma.instructionTile().getOutDimSize("dim1"), 64);
    EXPECT_EQ(mma.instructionTile().getOutDimSize("dim1"), 8);
}

TEST(Engine, MfmaChosenOnMi250)
{
    TensorType acc{DType::F32, {128, 128}};
    LayoutEngine amd({sim::GpuSpec::mi250(), 4});
    auto l = amd.dotResultLayout(acc, 16);
    EXPECT_EQ(l.getInDimSize(kLane), 64);
}

TEST(Engine, FmaFallbackForF64)
{
    Function f("dgemm");
    int a = f.load({DType::F64, {32, 32}});
    int b = f.load({DType::F64, {32, 32}});
    int c = f.dot(a, b, DType::F64);
    f.store(c);
    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    eng.run(f);
    EXPECT_NE(f.op(f.value(c).defOp).tag.find("fma"), std::string::npos);
}

TEST(Engine, ScanIsLayoutPreserving)
{
    // The tl.cumsum case from the bug reports the paper cites: the scan
    // result carries exactly its operand's layout (no conversion), and
    // the intra-warp part lowers to Hillis-Steele shuffles.
    Function f("cumsum");
    int x = f.load({DType::F32, {4, 1024}}, "x");
    int s = f.scan(x, 1, "cumsum");
    int both = f.elementwise({s, x}, DType::F32, "add");
    f.store(both);
    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    eng.run(f);
    EXPECT_EQ(f.countOps(OpKind::ConvertLayout), 0);
    EXPECT_EQ(*f.value(s).layout, *f.value(x).layout);
    auto cost = estimateKernelCost(f, sim::GpuSpec::gh200(), 4);
    EXPECT_GT(cost.cycles, 0.0);
}

// ----------------------------------------------------------------------
// Cost model
// ----------------------------------------------------------------------

TEST(CostModel, CountsTable6StyleOps)
{
    Function f("gemm");
    int a = f.load({DType::F16, {64, 64}});
    int b = f.load({DType::F16, {64, 64}});
    int c = f.dot(a, b, DType::F32);
    f.store(c);
    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    eng.run(f);
    auto cost = estimateKernelCost(f, sim::GpuSpec::gh200(), 4);
    EXPECT_GE(cost.converts, 2);
    EXPECT_GE(cost.localLoads + cost.localStores, 2);
    EXPECT_GT(cost.cycles, 0.0);
    EXPECT_GT(cost.globalSectors, 0);
}

TEST(CostModel, CoalescedLoadsTouchFewerSectors)
{
    Function coalesced("c");
    int x = coalesced.load({DType::F32, {1, 4096}});
    coalesced.store(x);
    Function strided("s");
    int y = strided.load({DType::F32, {4096, 1}});
    strided.store(y);
    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    eng.run(coalesced);
    eng.run(strided);
    auto cc = estimateKernelCost(coalesced, sim::GpuSpec::gh200(), 4);
    auto cs = estimateKernelCost(strided, sim::GpuSpec::gh200(), 4);
    // Both tensors are contiguous in memory overall; the default
    // blocked anchor should coalesce both equally well (cross-dim
    // contiguity, Table 3). So sector counts match.
    EXPECT_EQ(cc.globalSectors, cs.globalSectors);
}

TEST(CostModel, CrossWarpReductionPaysSharedRoundTrip)
{
    Function f("reduce");
    int x = f.load({DType::F32, {1, 4096}});
    int r = f.reduce(x, 1, "sum");
    f.store(r);
    LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    eng.run(f);
    auto cost = estimateKernelCost(f, sim::GpuSpec::gh200(), 4);
    EXPECT_GE(cost.localStores, 1); // partials through shared memory
}

TEST(Engine, RunCachePlansEachDistinctConversionOnce)
{
    // Two dots over the same operands: each dot wants the same
    // blocked -> MMA-input conversions, so the second dot's are pure
    // repeats of the first's. With no shared cache the run serves the
    // repeats from its own plan cache: every distinct conversion is
    // planned exactly once, and the lowering matches a shared-cache
    // run's plan for plan.
    auto build = [] {
        Function f("twin_gemm");
        int a = f.load({DType::F16, {64, 64}});
        int b = f.load({DType::F16, {64, 64}});
        int c = f.dot(a, b, DType::F32);
        int d = f.dot(a, b, DType::F32);
        f.store(c);
        f.store(d);
        return f;
    };
    const auto spec = sim::GpuSpec::gh200();
    struct Conversion
    {
        int op;
        LinearLayout src, dst;
        int elemBytes;
    };
    auto conversions = [](const Function &f) {
        std::vector<Conversion> out;
        for (int i = 0; i < f.numOps(); ++i) {
            const auto &o = f.op(i);
            if (o.erased || o.kind != OpKind::ConvertLayout)
                continue;
            const auto &have = *f.value(o.operands[0]).layout;
            const auto &want = *f.value(o.results[0]).layout;
            out.push_back({i, have,
                           want.transposeOuts(have.getOutDimNames()),
                           ir::byteWidth(f.value(o.results[0]).type.dtype)});
        }
        return out;
    };

    Function f1 = build();
    auto stats = LayoutEngine({spec, 4}).run(f1);
    EXPECT_EQ(stats.execFailures, 0);
    EXPECT_EQ(stats.planCacheHits + stats.planCacheMisses, 0)
        << "the run's own cache is not the shared plan cache";
    std::set<std::string> distinct;
    for (const auto &c : conversions(f1))
        distinct.insert(c.src.toString() + "|" + c.dst.toString() + "|" +
                        std::to_string(c.elemBytes));
    ASSERT_LT(distinct.size(), conversions(f1).size())
        << "fixture no longer repeats a conversion";
    EXPECT_EQ(stats.convertsPlanned,
              static_cast<int>(conversions(f1).size()));
    EXPECT_EQ(stats.metrics["plan.planned"],
              static_cast<int64_t>(distinct.size()));

    service::PlanCache cache;
    EngineOptions shared{spec, 4};
    shared.planCache = &cache;
    Function f2 = build();
    LayoutEngine(shared).run(f2);
    auto ops1 = conversions(f1);
    auto ops2 = conversions(f2);
    ASSERT_EQ(ops1.size(), ops2.size());
    for (size_t k = 0; k < ops1.size(); ++k) {
        EXPECT_EQ(f1.op(ops1[k].op).tag, f2.op(ops2[k].op).tag);
        auto hit = cache.peek(cache.key(ops2[k].src, ops2[k].dst,
                                        ops2[k].elemBytes, spec));
        ASSERT_TRUE(hit.has_value() && hit->plan) << "op " << ops2[k].op;
        auto fresh = codegen::planAndVerify(ops1[k].src, ops1[k].dst,
                                            ops1[k].elemBytes, spec);
        ASSERT_TRUE(fresh.verified()) << "op " << ops1[k].op;
        EXPECT_EQ(codegen::describePlan(*fresh.plan),
                  codegen::describePlan(*hit->plan))
            << "op " << ops1[k].op;
    }
}

// The engine attaches every verified plan to its op, so pricing a
// compiled kernel plans nothing, and prices each conversion exactly as
// re-planning it from the endpoint layouts would.
TEST(CostModel, PricesAttachedPlansWithoutPlanning)
{
    const auto &planned = metrics::counter("plan.planned");
    const auto &attempts = metrics::counter("plan.attempts");
    int converts = 0;
    for (const auto &spec : {sim::GpuSpec::rtx4090(), sim::GpuSpec::gh200(),
                             sim::GpuSpec::mi250()}) {
        for (const auto &k : kernels::allKernels()) {
            for (int32_t size : k.sizes) {
                const std::string what =
                    k.name + "/" + std::to_string(size) + " on " + spec.name;
                Function f = k.build(size);
                LayoutEngine({spec, 4}).run(f);
                Function stripped = f;
                for (int i = 0; i < stripped.numOps(); ++i) {
                    const auto &o = f.op(i);
                    if (!o.erased && o.kind == OpKind::ConvertLayout &&
                        o.tag != "convert:unplanned") {
                        EXPECT_NE(o.plan, nullptr) << what << " op " << i;
                    }
                    stripped.op(i).plan.reset();
                }

                const int64_t plannedBefore = planned.value();
                const int64_t attemptsBefore = attempts.value();
                const KernelCost cost = estimateKernelCost(f, spec, 4);
                EXPECT_EQ(planned.value(), plannedBefore) << what;
                EXPECT_EQ(attempts.value(), attemptsBefore) << what;

                const KernelCost replanned =
                    estimateKernelCost(stripped, spec, 4);
                EXPECT_EQ(cost.cycles, replanned.cycles) << what;
                EXPECT_EQ(cost.toString(), replanned.toString()) << what;
                converts += cost.converts;
            }
        }
    }
    EXPECT_GT(converts, 0) << "no kernel kept a conversion";
}

} // namespace
} // namespace engine
} // namespace ll
