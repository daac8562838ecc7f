/**
 * @file
 * What happens when a plan is wrong, and the rungs below the top of the
 * ladder. The paper's lowerings are correct by construction, so the
 * compile path executes nothing; executing a plan is the checks' job,
 * and an executor failure there is a failed check, never a new plan.
 * Covers:
 *   - every executor error path, reached with a malformed input or a
 *     corrupted plan, reports its ExecError code and stage instead of
 *     aborting;
 *   - the smoke run (codegen::smokeExecutePlan) rejects an aliased
 *     swizzle and a mispriced plan;
 *   - a healthy engine executes nothing and ships what the planner
 *     plans;
 *   - the lower rungs: the CTA budget (an oversized tensor keeps a
 *     windowed rung-4 swizzle, or falls to a windowed scalar plan,
 *     instead of raising UserError), the padding search pins, and the
 *     price of a conversion no rung could plan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "check/generators.h"
#include "check/oracle.h"
#include "codegen/conversion.h"
#include "codegen/gather.h"
#include "codegen/shared_exec.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "ir/function.h"
#include "layout/dims.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "synth/candidates.h"
#include "triton/encodings.h"

namespace ll {
namespace {

using check::ConversionCase;
using codegen::ConversionKind;

struct CorpusEntry
{
    std::string file; ///< basename, for failure messages
    ConversionCase c;
};

const std::vector<CorpusEntry> &
corpus()
{
    static const std::vector<CorpusEntry> entries = [] {
        std::vector<std::string> paths;
        for (const auto &e :
             std::filesystem::directory_iterator(LL_CORPUS_DIR)) {
            if (e.path().extension() == ".txt")
                paths.push_back(e.path().string());
        }
        std::sort(paths.begin(), paths.end());
        std::vector<CorpusEntry> out;
        for (const auto &p : paths) {
            out.push_back({std::filesystem::path(p).filename().string(),
                           check::readCaseFile(p)});
        }
        return out;
    }();
    return entries;
}

LinearLayout
blocked(const triton::Shape &spt, const triton::Shape &tpw,
        const triton::Shape &wpc, const std::vector<int32_t> &order,
        const triton::Shape &shape)
{
    triton::BlockedEncoding enc;
    enc.sizePerThread = spt;
    enc.threadsPerWarp = tpw;
    enc.warpsPerCta = wpc;
    enc.order = order;
    return enc.toLinearLayout(shape);
}

std::vector<std::string>
forceShared()
{
    return {"plan.noop", "plan.register-permute", "plan.warp-shuffle"};
}

codegen::ConversionPlan
planWith(const ConversionCase &c, const std::vector<std::string> &sites)
{
    failpoint::ScopedSet guard(sites);
    return codegen::planConversion(c.src, c.dst, c.elemBytes, c.spec());
}

/** A conversion that plans to WarpShuffle on gh200 (verified by the
 *  codegen tests): same warp tiling, different thread/register split. */
ConversionCase
shuffleCase()
{
    ConversionCase c;
    c.src = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {16, 64});
    c.dst = blocked({4, 1}, {2, 16}, {2, 2}, {1, 0}, {16, 64});
    c.elemBytes = 2;
    c.summary = "deterministic warp-shuffle conversion";
    return c;
}

// Cumulative knockout sets: each rung's set disables strictly more
// rungs than the set of the rung above it, and the terminal scalar
// rung has nothing below it.
TEST(ExecFallback, DemotionSitesGrowStrictlyDownTheLadder)
{
    const ConversionKind ladder[] = {
        ConversionKind::NoOp,          ConversionKind::RegisterPermute,
        ConversionKind::WarpShuffle,   ConversionKind::SharedMemory,
        ConversionKind::SharedPadded,
    };
    size_t prev = 0;
    for (ConversionKind k : ladder) {
        auto sites = codegen::demotionSitesFor(k);
        EXPECT_GT(sites.size(), prev) << toString(k);
        prev = sites.size();
    }
    EXPECT_TRUE(codegen::demotionSitesFor(ConversionKind::SharedScalar)
                    .empty());
}

// ----------------------------------------------------------------------
// Executor error paths, reached through real inputs
// ----------------------------------------------------------------------

/** `result` failed with `code` at `stage`. */
template <typename T>
void
expectExecError(const Result<T, ExecDiagnostic> &result, ExecError code,
                const std::string &stage)
{
    ASSERT_FALSE(result.ok()) << stage << " passed";
    EXPECT_EQ(result.diag().code, code) << result.diag().toString();
    EXPECT_EQ(result.diag().stage, stage);
}

/** One warp's register and index files for a gather: register r of
 *  lane l holds a distinct tag, and every index is `index(lane, reg)`. */
template <typename IndexFn>
std::pair<std::vector<std::vector<uint64_t>>,
          std::vector<std::vector<int32_t>>>
gatherFiles(int warpSize, int numRegs, IndexFn index)
{
    std::vector<std::vector<uint64_t>> regs(static_cast<size_t>(warpSize));
    std::vector<std::vector<int32_t>> idx(static_cast<size_t>(warpSize));
    for (int lane = 0; lane < warpSize; ++lane) {
        for (int reg = 0; reg < numRegs; ++reg) {
            regs[static_cast<size_t>(lane)].push_back(
                static_cast<uint64_t>(lane * numRegs + reg));
            idx[static_cast<size_t>(lane)].push_back(index(lane, reg));
        }
    }
    return {regs, idx};
}

// A warp-local gather along axis 1 of a 32 x 8 tile: each thread holds
// one row. The identity index tensor reproduces the input; a layout
// that cannot be inverted, an index at the axis size, a source in
// another warp and a source register outside the plan's file each come
// back as their own ExecError at their own stage.
TEST(ExecErrors, GatherReportsMalformedInputs)
{
    auto spec = sim::GpuSpec::gh200();
    auto layout = blocked({1, 8}, {32, 1}, {1, 1}, {1, 0}, {32, 8});
    auto plan = codegen::planGather(layout, 1, spec);
    ASSERT_TRUE(plan.has_value());
    const int warpSize = plan->warpSize;
    const int numRegs = plan->numRegs;
    ASSERT_EQ(warpSize, 32);
    ASSERT_EQ(numRegs, 8);

    auto [regs, identity] =
        gatherFiles(warpSize, numRegs, [](int, int reg) { return reg; });
    auto clean = codegen::executeGather(*plan, layout, 0, regs, identity);
    ASSERT_TRUE(clean.ok()) << clean.diag().toString();
    EXPECT_EQ(*clean, regs);

    // A 16-row tile under the same encoding broadcasts one lane bit,
    // so the layout has no inverse.
    auto broadcast = blocked({1, 8}, {32, 1}, {1, 1}, {1, 0}, {16, 8});
    ASSERT_FALSE(broadcast.isInvertible());
    expectExecError(
        codegen::executeGather(*plan, broadcast, 0, regs, identity),
        ExecError::NonInvertibleStep, "exec.gather.invert");

    auto pastAxis = gatherFiles(warpSize, numRegs, [](int lane, int reg) {
        return lane == 5 && reg == 3 ? 8 : reg;
    });
    expectExecError(codegen::executeGather(*plan, layout, 0, pastAxis.first,
                                           pastAxis.second),
                    ExecError::RegisterOutOfRange, "exec.gather.index-range");

    // Two warps split the gathered axis, so warp 0 holds columns 0-3
    // and index 4 lives in warp 1. The planner declines this layout;
    // a plan that claims it is warp-local meets the cross-warp check.
    auto split = blocked({1, 4}, {32, 1}, {1, 2}, {1, 0}, {32, 8});
    ASSERT_FALSE(codegen::planGather(split, 1, spec).has_value());
    codegen::GatherPlan splitPlan = *plan;
    splitPlan.numRegs = 4;
    auto crossWarp = gatherFiles(warpSize, 4, [](int, int reg) {
        return reg == 2 ? 4 : reg;
    });
    expectExecError(codegen::executeGather(splitPlan, split, 0,
                                           crossWarp.first, crossWarp.second),
                    ExecError::CrossWarpSource, "exec.gather.cross-warp");

    // A plan that reads only 4 of the layout's 8 registers: index 6
    // names a source register outside the file it holds.
    codegen::GatherPlan shortPlan = *plan;
    shortPlan.numRegs = 4;
    auto pastFile = gatherFiles(warpSize, 4, [](int, int reg) {
        return reg == 1 ? 6 : reg;
    });
    expectExecError(codegen::executeGather(shortPlan, layout, 0,
                                           pastFile.first, pastFile.second),
                    ExecError::LaneOutOfRange, "exec.gather.cross-warp");

    // A register file that does not span the warp.
    auto halfWarp = gatherFiles(16, numRegs, [](int, int reg) { return reg; });
    expectExecError(codegen::executeGather(*plan, layout, 0, halfWarp.first,
                                           halfWarp.second),
                    ExecError::PlanShapeMismatch, "exec.gather");
}

// The shuffle executor on a register file of the wrong shape and on a
// plan with a corrupted column. A column's srcLane and srcReg fields are
// exactly as wide as the warp and A's register file, so a corruption
// can only reach past the top field, B's register file.
TEST(ExecErrors, ShuffleReportsMalformedInputs)
{
    ConversionCase c = shuffleCase();
    auto planned = planWith(c, {});
    ASSERT_EQ(planned.kind, ConversionKind::WarpShuffle)
        << "fixture no longer plans to the shuffle rung";
    const codegen::WarpShufflePlan &plan = *planned.shuffle;
    ASSERT_EQ(plan.warpSize, 32);
    const auto numRegsA = static_cast<size_t>(plan.numRegsA);
    const std::vector<std::vector<uint64_t>> file(
        32, std::vector<uint64_t>(numRegsA, 0));
    ASSERT_TRUE(plan.execute(file).ok());

    const std::vector<std::vector<uint64_t>> halfWarp(
        16, std::vector<uint64_t>(numRegsA, 0));
    expectExecError(plan.execute(halfWarp), ExecError::PlanShapeMismatch,
                    "exec.shuffle.shape");
    auto shortLane = file;
    shortLane[7].pop_back();
    expectExecError(plan.execute(shortLane), ExecError::PlanShapeMismatch,
                    "exec.shuffle.shape");

    const int wordBits = std::countr_zero(unsigned(plan.numRegsA)) +
                         std::countr_zero(unsigned(plan.warpSize)) +
                         std::countr_zero(unsigned(plan.numRegsB));
    auto badReg = plan;
    badReg.columns.front() ^= uint64_t(1) << wordBits;
    expectExecError(badReg.execute(file), ExecError::RegisterOutOfRange,
                    "exec.shuffle.reg-range");
}

// The shared round trip on a source file of the wrong size, on a tile
// too big for the CTA budget with its window stripped, and on a swizzle
// planned for a larger tile, whose offsets run past this tile's storage.
TEST(ExecErrors, SharedRoundTripReportsMalformedInputs)
{
    const auto spec = sim::GpuSpec::gh200();
    ConversionCase c;
    c.src = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {32, 32});
    c.dst = blocked({4, 1}, {8, 4}, {4, 1}, {0, 1}, {32, 32});
    c.elemBytes = 2;
    auto plan = planWith(c, forceShared());
    ASSERT_TRUE(plan.shared.has_value());
    const LinearLayout src = codegen::canonicalIns(c.src);
    const LinearLayout dst = codegen::canonicalIns(c.dst);
    auto srcFile = codegen::flatImage(src);
    ASSERT_TRUE(codegen::runSharedRoundTrip(*plan.shared, src, dst,
                                            srcFile, c.elemBytes, spec)
                    .ok());
    srcFile.pop_back();
    expectExecError(codegen::runSharedRoundTrip(*plan.shared, src, dst,
                                                srcFile, c.elemBytes, spec),
                    ExecError::PlanShapeMismatch, "exec.shared.file-size");

    // 256 x 256 x f32 exceeds the GH200 CTA budget: the planner windows
    // the swizzle, and without its window it no longer fits.
    auto bigSrc = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {256, 256});
    auto bigDst = blocked({4, 1}, {4, 8}, {2, 2}, {0, 1}, {256, 256});
    auto big = codegen::planConversion(bigSrc, bigDst, 4, spec);
    ASSERT_TRUE(big.shared.has_value());
    ASSERT_TRUE(big.shared->windowed());
    codegen::SwizzledShared unwindowed = *big.shared;
    unwindowed.windowElems = 0;
    expectExecError(codegen::executeSharedConversion(unwindowed, bigSrc,
                                                     bigDst, 4, spec),
                    ExecError::SharedWindowOverflow, "exec.shared.alloc");

    // The same encodings on a 64 x 64 tile: that swizzle addresses 4096
    // elements, and the 32 x 32 tile stores only 1024.
    ConversionCase wide = c;
    wide.src = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {64, 64});
    wide.dst = blocked({4, 1}, {8, 4}, {4, 1}, {0, 1}, {64, 64});
    auto widePlan = planWith(wide, forceShared());
    ASSERT_TRUE(widePlan.shared.has_value());
    expectExecError(codegen::executeSharedConversion(*widePlan.shared, c.src,
                                                     c.dst, c.elemBytes,
                                                     spec),
                    ExecError::SharedWindowOverflow, "exec.shared.window");
}

// ----------------------------------------------------------------------
// CTA budget (satellite: oversized tensors demote, not abort)
// ----------------------------------------------------------------------

// 256 x 256 x f32 = 256 KiB exceeds the GH200 CTA budget (228 KiB).
// Rung 4 keeps its vectorized swizzle and runs it in windowed passes,
// cheaper than the windowed scalar round trip of the same pair. With
// rung 4 knocked out, the padded candidate is gated by
// DiagCode::CtaBudgetExceeded and the planner lands on the windowed
// scalar rung. Both plans fit the budget, still bit-exact under the
// oracle, with their totals and (every lane fits its window) Lemma
// 9.4's per-access counts audited.
TEST(ExecFallback, OversizedTensorDemotesToWindowedScalar)
{
    auto spec = sim::GpuSpec::gh200();
    auto src = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {256, 256});
    auto dst = blocked({4, 1}, {4, 8}, {2, 2}, {0, 1}, {256, 256});
    const int elemBytes = 4;
    const int64_t numElems = src.getTotalOutDimSize();

    auto plan = codegen::tryPlanConversion(src, dst, elemBytes, spec);
    ASSERT_TRUE(plan.ok()) << plan.diag().toString();
    EXPECT_EQ(plan->kind, ConversionKind::SharedMemory);
    ASSERT_TRUE(plan->shared.has_value());
    EXPECT_GT(plan->shared->vecElems(), 1);

    auto scalar = [&] {
        failpoint::ScopedSet knockout(
            codegen::demotionSitesFor(ConversionKind::SharedMemory));
        return codegen::tryPlanConversion(src, dst, elemBytes, spec);
    }();
    ASSERT_TRUE(scalar.ok()) << scalar.diag().toString();
    EXPECT_EQ(scalar->kind, ConversionKind::SharedScalar);
    ASSERT_TRUE(scalar->shared.has_value());
    EXPECT_LT(plan->estimateCycles(src, elemBytes, spec),
              scalar->estimateCycles(src, elemBytes, spec));

    // Rung 4's candidates are knocked out, so the one budget note is
    // the padded rung's.
    int budgetNotes = 0;
    for (const auto &n : scalar->diagnostics.notes)
        budgetNotes += n.code == DiagCode::CtaBudgetExceeded;
    EXPECT_EQ(budgetNotes, 1) << scalar->diagnostics.toString();

    for (const auto *p : {&*plan, &*scalar}) {
        const std::string label = codegen::toString(p->kind);
        EXPECT_TRUE(p->shared->windowed()) << label;
        EXPECT_LE(p->shared->allocElems(numElems) * elemBytes,
                  static_cast<int64_t>(spec.sharedMemPerCta))
            << label;
        EXPECT_GE(p->shared->passesFor(numElems), 2) << label;

        // The multi-pass execution must still route every element and
        // keep its wavefront totals and per-access counts honest.
        auto report = check::checkPlan(*p, src, dst, elemBytes, spec);
        EXPECT_TRUE(report.ok()) << label << ": " << report.toString();
        EXPECT_TRUE(report.audited) << label;
        EXPECT_TRUE(report.totalsAudited) << label;
        EXPECT_FALSE(report.totalsDiverge()) << label;
    }
}

// ----------------------------------------------------------------------
// Padding search regression (satellite: pinned (interval, pad) pairs)
// ----------------------------------------------------------------------

// The padded rung searches a small (padInterval, padElems) family and
// keeps the wavefront-cheapest pair that fits. Pin the chosen pair for
// two corpus cases — one scalar-vectorization case and one where the
// pad must stay a multiple of an 8-wide vectorization — so a cost-model
// or search-order change shows up as an explicit diff here.
TEST(ExecFallback, PaddingSearchPinsChosenPairOnCorpusCases)
{
    auto forcePadded = forceShared();
    forcePadded.push_back("plan.optimal-swizzle");
    forcePadded.push_back("plan.legacy-swizzle");

    struct Pin
    {
        const char *file;
        int64_t interval, pad;
        int vec;
    };
    const Pin pins[] = {
        {"seed3_case16.txt", 64, 4, 1},
        {"seed3_case29.txt", 32, 8, 8},
    };
    for (const auto &pin : pins) {
        const CorpusEntry *entry = nullptr;
        for (const auto &e : corpus())
            if (e.file == pin.file)
                entry = &e;
        ASSERT_NE(entry, nullptr) << pin.file << " missing from corpus";

        auto plan = planWith(entry->c, forcePadded);
        ASSERT_EQ(plan.kind, ConversionKind::SharedPadded) << pin.file;
        ASSERT_TRUE(plan.shared.has_value()) << pin.file;
        EXPECT_TRUE(plan.shared->padded()) << pin.file;
        EXPECT_EQ(plan.shared->padInterval, pin.interval) << pin.file;
        EXPECT_EQ(plan.shared->padElems, pin.pad) << pin.file;
        EXPECT_EQ(plan.shared->vecElems(), pin.vec) << pin.file;
        // Padding stays vec-aligned so access windows never straddle a
        // pad gap.
        EXPECT_EQ(plan.shared->padInterval % plan.shared->vecElems(), 0)
            << pin.file;
        EXPECT_EQ(plan.shared->padElems % plan.shared->vecElems(), 0)
            << pin.file;
    }
}

// ----------------------------------------------------------------------
// The compile path ships the planned plan; the checks execute it
// ----------------------------------------------------------------------

ir::Function
gemmFunction()
{
    ir::Function f("gemm");
    int a = f.load({ir::DType::F16, {64, 64}});
    int b = f.load({ir::DType::F16, {64, 64}});
    int c = f.dot(a, b, ir::DType::F32);
    f.store(c);
    return f;
}

/** Every live ConvertLayout of an engine-annotated function as a
 *  conversion case, keyed by op index. */
std::vector<std::pair<int, ConversionCase>>
shippedConversions(const ir::Function &f)
{
    std::vector<std::pair<int, ConversionCase>> out;
    for (int i = 0; i < f.numOps(); ++i) {
        const auto &o = f.op(i);
        if (o.erased || o.kind != ir::OpKind::ConvertLayout)
            continue;
        const auto &have = *f.value(o.operands[0]).layout;
        const auto &want = *f.value(o.results[0]).layout;
        ConversionCase c;
        c.src = have;
        c.dst = want.transposeOuts(have.getOutDimNames());
        c.elemBytes = ir::byteWidth(f.value(o.results[0]).type.dtype);
        out.emplace_back(i, std::move(c));
    }
    return out;
}

// When no rung of a conversion can be planned, the engine tags the op
// unplanned and attaches no plan. The cost model must price it as an
// unplannable conversion, not re-plan it: the kernel's price moves by
// exactly the difference on each rejected op.
TEST(ExecFallback, CostModelPricesARejectedConversionAsUnplannable)
{
    const auto spec = sim::GpuSpec::gh200();
    auto healthy = gemmFunction();
    engine::LayoutEngine({spec, 4}).run(healthy);

    auto outage = codegen::plannerFailpointSites();
    outage.push_back("plan.scalar");
    auto f = gemmFunction();
    {
        failpoint::ScopedSet guard(outage);
        auto stats = engine::LayoutEngine({spec, 4}).run(f);
        ASSERT_GE(stats.planFailures, 1);
    }
    ASSERT_EQ(f.numOps(), healthy.numOps());

    int rejected = 0;
    double delta = 0.0;
    for (int i = 0; i < f.numOps(); ++i) {
        const auto &o = f.op(i);
        if (o.erased || o.kind != ir::OpKind::ConvertLayout)
            continue;
        const auto &h = healthy.op(i);
        const auto &src = *f.value(o.operands[0]).layout;
        ASSERT_EQ(src, *healthy.value(h.operands[0]).layout);
        if (o.tag != ir::kUnplannedConvertTag) {
            EXPECT_EQ(o.tag, h.tag);
            continue;
        }
        ++rejected;
        EXPECT_EQ(o.plan, nullptr);
        ASSERT_NE(h.plan, nullptr);
        const int elemBytes =
            ir::byteWidth(f.value(o.operands[0]).type.dtype);
        delta += synth::unplannableConversionCycles(src, spec) -
                 h.plan->estimateCycles(src, elemBytes, spec);
    }
    ASSERT_GE(rejected, 1);
    EXPECT_NE(delta, 0.0)
        << "the fixture cannot tell a rejected plan from a priced one";
    EXPECT_DOUBLE_EQ(engine::estimateKernelCost(f, spec, 4).cycles -
                         engine::estimateKernelCost(healthy, spec, 4).cycles,
                     delta);
}

// An aliased swizzle executes cleanly (every offset is in range) but
// loses data: two elements share one cell, so some register loads
// poison or the other element. executeSharedConversion compares what
// each dst register received and reports it, so the smoke run fails
// the plan instead of passing it.
TEST(ExecFallback, SmokeRejectsAnAliasedSwizzle)
{
    const auto spec = sim::GpuSpec::gh200();
    ConversionCase c;
    c.src = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {32, 32});
    c.dst = blocked({4, 1}, {8, 4}, {4, 1}, {0, 1}, {32, 32});
    c.elemBytes = 2;
    auto plan = planWith(c, forceShared());
    ASSERT_TRUE(plan.shared.has_value());
    EXPECT_FALSE(
        codegen::smokeExecutePlan(plan, c.src, c.dst, c.elemBytes, spec))
        << "the healthy plan must pass";
    auto healthy = codegen::executeSharedConversion(
        *plan.shared, c.src, c.dst, c.elemBytes, spec);
    EXPECT_TRUE(healthy.ok()) << healthy.diag().toString();

    ASSERT_TRUE(check::injectSwizzleAliasBug(plan));
    auto fail =
        codegen::smokeExecutePlan(plan, c.src, c.dst, c.elemBytes, spec);
    ASSERT_TRUE(fail.has_value()) << "an aliased plan passed its smoke run";
    EXPECT_EQ(fail->code, ExecError::DataMismatch) << fail->toString();
    EXPECT_EQ(fail->stage, "exec.shared.verify");

    // The verifying executor that fig2, tab5 and the examples run is
    // the same check, so it rejects the aliased plan too.
    auto aliased = codegen::executeSharedConversion(
        *plan.shared, c.src, c.dst, c.elemBytes, spec);
    ASSERT_FALSE(aliased.ok()) << "an aliased plan executed correctly";
    EXPECT_EQ(aliased.diag().code, ExecError::DataMismatch)
        << aliased.diag().toString();
    EXPECT_EQ(aliased.diag().stage, "exec.shared.verify");
}

// The smoke run audits the price as well as the data: a shared plan is
// priced by its enumerated store/load wavefront totals, and the round
// trip must measure exactly those. A plan whose recorded total is off
// by one moves every element correctly, yet fails at exec.shared.cost.
TEST(ExecFallback, SmokeRejectsAMispricedPlan)
{
    const auto spec = sim::GpuSpec::gh200();
    ConversionCase c;
    c.src = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {32, 32});
    c.dst = blocked({4, 1}, {8, 4}, {4, 1}, {0, 1}, {32, 32});
    c.elemBytes = 2;
    const auto plan = planWith(c, forceShared());
    ASSERT_EQ(plan.kind, ConversionKind::SharedMemory);
    EXPECT_FALSE(
        codegen::smokeExecutePlan(plan, c.src, c.dst, c.elemBytes, spec))
        << "the healthy plan must pass";

    for (const bool mutateStore : {true, false}) {
        codegen::ConversionPlan mispriced = plan;
        (mutateStore ? mispriced.storeWavefrontsTotal
                     : mispriced.loadWavefrontsTotal) += 1;
        auto fail = codegen::smokeExecutePlan(mispriced, c.src, c.dst,
                                              c.elemBytes, spec);
        ASSERT_TRUE(fail.has_value())
            << (mutateStore ? "store" : "load")
            << " total mispriced by one passed its smoke run";
        EXPECT_EQ(fail->code, ExecError::CostMismatch) << fail->toString();
        EXPECT_EQ(fail->stage, "exec.shared.cost");
    }
}

// A healthy engine executes nothing — no exec.* counter moves during
// its run, and it reports no execution fallbacks because it takes none
// — and every plan it ships passes its smoke run and is the very plan
// a fresh tryPlanConversion gives.
TEST(ExecFallback, HealthyEngineReportsNoExecFallbacks)
{
    const auto spec = sim::GpuSpec::gh200();
    auto f = gemmFunction();
    // The engine takes no per-run registry delta; this single-threaded
    // test takes its own around the run.
    auto &reg = metrics::Registry::instance();
    const auto before = reg.counterSnapshot();
    auto stats = engine::LayoutEngine({spec, 4}).run(f);
    const auto delta = reg.counterDelta(before);
    EXPECT_GE(stats.convertsPlanned, 1);
    for (const auto &[name, moved] : delta)
        EXPECT_NE(name.rfind("exec.", 0), 0u)
            << name << " moved by " << moved << " during the run";

    int verified = 0;
    for (const auto &[opIdx, c] : shippedConversions(f)) {
        const auto &shipped = f.op(opIdx).plan;
        ASSERT_NE(shipped, nullptr) << "op " << opIdx;
        EXPECT_FALSE(codegen::smokeExecutePlan(*shipped, c.src, c.dst,
                                               c.elemBytes, spec))
            << "op " << opIdx;
        auto fresh =
            codegen::tryPlanConversion(c.src, c.dst, c.elemBytes, spec);
        ASSERT_TRUE(fresh.ok()) << "op " << opIdx;
        EXPECT_EQ(codegen::describePlan(*fresh),
                  codegen::describePlan(*shipped))
            << "op " << opIdx;
        ++verified;
    }
    EXPECT_GE(verified, 1);
}

} // namespace
} // namespace ll
