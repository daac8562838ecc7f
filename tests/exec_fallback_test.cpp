/**
 * @file
 * Execution-triggered demotion in check::verifyPlan: every executor
 * failure path, forced via the exec.* failpoint sites, must push the
 * planner one rung down the ladder and leave a demoted plan that still
 * round-trips bit-exactly under the oracle, at a modeled cost no lower
 * than the plan it replaced. Also covers the CTA budget (an oversized
 * tensor keeps a windowed rung-4 swizzle, or demotes to a windowed
 * scalar plan, instead of raising UserError), the padding search
 * regression pins, and the split between the compile path and the
 * check path: the engine and the service ship the planned plan and
 * execute nothing, so an executor fault reaches only verifyPlan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "check/generators.h"
#include "check/oracle.h"
#include "check/verify.h"
#include "codegen/conversion.h"
#include "codegen/gather.h"
#include "codegen/shared_exec.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "ir/function.h"
#include "layout/dims.h"
#include "service/conversion_service.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "synth/candidates.h"
#include "triton/encodings.h"

namespace ll {
namespace {

using check::ConversionCase;
using check::DemotionReport;
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

int
rung(ConversionKind k)
{
    return static_cast<int>(k);
}

TEST(ExecFallback, SitePoolIsCompleteAndDisjointFromPlannerSites)
{
    auto exec = codegen::executionFailpointSites();
    EXPECT_EQ(exec.size(), 10u);
    auto planner = codegen::plannerFailpointSites();
    for (const auto &s : exec) {
        EXPECT_EQ(s.rfind("exec.", 0), 0u) << s;
        EXPECT_EQ(std::count(exec.begin(), exec.end(), s), 1) << s;
        EXPECT_EQ(std::count(planner.begin(), planner.end(), s), 0) << s;
    }
}

// Cumulative knockout sets: each demotion step disables strictly more
// rungs, so verifyPlan's demotion loop must terminate; the terminal
// scalar rung has nowhere left to go.
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

// Each exec.shared.* site, forced for exactly one execution over every
// corpus case (driven onto the shared rung), must trigger exactly one
// demotion whose surviving plan is strictly lower on the ladder,
// oracle-clean, and no cheaper than the plan it replaced. A case whose
// forced plan already sits on the terminal scalar rung must fail
// terminally instead — the designed engine-failure outcome.
TEST(ExecFallback, SharedExecSitesDemoteBitExactOverCorpus)
{
    const std::vector<std::string> sites = {
        "exec.shared.file-size", "exec.shared.alloc",
        "exec.shared.window", "exec.shared.bank-budget"};
    for (const auto &site : sites) {
        int fired = 0;
        for (const auto &e : corpus()) {
            ConversionCase c = e.c;
            c.failpoints = forceShared();
            auto original = planWith(c, c.failpoints);

            failpoint::activate(site, 1);
            DemotionReport dr = check::checkCaseWithDemotion(c);
            failpoint::deactivate(site);

            EXPECT_EQ(dr.initialKind, original.kind) << e.file;
            if (dr.initialKind == ConversionKind::SharedScalar) {
                EXPECT_FALSE(dr.survived) << e.file << " with " << site;
                continue;
            }
            ++fired;
            EXPECT_TRUE(dr.survived) << e.file << " with " << site;
            EXPECT_EQ(dr.demotions, 1) << e.file << " with " << site;
            EXPECT_GT(rung(dr.finalKind), rung(dr.initialKind))
                << e.file << ": " << toString(dr.initialKind) << " -> "
                << toString(dr.finalKind);
            EXPECT_TRUE(dr.report.ok())
                << e.file << " with " << site << ": "
                << dr.report.toString();

            // Demotion may only raise the modeled cost (the original
            // rung was preferred for a reason).
            auto demoted =
                planWith(c, codegen::demotionSitesFor(original.kind));
            const auto spec = c.spec();
            EXPECT_LE(original.estimateCycles(c.src, c.elemBytes, spec),
                      demoted.estimateCycles(c.src, c.elemBytes, spec))
                << e.file << ": " << toString(original.kind) << " vs "
                << toString(demoted.kind);
        }
        EXPECT_GE(fired, 1) << site << " never reached a demotable plan";
    }
}

// The exec.shuffle.* sites, forced on a conversion that plans to the
// shuffle rung, demote it onto a shared rung that still routes every
// element correctly.
TEST(ExecFallback, ShuffleExecSitesDemoteToOracleCleanSharedPlan)
{
    const std::vector<std::string> sites = {
        "exec.shuffle.shape", "exec.shuffle.lane-range",
        "exec.shuffle.reg-range"};
    ConversionCase c = shuffleCase();
    {
        auto plan = planWith(c, {});
        ASSERT_EQ(plan.kind, ConversionKind::WarpShuffle)
            << "fixture no longer plans to the shuffle rung";
    }
    for (const auto &site : sites) {
        failpoint::activate(site, 1);
        DemotionReport dr = check::checkCaseWithDemotion(c);
        failpoint::deactivate(site);

        EXPECT_EQ(dr.initialKind, ConversionKind::WarpShuffle) << site;
        EXPECT_TRUE(dr.survived) << site;
        EXPECT_EQ(dr.demotions, 1) << site;
        EXPECT_GT(rung(dr.finalKind), rung(ConversionKind::WarpShuffle))
            << site << ": demoted to " << toString(dr.finalKind);
        EXPECT_TRUE(dr.report.ok()) << site << ": "
                                    << dr.report.toString();
    }

    // Demotion invariants must also hold wherever a shuffle plan occurs
    // naturally in the corpus.
    for (const auto &site : sites) {
        for (const auto &e : corpus()) {
            if (planWith(e.c, {}).kind != ConversionKind::WarpShuffle)
                continue;
            failpoint::activate(site, 1);
            DemotionReport dr = check::checkCaseWithDemotion(e.c);
            failpoint::deactivate(site);
            EXPECT_TRUE(dr.survived) << e.file << " with " << site;
            EXPECT_EQ(dr.demotions, 1) << e.file << " with " << site;
            EXPECT_TRUE(dr.report.ok())
                << e.file << " with " << site << ": "
                << dr.report.toString();
        }
    }
}

// Demotion must resume the ladder strictly below the failed rung
// instead of re-walking it from the top: a forced mid-ladder execution
// failure leaves the rungs at or above the failure evaluated exactly
// once (by the initial plan), while the demoted re-plan starts at the
// rung below. Counted via the plan.rung.*.evaluated metrics.
TEST(ExecFallback, DemotedReplanResumesBelowFailedRung)
{
    ConversionCase c = shuffleCase();
    {
        auto plan = planWith(c, {});
        ASSERT_EQ(plan.kind, ConversionKind::WarpShuffle)
            << "fixture no longer plans to the shuffle rung";
    }
    auto &reg = metrics::Registry::instance();
    auto at = [](const std::map<std::string, int64_t> &snap,
                 const std::string &name) {
        auto it = snap.find(name);
        return it == snap.end() ? int64_t(0) : it->second;
    };
    const auto before = reg.counterSnapshot();

    failpoint::activate("exec.shuffle.shape", 1);
    DemotionReport dr = check::checkCaseWithDemotion(c);
    failpoint::deactivate("exec.shuffle.shape");
    ASSERT_TRUE(dr.survived);
    ASSERT_EQ(dr.demotions, 1);
    EXPECT_GT(rung(dr.finalKind), rung(ConversionKind::WarpShuffle));

    const auto after = reg.counterSnapshot();
    auto delta = [&](const std::string &name) {
        return at(after, name) - at(before, name);
    };
    // The initial plan walks rungs 1-3 exactly once; the demoted
    // re-plan resumes at rung 4 and never revisits them.
    EXPECT_EQ(delta("plan.rung.noop.evaluated"), 1);
    EXPECT_EQ(delta("plan.rung.register-permute.evaluated"), 1);
    EXPECT_EQ(delta("plan.rung.warp-shuffle.evaluated"), 1);
    EXPECT_GE(delta("plan.rung.shared-memory.evaluated"), 1);
    EXPECT_EQ(delta("plan.replans"), 1);
}

// plan.kind.<kind> counts accepted rungs, so the plan a demotion ships
// is counted like any other: one shot of a shared executor failure on a
// shared-memory plan raises both the rejected kind's counter and the
// shipped kind's by exactly 1. llprof's accept column reads it.
TEST(ExecFallback, DemotedPlanCountsItsShippedKind)
{
    const ConversionCase *c = nullptr;
    for (const auto &e : corpus()) {
        if (planWith(e.c, {}).kind == ConversionKind::SharedMemory) {
            c = &e.c;
            break;
        }
    }
    ASSERT_NE(c, nullptr) << "no corpus case plans to shared memory";
    auto &reg = metrics::Registry::instance();
    const auto before = reg.counterSnapshot();

    failpoint::activate("exec.shared.file-size", 1);
    auto verified =
        check::verifyPlan(c->src, c->dst, c->elemBytes, c->spec());
    failpoint::deactivate("exec.shared.file-size");
    ASSERT_TRUE(verified.plan.ok());
    ASSERT_EQ(verified.demotions, 1);
    ASSERT_FALSE(verified.execFailed);
    const ConversionKind shipped = verified.plan->kind;
    ASSERT_NE(shipped, ConversionKind::SharedMemory);

    const auto after = reg.counterSnapshot();
    auto delta = [&](ConversionKind k) {
        const std::string name = "plan.kind." + codegen::toString(k);
        auto a = after.find(name);
        auto b = before.find(name);
        return (a == after.end() ? 0 : a->second) -
               (b == before.end() ? 0 : b->second);
    };
    EXPECT_EQ(delta(ConversionKind::SharedMemory), 1);
    EXPECT_EQ(delta(shipped), 1) << toString(shipped);
}

// The gather executor is not part of the conversion ladder, so its
// error paths are proven reachable directly: each forced site must fail
// that one execution with a structured ExecDiagnostic naming the site,
// and the immediately following clean run must succeed.
TEST(ExecFallback, GatherExecSitesFailOnceThenRecover)
{
    auto spec = sim::GpuSpec::gh200();
    auto layout = blocked({1, 8}, {32, 1}, {1, 1}, {1, 0}, {32, 8});
    auto plan = codegen::planGather(layout, 1, spec);
    ASSERT_TRUE(plan.has_value());

    std::vector<std::vector<uint64_t>> regs(
        static_cast<size_t>(plan->warpSize));
    std::vector<std::vector<int32_t>> idx(
        static_cast<size_t>(plan->warpSize));
    for (int lane = 0; lane < plan->warpSize; ++lane) {
        for (int reg = 0; reg < plan->numRegs; ++reg) {
            regs[static_cast<size_t>(lane)].push_back(
                static_cast<uint64_t>(lane * plan->numRegs + reg));
            idx[static_cast<size_t>(lane)].push_back(reg);
        }
    }

    for (const std::string site : {"exec.gather.invert",
                                   "exec.gather.index-range",
                                   "exec.gather.cross-warp"}) {
        failpoint::activate(site, 1);
        auto forced = codegen::executeGather(*plan, layout, 0, regs, idx);
        failpoint::deactivate(site);
        ASSERT_FALSE(forced.ok()) << site << " did not fire";
        EXPECT_EQ(forced.diag().stage, site);

        auto clean = codegen::executeGather(*plan, layout, 0, regs, idx);
        ASSERT_TRUE(clean.ok())
            << site << ": " << clean.diag().toString();
        // Identity index tensor: the gather must reproduce the input.
        for (int lane = 0; lane < plan->warpSize; ++lane) {
            for (int reg = 0; reg < plan->numRegs; ++reg) {
                EXPECT_EQ((*clean)[static_cast<size_t>(lane)]
                                  [static_cast<size_t>(reg)],
                          regs[static_cast<size_t>(lane)]
                              [static_cast<size_t>(reg)])
                    << site << " lane " << lane << " reg " << reg;
            }
        }
    }
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
// The compile path ships the planned plan; the check path verifies it
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

/** The first shipped conversion of the healthy gemm, pinned to the
 *  shared-memory rung a shared executor fault can demote. */
std::pair<int, ConversionCase>
firstSharedGemmConversion()
{
    auto healthy = gemmFunction();
    engine::LayoutEngine({sim::GpuSpec::gh200(), 4}).run(healthy);
    auto shipped = shippedConversions(healthy);
    EXPECT_FALSE(shipped.empty());
    if (shipped.empty())
        return {-1, {}};
    EXPECT_EQ(healthy.op(shipped.front().first).tag,
              "convert:shared-memory")
        << "fixture no longer plans its first conversion to shared";
    return shipped.front();
}

// The engine executes nothing, so a one-shot executor fault armed
// across a compile stays armed: every conversion ships its healthy plan.
// The fault surfaces where plans are verified — check::verifyPlan on
// the shipped shared conversion takes the shot and demotes it once.
TEST(ExecFallback, TransientExecFaultDemotesInVerifyPlanNotTheEngine)
{
    const auto spec = sim::GpuSpec::gh200();
    const std::string site = "exec.shared.file-size";
    auto healthy = gemmFunction();
    engine::LayoutEngine({spec, 4}).run(healthy);

    failpoint::Scoped fault(site, 1);
    const int64_t hitsBefore = failpoint::hitCount(site);
    auto f = gemmFunction();
    engine::EngineStats stats;
    EXPECT_NO_THROW(stats = engine::LayoutEngine({spec, 4}).run(f));
    EXPECT_EQ(failpoint::hitCount(site), hitsBefore)
        << "the engine executed a shared plan";
    EXPECT_EQ(stats.planFailures, 0);
    EXPECT_GE(stats.convertsPlanned, 1);
    ASSERT_EQ(f.numOps(), healthy.numOps());
    for (int i = 0; i < f.numOps(); ++i) {
        EXPECT_EQ(f.op(i).tag, healthy.op(i).tag) << "op " << i;
        if (f.op(i).plan) {
            EXPECT_EQ(codegen::describePlan(*f.op(i).plan),
                      codegen::describePlan(*healthy.op(i).plan))
                << "op " << i;
        }
    }

    auto [opIdx, c] = firstSharedGemmConversion();
    ASSERT_GE(opIdx, 0);
    auto verified = check::verifyPlan(c.src, c.dst, c.elemBytes, spec);
    EXPECT_GT(failpoint::hitCount(site), hitsBefore);
    ASSERT_TRUE(verified.verified());
    EXPECT_EQ(verified.initialKind, ConversionKind::SharedMemory);
    EXPECT_EQ(verified.demotions, 1);
    EXPECT_GT(rung(verified.plan->kind), rung(ConversionKind::SharedMemory));
}

// A persistent executor outage (every shared execution failing,
// including the terminal scalar rung's) leaves the engine untouched —
// it never executes a plan — while verifyPlan exhausts the ladder on
// every shipped shared conversion and reports a terminal failure.
TEST(ExecFallback, EngineSurvivesPersistentExecutionFailure)
{
    const auto spec = sim::GpuSpec::gh200();
    failpoint::ScopedSet guard({"exec.shared.file-size"});
    auto f = gemmFunction();
    engine::EngineStats stats;
    EXPECT_NO_THROW(stats = engine::LayoutEngine({spec, 4}).run(f));
    EXPECT_EQ(stats.planFailures, 0);

    int terminal = 0;
    for (const auto &[opIdx, c] : shippedConversions(f)) {
        const auto &o = f.op(opIdx);
        EXPECT_NE(o.tag, ir::kUnplannedConvertTag) << "op " << opIdx;
        ASSERT_NE(o.plan, nullptr) << "op " << opIdx;
        if (!o.plan->shared.has_value())
            continue;
        auto verified = check::verifyPlan(c.src, c.dst, c.elemBytes, spec);
        ASSERT_TRUE(verified.plan.ok()) << "op " << opIdx;
        EXPECT_TRUE(verified.execFailed) << "op " << opIdx;
        EXPECT_GE(verified.demotions, 1) << "op " << opIdx;
        EXPECT_EQ(verified.plan->kind, ConversionKind::SharedScalar);
        EXPECT_FALSE(verified.notes.empty()) << "op " << opIdx;
        ++terminal;
    }
    EXPECT_GE(terminal, 1) << "the gemm ships no shared conversion";
}

// The engine and the service ship the same plan, tryPlanConversion's,
// whether or not an executor fault is armed; the service publishes it
// once no failpoint is active. check::verifyPlan and the demotion-aware
// oracle share one demotion routine, so a single forced allocation
// failure ends both on the same rung after one demotion, and the
// engine's modeled kernel price does not move.
TEST(ExecFallback, EngineAndServiceShipWhatVerifyPlanVerifies)
{
    const auto spec = sim::GpuSpec::gh200();
    const std::string site = "exec.shared.alloc";
    auto [opIdx, c] = firstSharedGemmConversion();
    ASSERT_GE(opIdx, 0);
    auto healthy = gemmFunction();
    engine::LayoutEngine({spec, 4}).run(healthy);
    const auto planned =
        codegen::tryPlanConversion(c.src, c.dst, c.elemBytes, spec);
    ASSERT_TRUE(planned.ok());

    service::PlanCache cache;
    auto f = gemmFunction();
    {
        failpoint::Scoped fault(site, 1);
        engine::LayoutEngine({spec, 4}).run(f);
        auto served = service::serveConversion(&cache, c.src, c.dst,
                                               c.elemBytes, spec);
        ASSERT_TRUE(served.planned()) << served.error;
        EXPECT_EQ(codegen::describePlan(*served.plan),
                  codegen::describePlan(*planned));
        EXPECT_EQ(cache.size(), 0)
            << "a plan was published while a failpoint was armed";
    }
    ASSERT_NE(f.op(opIdx).plan, nullptr);
    EXPECT_EQ(codegen::describePlan(*f.op(opIdx).plan),
              codegen::describePlan(*planned));
    EXPECT_DOUBLE_EQ(engine::estimateKernelCost(f, spec, 4).cycles,
                     engine::estimateKernelCost(healthy, spec, 4).cycles);

    auto served =
        service::serveConversion(&cache, c.src, c.dst, c.elemBytes, spec);
    ASSERT_TRUE(served.planned()) << served.error;
    EXPECT_EQ(cache.size(), 1) << "the planned plan was not published";
    EXPECT_EQ(cache.stats().inserts, 1);

    failpoint::activate(site, 1);
    auto verified = check::verifyPlan(c.src, c.dst, c.elemBytes, spec);
    failpoint::deactivate(site);
    ASSERT_TRUE(verified.verified());
    EXPECT_EQ(verified.demotions, 1);

    failpoint::activate(site, 1);
    DemotionReport dr = check::checkCaseWithDemotion(c);
    failpoint::deactivate(site);
    ASSERT_TRUE(dr.survived);
    EXPECT_EQ(dr.demotions, 1);
    EXPECT_EQ(dr.initialKind, ConversionKind::SharedMemory);
    EXPECT_EQ(dr.finalKind, verified.plan->kind);
    EXPECT_TRUE(dr.report.ok()) << dr.report.toString();
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
// the plan (and verifyPlan would demote it) instead of passing it.
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
// by one moves every element correctly, yet fails at exec.shared.cost
// and demotes to a rung below that passes.
TEST(ExecFallback, SmokeRejectsAMispricedPlanAndDemotes)
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

        auto demoted = codegen::tryPlanConversionBelow(
            mispriced.kind, c.src, c.dst, c.elemBytes, spec);
        ASSERT_TRUE(demoted.ok()) << demoted.diag().toString();
        EXPECT_GT(rung(demoted->kind), rung(mispriced.kind));
        EXPECT_FALSE(codegen::smokeExecutePlan(*demoted, c.src, c.dst,
                                               c.elemBytes, spec))
            << "the demoted " << codegen::toString(demoted->kind)
            << " plan must pass";
    }
}

// A healthy engine executes nothing — no exec.* counter moves during
// its run, and it reports no execution fallbacks because it takes none
// — and every plan it ships passes check::verifyPlan undemoted, ending
// on the very plan the engine attached.
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
        auto v = check::verifyPlan(c.src, c.dst, c.elemBytes, spec);
        ASSERT_TRUE(v.verified()) << "op " << opIdx;
        EXPECT_EQ(v.demotions, 0) << "op " << opIdx;
        EXPECT_EQ(codegen::describePlan(*v.plan),
                  codegen::describePlan(*shipped))
            << "op " << opIdx;
        ++verified;
    }
    EXPECT_GE(verified, 1);
}

} // namespace
} // namespace ll
