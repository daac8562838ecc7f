/**
 * @file
 * The fallback ladder under fault injection, exercised over the whole
 * committed corpus: every rung the planner can land on must be
 * oracle-clean (every element routed correctly, bank-conflict
 * accounting matching the simulator), the modeled cost must be
 * monotonically non-decreasing as rungs are knocked out, and the engine
 * must survive even a total planner outage by downgrading instead of
 * aborting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "check/generators.h"
#include "check/oracle.h"
#include "codegen/conversion.h"
#include "engine/layout_engine.h"
#include "ir/function.h"
#include "support/failpoint.h"
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

// Ladder-forcing failpoint sets. Each disables every rung above the one
// it names, so the planner must land on (or below) the forced rung.
std::vector<std::string>
forceShared()
{
    return {"plan.noop", "plan.register-permute", "plan.warp-shuffle"};
}

std::vector<std::string>
forcePadded()
{
    auto s = forceShared();
    s.push_back("plan.optimal-swizzle");
    s.push_back("plan.legacy-swizzle");
    return s;
}

std::vector<std::string>
forceScalar()
{
    auto s = forcePadded();
    s.push_back("plan.padded");
    return s;
}

codegen::ConversionPlan
planWith(const ConversionCase &c, const std::vector<std::string> &sites)
{
    failpoint::ScopedSet guard(sites);
    return codegen::planConversion(c.src, c.dst, c.elemBytes, c.spec());
}

bool
isShared(ConversionKind k)
{
    return k == ConversionKind::SharedMemory ||
           k == ConversionKind::SharedPadded ||
           k == ConversionKind::SharedScalar;
}

TEST(Fallback, CorpusIsPresent)
{
    ASSERT_GE(corpus().size(), 10u)
        << "corpus at " << LL_CORPUS_DIR << " looks empty";
}

// Every rung, on every corpus case, must route every element correctly
// and keep its wavefront accounting honest.
TEST(Fallback, ForcedSharedRungIsOracleClean)
{
    for (const auto &e : corpus()) {
        ConversionCase c = e.c;
        c.failpoints = forceShared();
        auto report = check::checkConversionCase(c);
        EXPECT_TRUE(isShared(report.kind))
            << e.file << ": " << toString(report.kind);
        EXPECT_TRUE(report.ok()) << e.file << ": " << report.toString();
    }
}

TEST(Fallback, ForcedPaddedRungIsOracleClean)
{
    int padAdopted = 0;
    for (const auto &e : corpus()) {
        ConversionCase c = e.c;
        c.failpoints = forcePadded();
        auto report = check::checkConversionCase(c);
        EXPECT_EQ(report.kind, ConversionKind::SharedPadded) << e.file;
        EXPECT_TRUE(report.ok()) << e.file << ": " << report.toString();
        // The padded rung is priced by enumerated totals (Lemma 9.4's
        // per-access uniformity fails under padding) — the oracle must
        // have audited those totals against the simulator.
        EXPECT_TRUE(report.totalsAudited) << e.file;
        EXPECT_FALSE(report.totalsDiverge()) << e.file;

        auto plan = planWith(e.c, forcePadded());
        ASSERT_TRUE(plan.shared.has_value()) << e.file;
        if (plan.shared->padded())
            ++padAdopted;
    }
    // Padding must actually engage somewhere in the corpus — otherwise
    // the rung is indistinguishable from a plain flat layout and the
    // padOffset arithmetic is untested.
    EXPECT_GE(padAdopted, 1);
}

TEST(Fallback, ForcedScalarRungIsOracleClean)
{
    for (const auto &e : corpus()) {
        ConversionCase c = e.c;
        c.failpoints = forceScalar();
        auto report = check::checkConversionCase(c);
        EXPECT_EQ(report.kind, ConversionKind::SharedScalar) << e.file;
        EXPECT_TRUE(report.ok()) << e.file << ": " << report.toString();
    }
}

// Knocking out rungs can only make the modeled conversion slower: the
// unforced plan is at most as expensive as the best shared plan, which
// is at most the padded plan, which is at most the scalar round trip.
TEST(Fallback, CyclesAreMonotonicDownTheLadder)
{
    for (const auto &e : corpus()) {
        const auto &c = e.c;
        const auto spec = c.spec();
        auto base = planWith(c, {});
        auto shared = planWith(c, forceShared());
        auto padded = planWith(c, forcePadded());
        auto scalar = planWith(c, forceScalar());
        double cBase = base.estimateCycles(c.src, c.elemBytes, spec);
        double cShared = shared.estimateCycles(c.src, c.elemBytes, spec);
        double cPadded = padded.estimateCycles(c.src, c.elemBytes, spec);
        double cScalar = scalar.estimateCycles(c.src, c.elemBytes, spec);
        EXPECT_LE(cBase, cShared)
            << e.file << ": " << toString(base.kind) << " vs "
            << toString(shared.kind);
        EXPECT_LE(cShared, cPadded)
            << e.file << ": " << toString(shared.kind) << " vs padded";
        EXPECT_LE(cPadded, cScalar) << e.file;
    }
}

/** An MMA v2 accumulator stored to a row-vectorized blocked layout
 *  (f16, GH200): the corpus plans no stmatrix, and this pair plans
 *  rung-4 shared memory with stmatrix. */
ConversionCase
stmatrixCase()
{
    triton::MmaEncoding mma;
    mma.version = 2;
    mma.warpsPerCta = {4, 1};
    triton::BlockedEncoding blocked;
    blocked.sizePerThread = {1, 8};
    blocked.threadsPerWarp = {1, 32};
    blocked.warpsPerCta = {4, 1};
    blocked.order = {1, 0};
    ConversionCase c;
    c.src = mma.toLinearLayout({64, 64});
    c.dst = blocked.toLinearLayout({64, 64});
    c.elemBytes = 2;
    c.summary = "mma v2 -> blocked stmatrix fixture";
    return c;
}

// ldmatrix and stmatrix are optimizations of the shared rung, not
// structural parts of it: dropping either must leave a working (and
// still optimally swizzled) shared plan. Each half must probe at least
// one plan, so neither can pass by comparing nothing.
TEST(Fallback, MatrixInstructionsAreIndependentlyDroppable)
{
    std::vector<CorpusEntry> cases = corpus();
    cases.push_back({"stmatrixCase()", stmatrixCase()});
    int ldmatrixProbes = 0;
    int stmatrixProbes = 0;
    for (const auto &e : cases) {
        auto baseline = planWith(e.c, forceShared());
        if (baseline.kind != ConversionKind::SharedMemory)
            continue;
        if (baseline.usesLdmatrix) {
            ++ldmatrixProbes;
            auto sites = forceShared();
            sites.push_back("plan.ldmatrix");
            auto plan = planWith(e.c, sites);
            EXPECT_EQ(plan.kind, ConversionKind::SharedMemory) << e.file;
            EXPECT_FALSE(plan.usesLdmatrix) << e.file;
            EXPECT_EQ(plan.usesStmatrix, baseline.usesStmatrix) << e.file;
            ConversionCase c = e.c;
            c.failpoints = sites;
            auto report = check::checkConversionCase(c);
            EXPECT_TRUE(report.ok()) << e.file << ": "
                                     << report.toString();
        }
        if (baseline.usesStmatrix) {
            ++stmatrixProbes;
            auto sites = forceShared();
            sites.push_back("plan.stmatrix");
            auto plan = planWith(e.c, sites);
            EXPECT_EQ(plan.kind, ConversionKind::SharedMemory) << e.file;
            EXPECT_FALSE(plan.usesStmatrix) << e.file;
            EXPECT_EQ(plan.usesLdmatrix, baseline.usesLdmatrix) << e.file;
            ConversionCase c = e.c;
            c.failpoints = sites;
            auto report = check::checkConversionCase(c);
            EXPECT_TRUE(report.ok()) << e.file << ": "
                                     << report.toString();
        }
    }
    std::cout << "ldmatrix probes: " << ldmatrixProbes
              << ", stmatrix probes: " << stmatrixProbes << "\n";
    ASSERT_GT(ldmatrixProbes, 0) << "no case plans ldmatrix";
    ASSERT_GT(stmatrixProbes, 0) << "no case plans stmatrix";
}

// No single failpoint site may leave the planner without a plan: the
// ladder must absorb any one-stage outage. (The terminal "plan.scalar"
// site is deliberately absent from plannerFailpointSites.)
TEST(Fallback, AnySingleSiteOutageStillPlans)
{
    const auto sites = codegen::plannerFailpointSites();
    ASSERT_FALSE(sites.empty());
    const size_t nCases = std::min<size_t>(corpus().size(), 8);
    for (const auto &site : sites) {
        for (size_t i = 0; i < nCases; ++i) {
            ConversionCase c = corpus()[i].c;
            c.failpoints = {site};
            auto report = check::checkConversionCase(c);
            EXPECT_TRUE(report.ok()) << corpus()[i].file << " with "
                                     << site << ": "
                                     << report.toString();
        }
    }
}

// A plan reached by stepping down records why in its diagnostics; a
// first-try plan stays clean.
TEST(Fallback, DiagnosticsRecordSkippedRungs)
{
    const auto &e = corpus().front();
    auto forced = planWith(e.c, forcePadded());
    EXPECT_FALSE(forced.diagnostics.empty());
    bool sawFailpoint = false;
    for (const auto &n : forced.diagnostics.notes)
        sawFailpoint |= n.code == DiagCode::FailpointInjected;
    EXPECT_TRUE(sawFailpoint) << forced.diagnostics.toString();
}

// ----------------------------------------------------------------------
// Engine survival
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

TEST(Fallback, EngineSurvivesATotalPlannerOutage)
{
    // Every rung off, including the terminal scalar one: planning fails
    // outright, and the engine must downgrade the conversion rather
    // than throw out of run().
    auto sites = codegen::plannerFailpointSites();
    sites.push_back("plan.scalar");
    failpoint::ScopedSet guard(sites);

    auto f = gemmFunction();
    engine::LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    engine::EngineStats stats;
    EXPECT_NO_THROW(stats = eng.run(f));
    EXPECT_GE(stats.planFailures, 1);
    EXPECT_FALSE(stats.planDiagnostics.empty());
    bool sawUnplanned = false;
    for (int i = 0; i < f.numOps(); ++i) {
        if (f.op(i).tag.find("convert:unplanned") != std::string::npos)
            sawUnplanned = true;
    }
    EXPECT_TRUE(sawUnplanned);
}

TEST(Fallback, EnginePlansConversionsWhenHealthy)
{
    auto f = gemmFunction();
    engine::LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    auto stats = eng.run(f);
    EXPECT_EQ(stats.planFailures, 0);
    EXPECT_GE(stats.convertsPlanned, 1);
    bool sawKindTag = false;
    for (int i = 0; i < f.numOps(); ++i) {
        const auto &tag = f.op(i).tag;
        auto pos = tag.find("convert:");
        if (pos == std::string::npos)
            continue;
        auto kind =
            codegen::parseConversionKind(tag.substr(pos + 8));
        EXPECT_TRUE(kind.has_value()) << tag;
        sawKindTag = true;
    }
    EXPECT_TRUE(sawKindTag);
}

TEST(Fallback, EngineTransferFailpointFallsBackToAnchor)
{
    failpoint::Scoped guard("engine.transfer");
    ir::Function f("softmax");
    int x = f.load({ir::DType::F32, {128, 64}}, "x");
    int m = f.reduce(x, 1, "max");
    int me = f.expandDims(m, 1);
    int mb = f.broadcast(me, {128, 64});
    int centered = f.elementwise({x, mb}, ir::DType::F32, "sub");
    f.store(centered);

    engine::LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    engine::EngineStats stats;
    EXPECT_NO_THROW(stats = eng.run(f));
    EXPECT_GE(stats.transferFallbacks, 1);
    for (int v = 0; v < f.numValues(); ++v)
        EXPECT_TRUE(f.value(v).layout.has_value()) << "value " << v;
}

} // namespace
} // namespace ll
