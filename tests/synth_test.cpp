/**
 * @file
 * Tests for whole-kernel layout synthesis (src/synth) and its engine
 * integration.
 *
 * The pins here are the subsystem's contracts:
 *   - LayoutEngine::anchorForMemory / dotResultLayout / dotOperandLayout
 *     are the same code as the synth candidate constructors (the
 *     factoring regression test — the two must never drift);
 *   - candidate sets always lead with the default and are deduplicated;
 *   - the search always ranks the all-defaults assignment, even at
 *     beam width 1;
 *   - synthesis is never worse than the propagation-only engine on any
 *     fig9 kernel (the acceptance guarantee, checked with the true cost
 *     model on the annotated functions);
 *   - eight concurrent engines with a shared plan cache produce
 *     identical assignments and identical conversion plans (the tsan
 *     target);
 *   - every conversion a synthesized run leaves behind still passes the
 *     end-to-end tagged-buffer oracle, demotion loop included;
 *   - the search prices edges from their plans alone: it smoke-runs
 *     nothing and never touches a plan cache, so the first shared round
 *     trip of a synthesized run is one of the conversions it ships.
 */

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/generators.h"
#include "check/oracle.h"
#include "codegen/conversion.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "kernels.h"
#include "service/plan_cache.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "synth/candidates.h"
#include "synth/synthesize.h"
#include "triton/encodings.h"

namespace ll {
namespace {

engine::EngineOptions
optionsFor(const sim::GpuSpec &spec, bool synth,
           service::PlanCache *cache = nullptr)
{
    engine::EngineOptions eo;
    eo.spec = spec;
    eo.planCache = cache;
    eo.synthesizeLayouts = synth;
    return eo;
}

// The factoring pin (ISSUE satellite): the engine's anchor and dot
// layout constructors must be the synth candidate constructors, not a
// copy that can drift. Checked against an independent spelling of the
// default blocked construction too.
TEST(SynthCandidates, DefaultAnchorMatchesEngine)
{
    const sim::GpuSpec specs[] = {sim::GpuSpec::gh200(),
                                  sim::GpuSpec::rtx4090(),
                                  sim::GpuSpec::mi250()};
    const ir::DType dtypes[] = {ir::DType::F16, ir::DType::F32,
                                ir::DType::I8};
    const ir::Shape shapes[] = {{32, 64}, {16, 128}, {128}};
    for (const auto &spec : specs) {
        for (int numWarps : {4, 8}) {
            engine::LayoutEngine eng(
                engine::EngineOptions{spec, numWarps});
            for (auto dtype : dtypes) {
                for (const auto &shape : shapes) {
                    ir::TensorType type{dtype, shape};
                    LinearLayout viaSynth = synth::defaultMemoryAnchor(
                        type, spec, numWarps);
                    EXPECT_EQ(eng.anchorForMemory(type), viaSynth);
                    int vec =
                        std::max(1, 128 / ir::bitWidth(dtype));
                    auto enc = triton::BlockedEncoding::makeDefault(
                        shape, numWarps, spec.warpSize, vec);
                    EXPECT_EQ(viaSynth, enc.toLinearLayout(shape));
                }
            }
        }
    }
}

TEST(SynthCandidates, DotLayoutsMatchEngine)
{
    const sim::GpuSpec specs[] = {sim::GpuSpec::gh200(),
                                  sim::GpuSpec::rtx4090(),
                                  sim::GpuSpec::mi250()};
    ir::TensorType acc{ir::DType::F32, {64, 64}};
    ir::TensorType a{ir::DType::F16, {64, 32}};
    ir::TensorType b{ir::DType::F16, {32, 64}};
    for (const auto &spec : specs) {
        engine::LayoutEngine eng(engine::EngineOptions{spec, 4});
        EXPECT_EQ(eng.dotResultLayout(acc, 16),
                  synth::dotResultLayout(acc, 16, spec, 4));
        EXPECT_EQ(eng.dotOperandLayout(a, acc, 0, 16),
                  synth::dotOperandLayout(a, acc, 0, 16, spec, 4));
        EXPECT_EQ(eng.dotOperandLayout(b, acc, 1, 16),
                  synth::dotOperandLayout(b, acc, 1, 16, spec, 4));
    }
}

TEST(SynthCandidates, DefaultIsFirstAndDeduped)
{
    auto spec = sim::GpuSpec::gh200();
    for (auto f : {kernels::gemm(64), kernels::flexAttention(64),
                   kernels::embedding(128)}) {
        auto prop = synth::propagationMap(f, spec, 4);
        auto anchors = synth::anchorValues(f);
        ASSERT_FALSE(anchors.empty());
        for (int anchor : anchors) {
            auto cands =
                synth::anchorCandidates(f, anchor, prop, spec, 4, 6);
            ASSERT_FALSE(cands.empty());
            EXPECT_LE(static_cast<int>(cands.size()), 6);
            EXPECT_EQ(cands[0].provenance, "default");
            EXPECT_EQ(cands[0].layout,
                      synth::defaultMemoryAnchor(
                          f.value(anchor).type, spec, 4));
            for (size_t i = 0; i < cands.size(); ++i) {
                for (size_t j = i + 1; j < cands.size(); ++j) {
                    EXPECT_FALSE(cands[i].layout == cands[j].layout)
                        << "anchor " << anchor << " candidates " << i
                        << " and " << j << " are duplicates";
                }
            }
        }
    }
}

// The never-lose invariant of the search itself: whatever the beam
// does, the all-defaults assignment is among the ranked finalists.
TEST(SynthSearch, DefaultAssignmentAlwaysRanked)
{
    auto spec = sim::GpuSpec::gh200();
    for (int beamWidth : {1, 8}) {
        for (auto f : {kernels::gemm(64), kernels::embedding(128),
                       kernels::flexAttention(64)}) {
            synth::SynthOptions so;
            so.beamWidth = beamWidth;
            auto result = synth::synthesizeAnchors(f, spec, 4, so);
            ASSERT_GE(result.defaultRank, 0);
            ASSERT_LT(result.defaultRank,
                      static_cast<int>(result.ranked.size()));
            const auto &def = result.ranked[result.defaultRank];
            for (int c : def.choice)
                EXPECT_EQ(c, 0);
        }
    }
}

// The search is plan-only: pricing the fig9 suite on GH200 smoke-runs
// no shared round trip and neither reads nor fills the plan cache it
// is handed. A kernel counts as compared when its search planned at
// least one shared-memory conversion, the kind a smoke run executes.
TEST(SynthSearch, PricesEdgesFromPlansAlone)
{
    const auto spec = sim::GpuSpec::gh200();
    service::PlanCache cache;
    synth::SynthOptions opt;
    opt.planCache = &cache;
    auto &registry = metrics::Registry::instance();
    int compared = 0;
    for (const auto &k : kernels::allKernels()) {
        for (int32_t size : k.sizes) {
            ir::Function f = k.build(size);
            const auto before = registry.counterSnapshot();
            synth::synthesizeAnchors(f, spec, 4, opt);
            const auto delta = registry.counterDelta(before);
            for (const auto &[name, moved] : delta) {
                if (name == "exec.shared.runs" ||
                    name.rfind("service.plan_cache.", 0) == 0) {
                    EXPECT_EQ(moved, 0)
                        << name << " moved while searching " << k.name
                        << "(" << size << ")";
                }
            }
            EXPECT_EQ(cache.size(), 0) << k.name << "(" << size << ")";
            auto shared = delta.find("plan.kind.shared-memory");
            if (shared != delta.end() && shared->second > 0)
                ++compared;
        }
    }
    std::cout << "searches that planned a shared conversion: "
              << compared << "\n";
    EXPECT_GT(compared, 0) << "no search planned a shared conversion";
}

TEST(SynthSearch, ExhaustiveSmallGraphIsSortedByCost)
{
    ir::Function f("tiny");
    int a = f.load({ir::DType::F16, {32, 64}}, "a");
    int b = f.load({ir::DType::F32, {32, 64}}, "b");
    f.store(f.elementwise({a, b}, ir::DType::F32, "add"), "out");

    auto spec = sim::GpuSpec::gh200();
    synth::SynthOptions so;
    so.exhaustiveLimit = 10000;
    auto result = synth::synthesizeAnchors(f, spec, 4, so);
    EXPECT_TRUE(result.exhaustive);
    ASSERT_EQ(result.anchors.size(), 2u);
    ASSERT_FALSE(result.ranked.empty());
    for (size_t i = 1; i < result.ranked.size(); ++i)
        EXPECT_LE(result.ranked[i - 1].cost, result.ranked[i].cost);
    EXPECT_GE(result.defaultRank, 0);
}

// The ISSUE's acceptance guarantee, enforced per kernel with the true
// cost model: synthesis never prices worse than the propagation-only
// engine on any fig9 kernel, never keeps more conversions, and
// eliminates at least one conversion somewhere in the suite.
TEST(SynthEngine, NeverWorseOnFig9)
{
    auto spec = sim::GpuSpec::gh200();
    service::PlanCache cache;
    int totalSynthEliminated = 0;
    for (const auto &k : kernels::allKernels()) {
        for (int32_t size : k.sizes) {
            ir::Function off = k.build(size);
            ir::Function on = k.build(size);
            engine::LayoutEngine offEng(
                optionsFor(spec, false, &cache));
            engine::LayoutEngine onEng(optionsFor(spec, true, &cache));
            auto offStats = offEng.run(off);
            auto onStats = onEng.run(on);
            double offCycles =
                engine::estimateKernelCost(off, spec).cycles;
            double onCycles =
                engine::estimateKernelCost(on, spec).cycles;
            EXPECT_LE(onCycles, offCycles + 1e-6)
                << k.name << "(" << size << ") priced worse with "
                << "synthesis on";
            EXPECT_GE(onStats.convertsEliminated,
                      offStats.convertsEliminated)
                << k.name << "(" << size << ")";
            EXPECT_EQ(onStats.synthConvertsEliminated,
                      onStats.convertsEliminated -
                          offStats.convertsEliminated)
                << k.name << "(" << size << ") partition broken";
            totalSynthEliminated += onStats.synthConvertsEliminated;
        }
    }
    EXPECT_GE(totalSynthEliminated, 1)
        << "synthesis eliminated nothing anywhere in the fig9 suite";
}

// Synth off must stay bit-identical to the historical engine: same
// layouts, and no synth stats.
TEST(SynthEngine, OffIsBitIdentical)
{
    auto spec = sim::GpuSpec::gh200();
    ir::Function plain = kernels::templateAttention(64);
    ir::Function gated = kernels::templateAttention(64);
    engine::LayoutEngine plainEng(engine::EngineOptions{spec, 4});
    auto stats = plainEng.run(plain);
    engine::LayoutEngine gatedEng(optionsFor(spec, false));
    auto gatedStats = gatedEng.run(gated);
    EXPECT_EQ(stats.synthAssignmentsEvaluated, 0);
    EXPECT_EQ(gatedStats.synthAssignmentsEvaluated, 0);
    EXPECT_EQ(gatedStats.synthConvertsEliminated, 0);
    ASSERT_EQ(plain.numValues(), gated.numValues());
    for (int v = 0; v < plain.numValues(); ++v) {
        const auto &a = plain.value(v).layout;
        const auto &b = gated.value(v).layout;
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
            EXPECT_EQ(*a, *b) << "value " << v;
        }
    }
}

// Serialize everything observable about one synthesized run: every
// value layout, plus the describePlan digest of every surviving
// conversion (re-planned deterministically from the endpoints).
std::string
runDigest(ir::Function f, const sim::GpuSpec &spec,
          service::PlanCache *cache)
{
    engine::LayoutEngine eng(
        optionsFor(spec, true, cache));
    eng.run(f);
    std::string digest;
    for (int v = 0; v < f.numValues(); ++v) {
        if (f.value(v).layout)
            digest += f.value(v).layout->toString() + "\n";
    }
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased || o.kind != ir::OpKind::ConvertLayout)
            continue;
        const auto &src = *f.value(o.operands[0]).layout;
        const auto &dst = *f.value(o.results[0]).layout;
        auto plan = codegen::tryPlanConversion(
            src, dst.transposeOuts(src.getOutDimNames()),
            ir::byteWidth(f.value(o.results[0]).type.dtype), spec);
        digest += plan.ok() ? codegen::describePlan(*plan)
                            : "unplanned";
        digest += "\n";
    }
    return digest;
}

// Eight engines race on the same shared plan cache; the chosen
// assignment and every conversion plan must be identical on all
// threads (this is the tsan target for the subsystem).
TEST(SynthEngine, DeterministicAcrossThreads)
{
    auto spec = sim::GpuSpec::gh200();
    service::PlanCache cache;
    for (auto build : {+[] { return kernels::templateAttention(64); },
                       +[] { return kernels::embedding(128); }}) {
        std::vector<std::string> digests(8);
        std::vector<std::thread> threads;
        for (int t = 0; t < 8; ++t) {
            threads.emplace_back([&, t] {
                digests[t] = runDigest(build(), spec, &cache);
            });
        }
        for (auto &th : threads)
            th.join();
        for (int t = 1; t < 8; ++t)
            EXPECT_EQ(digests[0], digests[t]) << "thread " << t;
    }
}

// A one-shot exec fault must reach a conversion the run ships. The
// search smoke-runs nothing, so on every fig9 GH200 kernel that ships a
// convert:shared-memory op the fault is consumed by planConversions'
// smoke run and demotes exactly one shipped conversion.
TEST(SynthEngine, OneShotExecFaultReachesShippedConversion)
{
    const auto spec = sim::GpuSpec::gh200();
    int kernelsChecked = 0;
    for (const auto &k : kernels::allKernels()) {
        const int32_t size = k.sizes[0];
        ir::Function healthy = k.build(size);
        engine::LayoutEngine(optionsFor(spec, true)).run(healthy);
        bool shipsShared = false;
        for (int i = 0; i < healthy.numOps(); ++i)
            shipsShared |= !healthy.op(i).erased &&
                           healthy.op(i).tag == "convert:shared-memory";
        if (!shipsShared)
            continue;

        service::PlanCache cache;
        ir::Function f = k.build(size);
        engine::EngineStats stats;
        {
            failpoint::Scoped fault("exec.shared.file-size", 1);
            stats = engine::LayoutEngine(optionsFor(spec, true, &cache))
                        .run(f);
        }
        EXPECT_EQ(stats.execFallbacks, 1)
            << k.name << "(" << size << "): the fault did not reach a "
            << "shipped conversion";
        ++kernelsChecked;
    }
    std::cout << "kernels shipping a shared conversion: "
              << kernelsChecked << "\n";
    EXPECT_GT(kernelsChecked, 0)
        << "no fig9 kernel ships a convert:shared-memory op";
}

// Every conversion a synthesized run leaves behind must still pass the
// end-to-end tagged-buffer oracle (with the engine-style demotion
// loop) — synthesized layouts get no trust the default ones don't.
TEST(SynthEngine, SynthesizedPlansOracleVerify)
{
    auto spec = sim::GpuSpec::gh200();
    int audited = 0;
    for (auto f :
         {kernels::gemm(64), kernels::flexAttention(64),
          kernels::embedding(128), kernels::gatherGemv(128),
          kernels::bf16xint16Gemm(64)}) {
        engine::LayoutEngine eng(optionsFor(spec, true));
        eng.run(f);
        for (int i = 0; i < f.numOps(); ++i) {
            const ir::Op &o = f.op(i);
            if (o.erased || o.kind != ir::OpKind::ConvertLayout)
                continue;
            const auto &src = *f.value(o.operands[0]).layout;
            const auto &dst = *f.value(o.results[0]).layout;
            check::ConversionCase cc;
            cc.src = src;
            cc.dst = dst.transposeOuts(src.getOutDimNames());
            cc.elemBytes =
                ir::byteWidth(f.value(o.results[0]).type.dtype);
            cc.specName = "gh200";
            cc.summary = f.name() + " op " + std::to_string(i);
            auto dr = check::checkCaseWithDemotion(cc);
            EXPECT_TRUE(dr.survived) << cc.summary;
            EXPECT_TRUE(dr.report.ok())
                << cc.summary << ": " << dr.report.detail;
            ++audited;
        }
    }
    EXPECT_GE(audited, 1) << "no conversions survived to audit";
}

} // namespace
} // namespace ll
