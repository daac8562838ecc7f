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
 *     end-to-end tagged-buffer oracle;
 *   - a synthesized run ships its winning trial, and its search, its
 *     trials and its shipped pass plan through one cache, so a compile
 *     plans each distinct conversion once, with or without a shared
 *     cache, and a second compile on a warm shared cache plans nothing;
 *   - the search prices edges from their plans alone: it smoke-runs
 *     nothing and publishes every plan to the cache it is handed, and
 *     neither does the engine execute a plan.
 */

#include <cstdint>
#include <iostream>
#include <map>
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

/** How far counter `name` moved in a registry delta. */
int64_t
moved(const std::map<std::string, int64_t> &delta, const std::string &name)
{
    auto it = delta.find(name);
    return it == delta.end() ? 0 : it->second;
}

// The search is plan-only and plans through the cache it is handed:
// pricing the fig9 suite on GH200 smoke-runs no shared round trip,
// inserts every plan it makes into the cache, and a second search over
// that cache plans nothing. A kernel counts as compared when its first
// search planned at least one shared-memory conversion, the kind a
// smoke run executes.
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
            const std::string what =
                k.name + "(" + std::to_string(size) + ")";
            ir::Function f = k.build(size);
            auto before = registry.counterSnapshot();
            synth::synthesizeAnchors(f, spec, 4, opt);
            const auto delta = registry.counterDelta(before);
            EXPECT_EQ(moved(delta, "exec.shared.runs"), 0) << what;
            EXPECT_EQ(moved(delta, "service.plan_cache.inserts"),
                      moved(delta, "plan.planned"))
                << what << ": the search planned outside its cache";
            if (moved(delta, "plan.kind.shared-memory") > 0)
                ++compared;

            before = registry.counterSnapshot();
            synth::synthesizeAnchors(f, spec, 4, opt);
            EXPECT_EQ(moved(registry.counterDelta(before), "plan.planned"),
                      0)
                << what << ": a second search over the cache planned";
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

// Everything a compile shipped: every value layout, then the tag and
// attached plan digest of every surviving conversion.
std::string
shippedDigest(const ir::Function &f)
{
    std::string digest;
    for (int v = 0; v < f.numValues(); ++v) {
        if (f.value(v).layout)
            digest += f.value(v).layout->toString();
        digest += "\n";
    }
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased || o.kind != ir::OpKind::ConvertLayout)
            continue;
        digest += std::to_string(i) + " " + o.tag + ": " +
                  (o.plan ? codegen::describePlan(*o.plan) : "no plan") +
                  "\n";
    }
    return digest;
}

// A synthesized compile ships its winning trial. The search and the
// trials plan through the run's memo and the shipped pass is served
// from it, so with no shared cache a run plans each distinct
// (src, dst, elemBytes) pair its search prices or its trials convert
// once. The distinct pairs are counted as the entries of a memo the
// test hands to the same search and trials. Re-running assign, cleanup
// and planning after the trials (or planning inside the cost model)
// replans the winner's conversions and breaks the bound on every
// kernel whose winner keeps a conversion.
TEST(SynthEngine, ShipsTheWinningTrialPlanningEachPairOnce)
{
    const auto spec = sim::GpuSpec::gh200();
    const auto &planned = metrics::counter("plan.planned");
    const auto options = optionsFor(spec, true);
    int kernelsChecked = 0;
    for (const auto &k : kernels::allKernels()) {
        if (!kernels::runsOn(k, spec))
            continue;
        for (int32_t size : k.sizes) {
            const std::string what =
                k.name + "(" + std::to_string(size) + ")";
            service::LayoutInterner interner;
            service::PlanCache::Config config;
            config.interner = &interner;
            service::PlanCache memo(config);
            engine::EngineStats trialStats;
            auto winner = engine::LayoutEngine(options).synthesizeAssignment(
                k.build(size), memo, trialStats);
            ASSERT_TRUE(winner.has_value()) << what;
            if (winner->f.countOps(ir::OpKind::ConvertLayout) == 0)
                continue;

            ir::Function f = k.build(size);
            const int64_t before = planned.value();
            engine::LayoutEngine(options).run(f);
            EXPECT_LE(planned.value() - before, memo.size()) << what;
            EXPECT_EQ(shippedDigest(f), shippedDigest(winner->f)) << what;
            ++kernelsChecked;
        }
    }
    std::cout << "kernels whose winning trial keeps a conversion: "
              << kernelsChecked << "\n";
    EXPECT_GT(kernelsChecked, 0)
        << "no fig9 kernel's winning trial keeps a conversion";
}

// One plan cache per compile: the synthesis search, its trials and the
// shipped pass all plan through the run's cache — the shared cache
// when one is set, a private memo otherwise — so a compile plans each
// distinct conversion once either way, and a second compile on the
// now warm shared cache plans nothing. All three compiles ship the
// same layouts and plans.
TEST(SynthEngine, PlansEachPairOncePerCompile)
{
    const auto spec = sim::GpuSpec::gh200();
    const auto &planned = metrics::counter("plan.planned");
    int cases = 0;
    int64_t totalPlans = 0;
    for (const auto &k : kernels::allKernels()) {
        if (!kernels::runsOn(k, spec))
            continue;
        for (int32_t size : k.sizes) {
            const std::string what =
                k.name + "(" + std::to_string(size) + ")";
            // Compile through `cache` (nullptr: the run's private memo);
            // returns the shipped digest and counts the plans made.
            auto compile = [&](service::PlanCache *cache, int64_t &plans) {
                ir::Function f = k.build(size);
                const int64_t before = planned.value();
                engine::LayoutEngine(optionsFor(spec, true, cache)).run(f);
                plans = planned.value() - before;
                return shippedDigest(f);
            };
            service::PlanCache shared;
            int64_t privatePlans = 0, coldPlans = 0, warmPlans = 0;
            const std::string privateDigest = compile(nullptr, privatePlans);
            const std::string coldDigest = compile(&shared, coldPlans);
            const std::string warmDigest = compile(&shared, warmPlans);
            EXPECT_EQ(coldPlans, privatePlans)
                << what << ": a fresh shared cache planned a pair twice";
            EXPECT_EQ(warmPlans, 0)
                << what << ": a compile on a warm cache planned";
            EXPECT_EQ(coldDigest, privateDigest) << what;
            EXPECT_EQ(warmDigest, privateDigest) << what;
            totalPlans += privatePlans;
            ++cases;
        }
    }
    std::cout << "compiles checked: " << cases << ", plans made with no "
              << "shared cache: " << totalPlans << "\n";
    EXPECT_GT(totalPlans, 0) << "no compile planned a conversion";
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

// Every conversion a synthesized run leaves behind must still pass the
// end-to-end tagged-buffer oracle — synthesized layouts get no trust
// the default ones don't.
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
            auto report = check::checkConversionCase(cc);
            EXPECT_TRUE(report.ok())
                << cc.summary << ": " << report.detail;
            ++audited;
        }
    }
    EXPECT_GE(audited, 1) << "no conversions survived to audit";
}

} // namespace
} // namespace ll
