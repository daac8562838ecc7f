#include "engine/layout_engine.h"

#include <algorithm>
#include <map>
#include <optional>

#include "codegen/conversion.h"
#include "codegen/shuffle.h"
#include "engine/cost_model.h"
#include "engine/shape_transfer.h"
#include "layout/dims.h"
#include "service/conversion_service.h"
#include "service/cute_service.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "triton/encodings.h"

namespace ll {
namespace engine {

namespace {

using ir::OpKind;

/** Safe no-op test: layouts with different spaces simply are not. */
bool
isNoOpConversion(const LinearLayout &have, const LinearLayout &want)
{
    try {
        return codegen::conversionIsNoOp(
            have, want.transposeOuts(have.getOutDimNames()));
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

// The anchor and MMA layout constructors live in synth/candidates.cpp
// now — they double as candidate index 0 of the synthesis search, and
// delegating keeps "the engine's default" and "the search's default"
// one piece of code (synth_test pins the equality).

LinearLayout
LayoutEngine::anchorForMemory(const ir::TensorType &type) const
{
    return synth::defaultMemoryAnchor(type, options_.spec,
                                      options_.numWarps);
}

LinearLayout
LayoutEngine::dotResultLayout(const ir::TensorType &accType,
                              int operandBits) const
{
    return synth::dotResultLayout(accType, operandBits, options_.spec,
                                  options_.numWarps);
}

LinearLayout
LayoutEngine::dotOperandLayout(const ir::TensorType &operandType,
                               const ir::TensorType &accType, int opIdx,
                               int operandBits) const
{
    return synth::dotOperandLayout(operandType, accType, opIdx,
                                   operandBits, options_.spec,
                                   options_.numWarps);
}

Result<cute::CutePlan>
LayoutEngine::planCuteConversion(const cute::CuteLayout &src,
                                 const cute::CuteLayout &dst,
                                 int elemBytes) const
{
    cute::CuteConversionRequest req;
    req.src = src;
    req.dst = dst;
    req.elemBytes = elemBytes;
    req.numWarps = options_.numWarps;
    auto outcome = service::serveCuteConversion(options_.planCache, req,
                                                options_.spec);
    if (outcome.planned())
        return std::move(*outcome.plan);
    return makeDiag(outcome.execFailed ? DiagCode::ExecutionFailed
                                       : DiagCode::InvalidInput,
                    "engine.cute", outcome.error);
}

void
LayoutEngine::ensureOperand(ir::Function &f, int opIdx, size_t slot,
                            const LinearLayout &want, EngineStats &stats)
{
    int v = f.op(opIdx).operands[slot];
    const auto &have = f.value(v).layout;
    llAssert(have.has_value(), "operand has no layout yet");
    if (isNoOpConversion(*have, want))
        return;
    int nv = f.convertLayout(v, want);
    f.op(opIdx).operands[slot] = nv;
    ++stats.convertsInserted;
}

void
LayoutEngine::assignForward(ir::Function &f, EngineStats &stats,
                            const std::map<int, LinearLayout>
                                *anchorOverrides)
{
    trace::Span phase("engine.assign", "engine");
    const int numOps = f.numOps();
    for (int i = 0; i < numOps; ++i) {
        // Work on a copy: inserting ConvertLayout ops reallocates the
        // function's op and value storage, so references into it would
        // dangle across ensureOperand calls.
        ir::Op o = f.op(i);
        if (o.erased || o.kind == OpKind::ConvertLayout)
            continue;
        auto layoutOf = [&](size_t slot) -> LinearLayout {
            const auto &l = f.value(f.op(i).operands[slot]).layout;
            llAssert(l.has_value(), "missing operand layout");
            return *l;
        };
        // Shape-transfer functions are not allowed to sink the engine:
        // if one throws (or the "engine.transfer" failpoint fires), the
        // result value falls back to its anchor layout and downstream
        // conversions absorb the difference.
        auto setTransfer = [&](int value, auto &&fn) {
            if (!LL_FAILPOINT("engine.transfer")) {
                try {
                    f.value(value).layout = fn();
                    return;
                } catch (const std::exception &e) {
                    stats.planDiagnostics.push_back(
                        "op " + std::to_string(i) +
                        ": shape transfer failed, using the anchor "
                        "layout: " +
                        e.what());
                }
            } else {
                stats.planDiagnostics.push_back(
                    "op " + std::to_string(i) +
                    ": failpoint engine.transfer forced the anchor "
                    "layout");
            }
            ++stats.transferFallbacks;
            f.value(value).layout = anchorForMemory(f.value(value).type);
        };
        switch (o.kind) {
          case OpKind::Load:
          case OpKind::Constant: {
            const int rv = o.results[0];
            if (anchorOverrides != nullptr) {
                auto it = anchorOverrides->find(rv);
                if (it != anchorOverrides->end()) {
                    f.value(rv).layout = it->second;
                    break;
                }
            }
            f.value(rv).layout = anchorForMemory(f.value(rv).type);
            break;
          }
          case OpKind::Store:
            break; // any layout can be stored
          case OpKind::Elementwise: {
            LinearLayout want = layoutOf(0);
            for (size_t s = 1; s < o.operands.size(); ++s)
                ensureOperand(f, i, s, want, stats);
            f.value(o.results[0]).layout = want;
            break;
          }
          case OpKind::Dot: {
            const auto ta = f.value(o.operands[0]).type;
            const auto tb = f.value(o.operands[1]).type;
            const auto tacc = f.value(o.results[0]).type;
            int bits = std::max(bitWidth(ta.dtype), bitWidth(tb.dtype));
            if (bits > 32) {
                // No tensor-core path: FMA dot on blocked layouts.
                f.op(i).tag = o.tag.empty() ? "fma" : o.tag + "/fma";
                f.value(o.results[0]).layout = anchorForMemory(tacc);
                break;
            }
            ensureOperand(f, i, 0,
                          dotOperandLayout(ta, tacc, 0, bits), stats);
            ensureOperand(f, i, 1,
                          dotOperandLayout(tb, tacc, 1, bits), stats);
            f.value(o.results[0]).layout = dotResultLayout(tacc, bits);
            break;
          }
          case OpKind::Reduce:
            setTransfer(o.results[0],
                        [&] { return reduceTransfer(layoutOf(0), o.axis); });
            break;
          case OpKind::Trans:
            setTransfer(o.results[0],
                        [&] { return transTransfer(layoutOf(0), o.order); });
            break;
          case OpKind::Reshape:
            setTransfer(o.results[0], [&] {
                return reshapeTransfer(layoutOf(0),
                                       f.value(o.results[0]).type.shape);
            });
            break;
          case OpKind::ExpandDims:
            setTransfer(o.results[0], [&] {
                return expandDimsTransfer(layoutOf(0), o.axis);
            });
            break;
          case OpKind::Broadcast:
            setTransfer(o.results[0], [&] {
                return broadcastTransfer(
                    layoutOf(0), f.value(o.results[0]).type.shape);
            });
            break;
          case OpKind::Join: {
            LinearLayout want = layoutOf(0);
            ensureOperand(f, i, 1, want, stats);
            setTransfer(o.results[0], [&] { return joinTransfer(want); });
            break;
          }
          case OpKind::Split: {
            setTransfer(o.results[0],
                        [&] { return splitTransfer(layoutOf(0)); });
            f.value(o.results[1]).layout = f.value(o.results[0]).layout;
            break;
          }
          case OpKind::Gather: {
            LinearLayout want = layoutOf(0);
            ensureOperand(f, i, 1, want, stats);
            f.value(o.results[0]).layout = want;
            break;
          }
          case OpKind::Scan:
            // Scans are layout-preserving; the lowering (shuffles or
            // shared memory) is a cost-model concern.
            f.value(o.results[0]).layout = layoutOf(0);
            break;
          case OpKind::ConvertLayout:
            break;
        }
    }
}

void
LayoutEngine::cleanup(ir::Function &f, EngineStats &stats)
{
    trace::Span phase("engine.cleanup", "engine");
    bool changed = true;
    while (changed) {
        changed = false;
        for (int i = 0; i < f.numOps(); ++i) {
            ir::Op &o = f.op(i);
            if (o.erased || o.kind != OpKind::ConvertLayout)
                continue;
            int srcV = o.operands[0];
            int dstV = o.results[0];

            // Collapse chains: convert(convert(x)) -> convert(x).
            const ir::Value &src = f.value(srcV);
            if (src.defOp >= 0 &&
                f.op(src.defOp).kind == OpKind::ConvertLayout &&
                !f.op(src.defOp).erased) {
                o.operands[0] = f.op(src.defOp).operands[0];
                changed = true;
                continue;
            }

            // Hoist through broadcast: if the wanted layout projected
            // onto the pre-broadcast (size-1) dims is already the
            // input's layout, the broadcast can produce the wanted
            // layout directly — a classic rematerialization the legacy
            // system could not prove safe. Only when this convert is
            // the sole consumer of the broadcast.
            if (src.defOp >= 0 &&
                f.op(src.defOp).kind == OpKind::Broadcast &&
                !f.op(src.defOp).erased) {
                int uses = 0;
                for (int j = 0; j < f.numOps(); ++j) {
                    if (f.op(j).erased)
                        continue;
                    for (int use : f.op(j).operands)
                        uses += use == srcV;
                }
                const ir::Op &bop = f.op(src.defOp);
                int x = bop.operands[0];
                const auto &xLayout = f.value(x).layout;
                const auto &wantBL = f.value(dstV).layout;
                if (uses == 1 && xLayout && wantBL &&
                    f.value(srcV).layout != wantBL) {
                    LinearLayout proj = projectToUnitDims(
                        *wantBL, f.value(x).type.shape);
                    if (isNoOpConversion(*xLayout, proj)) {
                        f.value(srcV).layout = *wantBL;
                        changed = true;
                        continue; // no-op rule fires on a later sweep
                    }
                }
            }

            // No-op conversions: rewire every use and tombstone.
            const auto &haveL = f.value(o.operands[0]).layout;
            const auto &wantL = f.value(dstV).layout;
            if (haveL && wantL && isNoOpConversion(*haveL, *wantL)) {
                for (int j = 0; j < f.numOps(); ++j) {
                    if (j == i || f.op(j).erased)
                        continue;
                    for (int &use : f.op(j).operands) {
                        if (use == dstV)
                            use = o.operands[0];
                    }
                }
                o.erased = true;
                ++stats.convertsEliminated;
                changed = true;
            }
        }

        // Dead converts (results never used).
        for (int i = 0; i < f.numOps(); ++i) {
            ir::Op &o = f.op(i);
            if (o.erased || o.kind != OpKind::ConvertLayout)
                continue;
            int dstV = o.results[0];
            bool used = false;
            for (int j = 0; j < f.numOps() && !used; ++j) {
                if (f.op(j).erased || j == i)
                    continue;
                for (int use : f.op(j).operands)
                    used = used || use == dstV;
            }
            if (!used) {
                o.erased = true;
                ++stats.convertsEliminated;
                changed = true;
            }
        }
    }
}

void
LayoutEngine::planConversions(ir::Function &f, EngineStats &stats)
{
    trace::Span phase("engine.plan-conversions", "engine");
    // Every op goes through service::serveConversion. Without a shared
    // cache the run keeps its own, over a private interner, so a
    // conversion repeated within the run is planned and smoke-executed
    // once; the cache's failpoint/deadline insert policy still applies.
    const bool sharedCache = options_.planCache != nullptr;
    service::PlanCache *cache = options_.planCache;
    std::optional<service::LayoutInterner> runInterner;
    std::optional<service::PlanCache> runCache;
    if (!sharedCache) {
        service::PlanCache::Config config;
        config.interner = &runInterner.emplace();
        cache = &runCache.emplace(config);
    }
    for (int i = 0; i < f.numOps(); ++i) {
        ir::Op &o = f.op(i);
        if (o.erased || o.kind != OpKind::ConvertLayout)
            continue;
        trace::Span opSpan("convert.op", "engine");
        opSpan.arg("op", i);
        const std::string opName = "op " + std::to_string(i);
        const auto &have = f.value(o.operands[0]).layout;
        const auto &want = f.value(o.results[0]).layout;
        if (!have || !want) {
            o.tag = ir::kUnplannedConvertTag;
            ++stats.planFailures;
            stats.planDiagnostics.push_back(
                opName + ": conversion endpoint is missing a layout");
            opSpan.arg("outcome", "unplanned");
            continue;
        }
        const auto &type = f.value(o.results[0]).type;
        int elemBytes = std::max(1, bitWidth(type.dtype) / 8);
        LinearLayout dst = want->transposeOuts(have->getOutDimNames());

        const auto outcome = service::serveConversion(
            cache, *have, dst, elemBytes, options_.spec);
        if (sharedCache) {
            if (!outcome.fromCache)
                ++stats.planCacheMisses;
            else if (outcome.cachedRejection)
                ++stats.planCacheNegativeHits;
            else
                ++stats.planCacheHits;
            if (outcome.fromCache)
                opSpan.arg("plan_cache", outcome.cachedRejection
                                             ? "negative-hit"
                                             : "hit");
        }
        for (const auto &note : outcome.notes)
            stats.planDiagnostics.push_back(opName + ": " + note);
        stats.execFallbacks += outcome.demotions;

        if (outcome.execFailed) {
            o.tag = ir::kUnplannedConvertTag;
            ++stats.execFailures;
            opSpan.arg("outcome", "exec-failure");
            continue;
        }
        if (!outcome.plan) {
            o.tag = ir::kUnplannedConvertTag;
            ++stats.planFailures;
            stats.planDiagnostics.push_back(
                opName + (outcome.cachedRejection ? " (plan-cache): "
                                                  : ": ") +
                outcome.error);
            opSpan.arg("outcome", "unplanned");
            continue;
        }

        const codegen::ConversionPlan &plan = *outcome.plan;
        o.plan = outcome.plan;
        o.tag = "convert:" + codegen::toString(plan.kind);
        ++stats.convertsPlanned;
        if (opSpan.active()) {
            opSpan.arg("outcome", o.tag);
            opSpan.arg("demotions", outcome.demotions);
        }
        if (!plan.diagnostics.empty()) {
            ++stats.planFallbacks;
            stats.planDiagnostics.push_back(opName + " (" + o.tag +
                                            "): " +
                                            plan.diagnostics.toString());
        }
    }
}

std::map<int, LinearLayout>
LayoutEngine::synthesizeAssignment(const ir::Function &f,
                                   EngineStats &stats)
{
    trace::Span span("synth.run", "synth");
    if (span.active())
        span.arg("function", f.name());
    synth::SynthResult sr;
    try {
        sr = synth::synthesizeAnchors(f, options_.spec, options_.numWarps,
                                      options_.synthOptions);
    } catch (const std::exception &e) {
        // Synthesis is an optimization, never a failure mode: anything
        // it cannot handle falls back to the default assignment.
        stats.planDiagnostics.push_back(
            std::string("synthesis failed, using the default "
                        "assignment: ") +
            e.what());
        metrics::counter("synth.search_failures").inc();
        return {};
    }
    if (sr.anchors.empty() || sr.ranked.empty())
        return {};

    auto overridesFor = [&](const synth::SynthAssignment &a) {
        std::map<int, LinearLayout> m;
        for (size_t i = 0; i < sr.anchors.size(); ++i) {
            if (a.choice[i] == 0)
                continue; // index 0 is the default anchor
            m.emplace(sr.anchors[i],
                      sr.candidates[i][static_cast<size_t>(a.choice[i])]
                          .layout);
        }
        return m;
    };

    // Reprice the finalists with the true pipeline: a trial
    // assignment + cleanup on a copy is exactly what the real run
    // produces, and the cost model plans the copy's conversions the way
    // planConversions would (they differ only if a smoke failure
    // demotes a plan), so the cost comparison below is exact, not a
    // guide estimate — the never-worse guarantee rests on it.
    struct Eval
    {
        double cycles = 0.0;
        int surviving = 0;
    };
    auto evaluate = [&](const synth::SynthAssignment &a) -> Eval {
        trace::Span evalSpan("synth.evaluate", "synth");
        ir::Function copy = f;
        EngineStats trial;
        auto overrides = overridesFor(a);
        assignForward(copy, trial,
                      overrides.empty() ? nullptr : &overrides);
        cleanup(copy, trial);
        auto cost = estimateKernelCost(copy, options_.spec,
                                       options_.numWarps);
        if (evalSpan.active()) {
            evalSpan.arg("cycles", static_cast<int>(cost.cycles));
            evalSpan.arg("converts", cost.converts);
        }
        return {cost.cycles,
                trial.convertsInserted - trial.convertsEliminated};
    };

    Eval best;
    int bestRank = -1; // -1 = the default assignment
    Eval defaultEval;
    int evaluated = 0;
    try {
        defaultEval = evaluate(sr.ranked[static_cast<size_t>(
            sr.defaultRank)]);
        ++evaluated;
        best = defaultEval;
        for (size_t r = 0; r < sr.ranked.size(); ++r) {
            if (static_cast<int>(r) == sr.defaultRank)
                continue;
            Eval e = evaluate(sr.ranked[r]);
            ++evaluated;
            if (e.cycles < best.cycles) { // strict: ties keep the default
                best = e;
                bestRank = static_cast<int>(r);
            }
        }
    } catch (const std::exception &e) {
        stats.planDiagnostics.push_back(
            std::string("synthesis repricing failed, using the default "
                        "assignment: ") +
            e.what());
        metrics::counter("synth.search_failures").inc();
        return {};
    }
    stats.synthAssignmentsEvaluated = evaluated;
    if (span.active()) {
        span.arg("evaluated", evaluated);
        span.arg("exhaustive", sr.exhaustive ? 1 : 0);
        span.arg("chose", bestRank < 0 ? "default" : "synthesized");
    }
    if (bestRank < 0)
        return {};
    stats.synthChoseSynthesized = 1;
    stats.synthConvertsEliminated =
        std::max(0, defaultEval.surviving - best.surviving);
    return overridesFor(sr.ranked[static_cast<size_t>(bestRank)]);
}

EngineStats
LayoutEngine::run(ir::Function &f)
{
    trace::Span span("engine.run", "engine");
    if (span.active())
        span.arg("function", f.name());
    const auto before = metrics::Registry::instance().counterSnapshot();

    EngineStats stats;
    // Plans and rejections recorded by an earlier run describe the old
    // layouts; neither synthesis's trial copies nor this run may price
    // them.
    for (int i = 0; i < f.numOps(); ++i) {
        ir::Op &o = f.op(i);
        o.plan.reset();
        if (o.kind == OpKind::ConvertLayout &&
            o.tag == ir::kUnplannedConvertTag)
            o.tag.clear();
    }
    std::map<int, LinearLayout> anchorOverrides;
    if (options_.synthesizeLayouts)
        anchorOverrides = synthesizeAssignment(f, stats);
    assignForward(f, stats,
                  anchorOverrides.empty() ? nullptr : &anchorOverrides);
    cleanup(f, stats);
    // Conversions the synthesized assignment avoided count as
    // eliminated too: the headline counter keeps meaning "conversions
    // the default path would have kept that this run does not", with
    // the synth share still visible via synth.converts_eliminated.
    stats.convertsEliminated += stats.synthConvertsEliminated;
    planConversions(f, stats);
    f.verify();

    // Mirror the struct counters into the registry (the struct fields
    // stay the primary API; the registry feeds llstat / bench JSON).
    auto mirror = [](const char *name, int value) {
        if (value != 0)
            metrics::counter(name).add(value);
    };
    mirror("engine.converts_inserted", stats.convertsInserted);
    mirror("engine.converts_eliminated", stats.convertsEliminated);
    mirror("engine.converts_planned", stats.convertsPlanned);
    mirror("engine.plan_fallbacks", stats.planFallbacks);
    mirror("engine.plan_failures", stats.planFailures);
    mirror("engine.transfer_fallbacks", stats.transferFallbacks);
    mirror("engine.exec_failures", stats.execFailures);
    mirror("engine.exec_fallbacks", stats.execFallbacks);
    mirror("engine.plan_cache_hits", stats.planCacheHits);
    mirror("engine.plan_cache_negative_hits",
           stats.planCacheNegativeHits);
    mirror("engine.plan_cache_misses", stats.planCacheMisses);
    mirror("synth.converts_eliminated", stats.synthConvertsEliminated);
    mirror("synth.assignments_evaluated",
           stats.synthAssignmentsEvaluated);
    mirror("synth.chose_synthesized", stats.synthChoseSynthesized);
    if (options_.synthesizeLayouts)
        metrics::counter("synth.runs").inc();
    static auto &runsC = metrics::counter("engine.runs");
    runsC.inc();
    // The per-run metric delta: every registry counter that moved while
    // this run was underway, on any thread.
    stats.metrics = metrics::Registry::instance().counterDelta(before);
    if (span.active()) {
        span.arg("converts_planned", stats.convertsPlanned);
        span.arg("converts_eliminated", stats.convertsEliminated);
        span.arg("exec_fallbacks", stats.execFallbacks);
    }
    return stats;
}

} // namespace engine
} // namespace ll
