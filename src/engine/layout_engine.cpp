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

/** A counter name as a template argument, so each counter name gets
 *  its own function-local static in addToCounter. */
template <size_t N>
struct CounterName
{
    char text[N];
    constexpr CounterName(const char (&name)[N])
    {
        std::copy_n(name, N, text);
    }
};

/** Add a nonzero `value` to the registry counter `Name`. The counter
 *  is looked up once, on the first nonzero value, so a run takes no
 *  registry lock and a counter that never moves stays unregistered. */
template <CounterName Name>
void
addToCounter(int value)
{
    if (value == 0)
        return;
    static auto &counter = metrics::counter(Name.text);
    counter.add(value);
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
            const ir::DotWidth width = ir::dotWidth(f, o);
            if (width.fma) {
                f.op(i).tag = o.tag.empty() ? "fma" : o.tag + "/fma";
                f.value(o.results[0]).layout = anchorForMemory(tacc);
                break;
            }
            const int bits = width.operandBits;
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
LayoutEngine::planConversions(ir::Function &f, EngineStats &stats,
                              service::PlanCache &cache)
{
    trace::Span phase("engine.plan-conversions", "engine");
    // Every op goes through service::serveConversion, which ships the
    // plan tryPlanConversion returns. Only traffic on the shared cache
    // is counted; a private memo is not that cache.
    const bool sharedCache = &cache == options_.planCache;
    for (int i = 0; i < f.numOps(); ++i) {
        ir::Op &o = f.op(i);
        if (o.erased || o.kind != OpKind::ConvertLayout)
            continue;
        trace::Span opSpan("convert.op", "engine");
        opSpan.arg("op", i);
        // A plan left by a trial or an earlier run must not outlive a
        // failure here.
        o.plan.reset();
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
            &cache, *have, dst, elemBytes, options_.spec);
        if (sharedCache) {
            if (outcome.fromCache) {
                ++stats.planCacheHits;
                opSpan.arg("plan_cache", "hit");
            } else {
                ++stats.planCacheMisses;
            }
        }
        if (!outcome.plan) {
            o.tag = ir::kUnplannedConvertTag;
            ++stats.planFailures;
            stats.planDiagnostics.push_back(opName + ": " + outcome.error);
            opSpan.arg("outcome", "unplanned");
            continue;
        }

        const codegen::ConversionPlan &plan = *outcome.plan;
        o.plan = outcome.plan;
        o.tag = "convert:" + codegen::toString(plan.kind);
        ++stats.convertsPlanned;
        opSpan.arg("outcome", o.tag);
        if (!plan.diagnostics.empty()) {
            ++stats.planFallbacks;
            stats.planDiagnostics.push_back(opName + " (" + o.tag +
                                            "): " +
                                            plan.diagnostics.toString());
        }
    }
}

std::optional<LayoutEngine::Trial>
LayoutEngine::synthesizeAssignment(const ir::Function &f,
                                   service::PlanCache &cache,
                                   EngineStats &stats)
{
    trace::Span span("synth.run", "synth");
    if (span.active())
        span.arg("function", f.name());
    synth::SynthOptions searchOptions = options_.synthOptions;
    searchOptions.planCache = &cache;
    synth::SynthResult sr;
    try {
        sr = synth::synthesizeAnchors(f, options_.spec, options_.numWarps,
                                      searchOptions);
    } catch (const std::exception &e) {
        // Synthesis is an optimization, never a failure mode: anything
        // it cannot handle falls back to the default assignment.
        stats.planDiagnostics.push_back(
            std::string("synthesis failed, using the default "
                        "assignment: ") +
            e.what());
        addToCounter<"synth.search_failures">(1);
        return std::nullopt;
    }
    if (sr.anchors.empty() || sr.ranked.empty())
        return std::nullopt;

    // Trial the finalists with the true pipeline: assignment, cleanup
    // and planning on a copy are exactly what the run ships, so the
    // winning trial is the run's result and the comparison below prices
    // what ships — the never-worse guarantee rests on it. The search
    // and the trials plan through the run's cache: a conversion they
    // share is planned once.
    auto evaluate = [&](const synth::SynthAssignment &a) {
        trace::Span evalSpan("synth.evaluate", "synth");
        std::map<int, LinearLayout> overrides;
        for (size_t i = 0; i < sr.anchors.size(); ++i) {
            if (a.choice[i] == 0)
                continue; // index 0 is the default anchor
            overrides.emplace(
                sr.anchors[i],
                sr.candidates[i][static_cast<size_t>(a.choice[i])].layout);
        }
        Trial t{f, {}};
        assignForward(t.f, t.stats,
                      overrides.empty() ? nullptr : &overrides);
        cleanup(t.f, t.stats);
        EngineStats planned; // the shipped pass recounts planning
        planConversions(t.f, planned, cache);
        auto cost =
            estimateKernelCost(t.f, options_.spec, options_.numWarps);
        if (evalSpan.active()) {
            evalSpan.arg("cycles", static_cast<int>(cost.cycles));
            evalSpan.arg("converts", cost.converts);
        }
        t.cycles = cost.cycles;
        return t;
    };

    std::optional<Trial> best;
    int defaultSurviving = 0;
    bool choseSynthesized = false;
    try {
        best = evaluate(sr.ranked[static_cast<size_t>(sr.defaultRank)]);
        defaultSurviving =
            best->stats.convertsInserted - best->stats.convertsEliminated;
        for (size_t r = 0; r < sr.ranked.size(); ++r) {
            if (static_cast<int>(r) == sr.defaultRank)
                continue;
            Trial t = evaluate(sr.ranked[r]);
            if (t.cycles < best->cycles) { // strict: ties keep the default
                best = std::move(t);
                choseSynthesized = true;
            }
        }
    } catch (const std::exception &e) {
        stats.planDiagnostics.push_back(
            std::string("synthesis repricing failed, using the default "
                        "assignment: ") +
            e.what());
        addToCounter<"synth.search_failures">(1);
        return std::nullopt;
    }
    const int evaluated = static_cast<int>(sr.ranked.size());
    if (span.active()) {
        span.arg("evaluated", evaluated);
        span.arg("exhaustive", sr.exhaustive ? 1 : 0);
        span.arg("chose", choseSynthesized ? "synthesized" : "default");
    }
    EngineStats &won = best->stats;
    won.synthAssignmentsEvaluated = evaluated;
    if (choseSynthesized) {
        won.synthChoseSynthesized = 1;
        won.synthConvertsEliminated = std::max(
            0, defaultSurviving -
                   (won.convertsInserted - won.convertsEliminated));
    }
    return best;
}

EngineStats
LayoutEngine::run(ir::Function &f)
{
    trace::Span span("engine.run", "engine");
    if (span.active())
        span.arg("function", f.name());

    EngineStats stats;
    // The run's one plan cache: the shared cache when there is one,
    // otherwise a memo over a private interner. The synthesis search,
    // its trials and the shipped pass all plan through it, so each
    // distinct conversion the run prices is planned once.
    std::optional<service::LayoutInterner> memoInterner;
    std::optional<service::PlanCache> memo;
    service::PlanCache *cache = options_.planCache;
    if (cache == nullptr) {
        service::PlanCache::Config config;
        config.interner = &memoInterner.emplace();
        cache = &memo.emplace(config);
    }
    std::optional<Trial> winner;
    if (options_.synthesizeLayouts)
        winner = synthesizeAssignment(f, *cache, stats);
    if (winner) {
        f = std::move(winner->f);
        stats = std::move(winner->stats);
    } else {
        assignForward(f, stats);
        cleanup(f, stats);
    }
    // Conversions the synthesized assignment avoided count as
    // eliminated too: the headline counter keeps meaning "conversions
    // the default path would have kept that this run does not", with
    // the synth share still visible via synth.converts_eliminated.
    stats.convertsEliminated += stats.synthConvertsEliminated;
    // Every conversion an adopted trial planned hits.
    planConversions(f, stats, *cache);
    f.verify();

    // Mirror the struct counters into the registry (the struct fields
    // stay the primary API; the registry feeds llstat / bench JSON).
    addToCounter<"engine.converts_inserted">(stats.convertsInserted);
    addToCounter<"engine.converts_eliminated">(stats.convertsEliminated);
    addToCounter<"engine.converts_planned">(stats.convertsPlanned);
    addToCounter<"engine.plan_fallbacks">(stats.planFallbacks);
    addToCounter<"engine.plan_failures">(stats.planFailures);
    addToCounter<"engine.transfer_fallbacks">(stats.transferFallbacks);
    addToCounter<"engine.plan_cache_hits">(stats.planCacheHits);
    addToCounter<"engine.plan_cache_misses">(stats.planCacheMisses);
    addToCounter<"synth.converts_eliminated">(stats.synthConvertsEliminated);
    addToCounter<"synth.assignments_evaluated">(
        stats.synthAssignmentsEvaluated);
    addToCounter<"synth.chose_synthesized">(stats.synthChoseSynthesized);
    addToCounter<"synth.runs">(options_.synthesizeLayouts ? 1 : 0);
    addToCounter<"engine.runs">(1);
    if (span.active()) {
        span.arg("converts_planned", stats.convertsPlanned);
        span.arg("converts_eliminated", stats.convertsEliminated);
    }
    return stats;
}

} // namespace engine
} // namespace ll
