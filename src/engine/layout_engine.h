/**
 * @file
 * Triton's layout engine rebuilt on linear layouts (Section 4.4).
 *
 * The engine assigns *anchor* layouts — default blocked layouts at
 * global loads/stores and MMA / MMA-input layouts at dots — then
 * propagates layouts forward through the remaining ops using the
 * Section 4.4 transfer functions, inserting ConvertLayout ops where an
 * operand arrives in the wrong layout. A cleanup pass then removes
 * conversions that linear layouts can prove to be no-ops (including
 * across layout *kinds*, which the legacy system could not compare) and
 * hoists conversions through shape ops when that turns them into no-ops
 * (rematerialization).
 */

#ifndef LL_ENGINE_LAYOUT_ENGINE_H
#define LL_ENGINE_LAYOUT_ENGINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cute/admit.h"
#include "ir/function.h"
#include "sim/gpu_spec.h"
#include "synth/synthesize.h"

namespace ll {

namespace service {
class PlanCache;
}

namespace engine {

struct EngineOptions
{
    EngineOptions() = default;
    /** The common case: a target and a warp count, everything else
     *  defaulted. */
    EngineOptions(sim::GpuSpec spec, int numWarps)
        : spec(std::move(spec)), numWarps(numWarps)
    {
    }

    sim::GpuSpec spec = sim::GpuSpec::gh200();
    int numWarps = 4;
    /** Shared, sharded plan cache (borrowed, not owned; nullptr gives
     *  each run a private cache of its own, so a conversion repeated
     *  within one run is still planned and smoke-executed once). Every
     *  op is served by service::serveConversion: a hit serves the
     *  memoized plan — or a memoized InvalidInput rejection — without
     *  planning or smoke-executing anything. Only shared-cache traffic
     *  is counted in EngineStats::planCacheHits / planCacheNegativeHits
     *  / planCacheMisses. Plans that survived demotion, were shaped by
     *  failpoints, or were planned while any failpoint was active are
     *  never inserted. */
    service::PlanCache *planCache = nullptr;
    /** Run the whole-kernel anchor-assignment search (src/synth) before
     *  propagation and adopt its winning assignment when the true cost
     *  model prices it strictly below the default. Never worse: the
     *  default assignment is always evaluated too and wins ties, so a
     *  synthesized run's kernel cost is <= the synth-off run's by
     *  construction. Off (the default) keeps the engine bit-identical
     *  to the propagation-only path. */
    bool synthesizeLayouts = false;
    /** Search knobs for synthesizeLayouts. The search prices edges
     *  from their plans alone and never touches planCache: only the
     *  conversions the adopted assignment ships are served (and
     *  smoke-run) through it by planConversions. */
    synth::SynthOptions synthOptions;
};

struct EngineStats
{
    int convertsInserted = 0;
    int convertsEliminated = 0;
    /** ConvertLayout ops surviving cleanup that received a lowering
     *  plan (tagged "convert:<kind>"). */
    int convertsPlanned = 0;
    /** Plans that stepped down the fallback ladder — the planner
     *  succeeded but left diagnostics explaining skipped rungs. */
    int planFallbacks = 0;
    /** Conversions whose planning failed outright; the op is tagged
     *  "convert:unplanned" and the function still verifies — the
     *  engine downgrades, it does not abort. */
    int planFailures = 0;
    /** Shape-transfer functions that threw (or were failpointed via
     *  "engine.transfer") and fell back to the anchor layout. */
    int transferFallbacks = 0;
    /** Conversions whose smoke execution failed and were successfully
     *  re-planned one rung further down the ladder (counted once per
     *  demotion step, so one op can contribute several). */
    int execFallbacks = 0;
    /** Conversions whose execution failed with no rung left to demote
     *  to (or whose demoted re-plan failed); the op is tagged
     *  "convert:unplanned" and the engine carries on. */
    int execFailures = 0;
    /** Conversions served whole from the shared plan cache
     *  (EngineOptions::planCache): no planning, no smoke execution.
     *  Mirrored as "engine.plan_cache_hits";
     *  the cache's own counters live under "service.plan_cache.*". */
    int planCacheHits = 0;
    /** Conversions rejected from a memoized InvalidInput entry; also
     *  counted in planFailures (the op is tagged convert:unplanned). */
    int planCacheNegativeHits = 0;
    /** Conversions that consulted the shared plan cache and missed. */
    int planCacheMisses = 0;
    /** Conversions the synthesized assignment avoided relative to the
     *  default assignment (surviving-after-cleanup counts, default
     *  minus chosen). Folded into convertsEliminated — the headline
     *  counter keeps meaning "conversions that did not survive" — and
     *  mirrored separately as "synth.converts_eliminated" so the
     *  propagation-vs-synthesis partition stays visible (llstat
     *  --validate-bench-json checks it sums). Zero when synthesis is
     *  off or chose the default. */
    int synthConvertsEliminated = 0;
    /** Complete assignments repriced with the true pipeline (trial
     *  assignForward + cleanup + estimateKernelCost), including the
     *  default. Zero when synthesis is off. */
    int synthAssignmentsEvaluated = 0;
    /** 1 when the run adopted a non-default assignment. */
    int synthChoseSynthesized = 0;
    /** Human-readable notes from every fallback or failure, in op
     *  order. */
    std::vector<std::string> planDiagnostics;
    /** Per-run delta of every registry counter that moved during this
     *  run (metrics::Registry names — see DESIGN.md "Observability").
     *  The registry is process-wide, so the delta is exact only when no
     *  other thread is compiling; summing the deltas of concurrent runs
     *  counts each other's increments again (CompileService takes one
     *  delta around the whole batch instead). The int fields above are
     *  mirrors of the engine.* entries here; they keep working
     *  unchanged. The planner's plan.rung.<rung>.evaluated and
     *  plan.kind.<kind> counters appear here too: per rung, how often
     *  it was evaluated and accepted (llprof --bench, DESIGN.md §16). */
    std::map<std::string, int64_t> metrics;
};

class LayoutEngine
{
  public:
    explicit LayoutEngine(EngineOptions options)
        : options_(std::move(options))
    {
    }

    /** Annotate every value with a layout; insert and clean up
     *  conversions. Returns what happened. */
    EngineStats run(ir::Function &f);

    /** The blocked anchor layout the engine assigns at loads/stores. */
    LinearLayout anchorForMemory(const ir::TensorType &type) const;

    /** The MMA/MFMA output layout chosen for a dot of this shape. */
    LinearLayout dotResultLayout(const ir::TensorType &accType,
                                 int operandBits) const;

    /** The MMA-input layout for operand opIdx of such a dot. */
    LinearLayout dotOperandLayout(const ir::TensorType &operandType,
                                  const ir::TensorType &accType,
                                  int opIdx, int operandBits) const;

    /**
     * Accept a cute (shape,stride) relayout — including non-pow2
     * logical shapes the F2 entry points reject — with this engine's
     * spec and warp configuration. The pow2 core always goes through
     * service::serveCuteConversion — smoke-verified and demoted like any
     * conversion — sharing interned layouts and cached ladder plans with
     * ordinary conversions when EngineOptions::planCache is configured;
     * malformed requests fail with DiagCode::InvalidInput, and nothing
     * here answers InvalidInput merely for being non-pow2.
     */
    Result<cute::CutePlan> planCuteConversion(const cute::CuteLayout &src,
                                              const cute::CuteLayout &dst,
                                              int elemBytes) const;

  private:
    /** Anchor assignment + forward propagation. `anchorOverrides` maps
     *  anchor value ids (Load/Constant results) to synthesized layouts;
     *  anchors absent from the map (and every transfer fallback) keep
     *  the default — nullptr reproduces today's behavior exactly. */
    void assignForward(ir::Function &f, EngineStats &stats,
                       const std::map<int, LinearLayout> *anchorOverrides
                       = nullptr);
    void cleanup(ir::Function &f, EngineStats &stats);

    /** Run the synth search, reprice its finalists (and the default)
     *  with trial assignForward + cleanup + estimateKernelCost, and
     *  return the winning anchor overrides — empty when the default
     *  wins or anything in the search throws. Fills the synth* stats
     *  fields. */
    std::map<int, LinearLayout> synthesizeAssignment(const ir::Function &f,
                                                     EngineStats &stats);

    /** Serve every surviving ConvertLayout through
     *  service::serveConversion and tag it "convert:<kind>". A plan that
     *  cannot be built, or that no rung of which survives execution,
     *  downgrades the op to "convert:unplanned" and is recorded in the
     *  stats; this pass never throws. */
    void planConversions(ir::Function &f, EngineStats &stats);

    /** Convert operand `slot` of op `opIdx` to `want` unless it is
     *  already there (modulo broadcast). */
    void ensureOperand(ir::Function &f, int opIdx, size_t slot,
                       const LinearLayout &want, EngineStats &stats);

    EngineOptions options_;
};

} // namespace engine
} // namespace ll

#endif // LL_ENGINE_LAYOUT_ENGINE_H
