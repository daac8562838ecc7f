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
#include <optional>
#include <string>
#include <vector>

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
     *  the run a private plan memo instead). It is the run's one plan
     *  cache: the synthesis search, its trials and the shipped pass all
     *  plan through it, so each distinct conversion a compile prices is
     *  planned once, and a shared cache also receives the plans of
     *  trials that do not ship. Every conversion is served by
     *  service::serveConversion, which ships the plan
     *  codegen::tryPlanConversion returns and executes nothing: a hit
     *  serves the memoized plan without planning; a rejection is never
     *  cached, so a failing conversion is re-validated on every
     *  request. Only the shipped pass's shared-cache traffic is counted
     *  in EngineStats::planCacheHits / planCacheMisses. Plans shaped by
     *  failpoints or a deadline, or planned while any failpoint was
     *  active, are never inserted. */
    service::PlanCache *planCache = nullptr;
    /** Run the whole-kernel anchor-assignment search (src/synth),
     *  trial its finalists through the true pipeline, and adopt the
     *  trial the cost model prices strictly below the default as the
     *  run's result. Never worse: the default assignment is always
     *  trialed too and wins ties, so a synthesized run's kernel cost is
     *  <= the synth-off run's by construction. Off (the default) keeps
     *  the engine bit-identical to the propagation-only path. */
    bool synthesizeLayouts = false;
    /** Search knobs for synthesizeLayouts. Their planCache is
     *  ignored: the search plans through the run's plan cache. */
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
    /** Conversions served whole from the shared plan cache
     *  (EngineOptions::planCache): no planning.
     *  Mirrored as "engine.plan_cache_hits";
     *  the cache's own counters live under "service.plan_cache.*". */
    int planCacheHits = 0;
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
    /** Complete assignments trialed with the true pipeline
     *  (assignForward + cleanup + planConversions, priced by
     *  estimateKernelCost), including the default. Zero when synthesis
     *  is off. */
    int synthAssignmentsEvaluated = 0;
    /** 1 when the run adopted a non-default assignment. */
    int synthChoseSynthesized = 0;
    /** Human-readable notes from every fallback or failure, in op
     *  order. */
    std::vector<std::string> planDiagnostics;
    /** Registry counter deltas. LayoutEngine::run leaves this empty:
     *  the registry is process-wide, so a per-run delta is exact only
     *  when no other thread compiles, and copying every counter twice
     *  per run under the registry mutex serialized concurrent
     *  compiles. A caller that wants a per-run delta takes
     *  metrics::Registry::counterSnapshot/counterDelta around its own
     *  single-threaded call; CompileService fills its report's
     *  `totals.metrics` with one delta around each batch. */
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

    /** A copy of the function after assignForward, cleanup and
     *  planConversions, the stats its assign and cleanup made, and the
     *  estimateKernelCost cycles of its attached plans. */
    struct Trial
    {
        ir::Function f;
        EngineStats stats;
        double cycles = 0.0;
    };

    /** Run the synth search through `cache`, trial its finalists (and
     *  the default) — assignForward + cleanup + planConversions through
     *  `cache`, priced by estimateKernelCost — and return the winning
     *  trial, with the synth* stats fields filled. nullopt when the
     *  kernel has no anchor or the search or a trial throws (the
     *  diagnostic goes into `stats`). run() adopts the winner as its
     *  result. */
    std::optional<Trial> synthesizeAssignment(const ir::Function &f,
                                              service::PlanCache &cache,
                                              EngineStats &stats);

  private:
    /** Anchor assignment + forward propagation. `anchorOverrides` maps
     *  anchor value ids (Load/Constant results) to synthesized layouts;
     *  anchors absent from the map (and every transfer fallback) keep
     *  the default — nullptr reproduces today's behavior exactly. */
    void assignForward(ir::Function &f, EngineStats &stats,
                       const std::map<int, LinearLayout> *anchorOverrides
                       = nullptr);
    void cleanup(ir::Function &f, EngineStats &stats);

    /** Serve every surviving ConvertLayout through
     *  service::serveConversion against `cache` and tag it
     *  "convert:<kind>". A plan that cannot be built downgrades the op
     *  to "convert:unplanned" and is recorded in the stats; this pass
     *  never throws. */
    void planConversions(ir::Function &f, EngineStats &stats,
                         service::PlanCache &cache);

    /** Convert operand `slot` of op `opIdx` to `want` unless it is
     *  already there (modulo broadcast). */
    void ensureOperand(ir::Function &f, int opIdx, size_t slot,
                       const LinearLayout &want, EngineStats &stats);

    EngineOptions options_;
};

} // namespace engine
} // namespace ll

#endif // LL_ENGINE_LAYOUT_ENGINE_H
