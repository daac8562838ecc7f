/**
 * @file
 * Whole-kernel anchor-assignment search (the synthesis tentpole).
 *
 * Formulation: every anchor (load/constant result) is a decision
 * variable over its bounded candidate set (candidates.h). The
 * objective prices
 *
 *   - nodes: every global load/store whose tensor carries an anchor's
 *     layout costs globalMemorySectors(candidate) * globalSectorCycles
 *     — the same term engine::estimateKernelCost charges;
 *   - edges: every place assignForward would insert a ConvertLayout
 *     between two anchor-carried values (or between an anchor-carried
 *     value and a fixed MMA/dot layout) costs the estimateCycles of
 *     the plan between the two candidate layouts — zero when the pair
 *     plans as a no-op over F_2, a scalar shared round trip when no
 *     rung plans it. Edges are priced from their plans alone: nothing
 *     is smoke-executed, every plan is served through
 *     SynthOptions::planCache, and each term keeps its own price table
 *     per candidate choice, filled on first use.
 *
 * Minimization is a beam search over anchors in op order with
 * deterministic tie-breaking (cost first, then the lexicographically
 * smallest choice vector), a configurable beam width, an exhaustive
 * fallback when the full cross-product is small, and one hard
 * invariant: the all-defaults assignment is force-retained in the beam
 * at every step, so the ranked finalists always contain today's
 * behavior and the engine can reprice synthesis against it (the
 * never-worse guarantee — see DESIGN.md §17).
 *
 * The guide costs here are estimates; LayoutEngine re-prices the
 * finalists by actually running assignment + cleanup + planning + the
 * true cost model, and only deviates from the default on a strict win.
 * It hands the search its run's plan cache, so the trials and the
 * shipped pass are served the plans the search already made.
 */

#ifndef LL_SYNTH_SYNTHESIZE_H
#define LL_SYNTH_SYNTHESIZE_H

#include <vector>

#include "synth/candidates.h"

namespace ll {

namespace service {
class PlanCache;
}

namespace synth {

struct SynthOptions
{
    /** Surviving partial assignments per beam step (≥ 1). The default
     *  assignment does not count against the width — it is retained on
     *  top of the beam when it would otherwise fall out. */
    int beamWidth = 8;
    /** Graphs whose full candidate cross-product has at most this many
     *  assignments are enumerated exhaustively instead of beamed. */
    int exhaustiveLimit = 256;
    /** Candidate layouts kept per anchor (index 0 is the default). */
    int maxPerAnchor = 6;
    /** Finalists returned for true-pipeline repricing by the engine
     *  (the default assignment is always among them). */
    int maxRankedAssignments = 4;
    /** The cache every edge is planned through
     *  (service::serveConversion; borrowed). nullptr plans each edge
     *  fresh. LayoutEngine sets it to its run's plan cache. */
    service::PlanCache *planCache = nullptr;
};

/** One complete assignment: choice[i] indexes
 *  SynthResult::candidates[i] for anchor SynthResult::anchors[i]. */
struct SynthAssignment
{
    std::vector<int> choice;
    /** Guide cost (node + edge terms) — comparable only within one
     *  SynthResult, not to engine::KernelCost::cycles. */
    double cost = 0.0;
};

struct SynthResult
{
    /** Anchor value ids in op order (anchorValues(f)). */
    std::vector<int> anchors;
    /** Per-anchor candidate sets; candidates[i][0] is the default. */
    std::vector<std::vector<LayoutCandidate>> candidates;
    /** Finalists, best guide cost first, deterministically ordered.
     *  Always contains the all-defaults assignment. */
    std::vector<SynthAssignment> ranked;
    /** Index of the all-defaults assignment within `ranked`. */
    int defaultRank = -1;
    /** True when the full cross-product was enumerated. */
    bool exhaustive = false;
    /** Partial assignments priced during the search. */
    int statesExpanded = 0;
};

/** Run the search. Deterministic for a given (f, spec, numWarps, opt):
 *  a plan served from opt.planCache is the plan planning would make. */
SynthResult synthesizeAnchors(const ir::Function &f,
                              const sim::GpuSpec &spec, int numWarps,
                              const SynthOptions &opt);

} // namespace synth
} // namespace ll

#endif // LL_SYNTH_SYNTHESIZE_H
