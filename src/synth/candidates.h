/**
 * @file
 * Anchor-layout candidate generation for whole-kernel layout synthesis.
 *
 * The layout engine's propagation pass (engine/layout_engine.cpp) fixes
 * every anchor — loads and constants — to one hard-coded default
 * blocked layout and lets conversions absorb whatever clashes remain.
 * Synthesis instead treats each anchor as a decision variable with a
 * bounded candidate set:
 *
 *   0. the default blocked layout (always index 0 — the search keeps
 *      the all-defaults assignment alive so synthesis can never lose to
 *      the propagation-only engine),
 *   1. blocked variants with other vectorization widths,
 *   2. native preferences of consumers (an MMA operand layout when the
 *      anchor feeds a dot, the fixed layout of a sibling operand when
 *      the anchor meets a dot result in an elementwise op),
 *   3. propagated neighbors (the default layout of the anchor another
 *      operand of the same consumer carries — e.g. a gather's index
 *      tensor adopting the table's wider-vector default).
 *
 * The default anchor/dot layout constructors live here — LayoutEngine
 * delegates to them — so the no-synth path and candidate index 0 are
 * the same code, not two copies that can drift.
 */

#ifndef LL_SYNTH_CANDIDATES_H
#define LL_SYNTH_CANDIDATES_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/function.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"

namespace ll {
namespace synth {

/**
 * The blocked anchor layout the engine assigns at loads, stores and
 * constants: 128-bit vectorized per-thread tiles distributed over
 * `numWarps` warps of `spec.warpSize` lanes. This is the historical
 * LayoutEngine::anchorForMemory construction, moved verbatim;
 * synth_test pins the two against each other.
 */
LinearLayout defaultMemoryAnchor(const ir::TensorType &type,
                                 const sim::GpuSpec &spec, int numWarps);

/** The MMA/MFMA output layout for a dot with this accumulator shape
 *  (LayoutEngine::dotResultLayout, moved verbatim). */
LinearLayout dotResultLayout(const ir::TensorType &accType,
                             int operandBits, const sim::GpuSpec &spec,
                             int numWarps);

/** The MMA-input layout for operand `opIdx` of such a dot
 *  (LayoutEngine::dotOperandLayout, moved verbatim). */
LinearLayout dotOperandLayout(const ir::TensorType &operandType,
                              const ir::TensorType &accType, int opIdx,
                              int operandBits, const sim::GpuSpec &spec,
                              int numWarps);

/**
 * Global traffic (32-byte sectors) of one load or store of a tensor
 * held in `layout`: the representative warp's first access is replayed
 * through sim::GlobalMemory and scaled by instructions-per-thread and
 * warp count. Shared between engine::estimateKernelCost and the
 * synthesis node cost so the search's memory pricing and the final
 * repricing agree exactly.
 */
int64_t globalMemorySectors(const LinearLayout &layout, int elemBits,
                            const sim::GpuSpec &spec);

/**
 * Modeled cycles of a conversion out of `src` that cannot be planned: a
 * scalar shared round trip, one store and one load wavefront per
 * register. The one price engine::estimateKernelCost charges a
 * convert:unplanned op and the synthesis edge pricing charges an
 * unplannable pair.
 */
double unplannableConversionCycles(const LinearLayout &src,
                                   const sim::GpuSpec &spec);

/** One candidate layout for an anchor, with a human-readable origin
 *  ("default", "blocked/vec2", "dot-operand:0", "neighbor", ...). */
struct LayoutCandidate
{
    LinearLayout layout;
    std::string provenance;
};

/**
 * Forward default-propagation analysis of the graph, mirroring
 * assignForward's carrier rules: which anchor's layout each value would
 * carry (through elementwise / scan / gather / convert chains), and
 * which values have a fixed, anchor-independent layout (dot results and
 * their elementwise descendants).
 */
struct PropagationMap
{
    /** value id -> the anchor value id whose layout it carries, or -1
     *  when the chain is broken by a shape transfer or a dot. */
    std::vector<int> carrier;
    /** value id -> the anchor-independent layout the value is pinned
     *  to, when one is known (MMA results, FMA-dot results, and values
     *  propagating from them). */
    std::vector<std::optional<LinearLayout>> fixed;
};

PropagationMap propagationMap(const ir::Function &f,
                              const sim::GpuSpec &spec, int numWarps);

/** The anchor value ids of `f` in op order: results of non-erased Load
 *  and Constant ops — exactly the values assignForward anchors. */
std::vector<int> anchorValues(const ir::Function &f);

/**
 * The bounded candidate set for anchor value `anchor`. Index 0 is
 * always the default blocked layout; the rest are deduplicated
 * (operator==) blocked-vectorization variants, consumer preferences and
 * propagated neighbors, capped at `maxPerAnchor`. Candidate
 * construction failures (e.g. an MMA encoding rejecting a shape) skip
 * that candidate rather than aborting enumeration.
 */
std::vector<LayoutCandidate>
anchorCandidates(const ir::Function &f, int anchor,
                 const PropagationMap &prop, const sim::GpuSpec &spec,
                 int numWarps, int maxPerAnchor);

} // namespace synth
} // namespace ll

#endif // LL_SYNTH_CANDIDATES_H
