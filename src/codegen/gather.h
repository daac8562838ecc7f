/**
 * @file
 * Warp-shuffle lowering of tl.gather (Section 5.5).
 *
 * The gather operator reads src[..., index[..., pos, ...], ...] along a
 * single axis. When the layout places every element of the gathered axis
 * inside one warp — i.e. all warp basis vectors have a zero component on
 * that axis — the operation lowers to warp shuffles instead of a round
 * trip through shared memory. The number of shuffle rounds is
 * 2^|L_Thr^axis|: one per thread basis vector that moves along the axis.
 */

#ifndef LL_CODEGEN_GATHER_H
#define LL_CODEGEN_GATHER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/result.h"

namespace ll {
namespace codegen {

struct GatherPlan
{
    int axis = 0;
    /** Shuffle rounds: 2^(number of thread bits moving along axis). */
    int rounds = 1;
    int numRegs = 0;
    int warpSize = 0;

    /** Total warp shuffle instructions: rounds per register position. */
    int64_t
    countShuffleInstructions() const
    {
        return static_cast<int64_t>(rounds) * numRegs;
    }
};

/**
 * Plan a warp-local gather for src/index tensors sharing `layout`, or
 * nullopt when elements of the axis span warps (shared-memory fallback).
 * The layout must be injective.
 */
std::optional<GatherPlan> planGather(const LinearLayout &layout, int axis,
                                     const sim::GpuSpec &spec);

/**
 * Execute a gather on one warp: regs[lane][r] holds the src value of the
 * element that layout assigns to (r, lane, warp); idx[lane][r] holds the
 * index value (a coordinate along `axis`). Returns the gathered values
 * in the same layout, verifying en route that every fetch stays inside
 * the warp (the plan's guarantee). Total over any input: a
 * non-invertible layout (NonInvertibleStep at stage
 * "exec.gather.invert"), an index outside the gathered axis
 * (RegisterOutOfRange at "exec.gather.index-range"), or a fetch that
 * crosses warps (CrossWarpSource at "exec.gather.cross-warp") comes
 * back as an ExecDiagnostic instead of aborting.
 */
Result<std::vector<std::vector<uint64_t>>, ExecDiagnostic>
executeGather(const GatherPlan &plan, const LinearLayout &layout,
              int32_t warp,
              const std::vector<std::vector<uint64_t>> &regs,
              const std::vector<std::vector<int32_t>> &idx);

} // namespace codegen
} // namespace ll

#endif // LL_CODEGEN_GATHER_H
