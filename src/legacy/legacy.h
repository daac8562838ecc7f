/**
 * @file
 * A model of *legacy* Triton's layout system — the baseline every
 * experiment in the paper compares against.
 *
 * Legacy Triton (pre-linear-layouts) handled layouts case by case. This
 * module reproduces its documented behaviour:
 *
 *  - vectorization from a fastest-dimension heuristic that cannot see
 *    contiguity spanning dimensions and disables itself on size-1
 *    fastest dims (Section 5.1, Table 3);
 *  - layout conversions that always round-trip through shared memory
 *    using a *padding* heuristic instead of swizzling (Figure 2, 7);
 *  - a reduction/conversion support matrix with unsupported layout
 *    kinds (Table 4) and no duplicate-data detection, so every thread
 *    stores its copy;
 *  - mixed-precision dot support replayed from the published Table 5
 *    pass counts (the rule "no MMA layout with more than 32-bit
 *    consecutive elements in the tile's last dimension" plus small-shape
 *    failures). Unlike the linear-layout side — whose passes this repo
 *    *verifies* by executing conversions on the simulator — the legacy
 *    failures cannot be re-derived without the original implementation,
 *    so they are replayed as documented counts.
 */

#ifndef LL_LEGACY_LEGACY_H
#define LL_LEGACY_LEGACY_H

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/vectorize.h"
#include "ir/types.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "triton/encodings.h"

namespace ll {
namespace legacy {

/**
 * Legacy vectorization: only the fastest dimension's per-thread extent
 * counts, and a size-1 fastest dim disables vectorization entirely
 * (the [128, 1] bug of Section 5.1).
 */
codegen::MemoryInstruction
legacyMemoryInstruction(const triton::BlockedEncoding &enc,
                        const triton::Shape &shape, int elemBits,
                        int maxVectorBits = 128);

/** Layout kinds in the legacy taxonomy (Figure 3 / Table 4). */
enum class LayoutKind
{
    Blocked,
    Mma,
    MmaInput,
    SlicedBlocked,
    SlicedMma,
    SlicedMmaInput,
    Custom,
};

std::string toString(LayoutKind kind);

/** Which layout kinds legacy reduction code generation supports
 *  (the Table 4 pass/fail column). */
bool legacySupportsReduction(LayoutKind kind);

/**
 * Shared-memory store instructions legacy code generation emits for a
 * cross-resource reduction: without free-variable analysis it cannot
 * identify duplicated data, so every register of every thread is
 * stored. Linear layouts store only unique elements.
 */
int64_t legacyReductionSharedStores(const LinearLayout &layout, int axis,
                                    const sim::GpuSpec &spec);

/** Linear-layout counterpart: duplicates (free variables) skipped. */
int64_t linearReductionSharedStores(const LinearLayout &layout, int axis,
                                    const sim::GpuSpec &spec);

/**
 * The padding heuristic for shared-memory conversions: rows are padded
 * by `padElems` elements so that consecutive rows start in different
 * banks. Returns per-warp-access wavefronts measured on the simulator
 * plus the memory overhead — the Figure 2 baseline.
 */
struct PaddedConversionCost
{
    int64_t storeWavefronts = 0; ///< per representative warp access
    int64_t loadWavefronts = 0;
    int storeVecElems = 1;
    int loadVecElems = 1;
    int64_t sharedBytes = 0; ///< footprint including padding
    /** ceil(sharedBytes / sharedMemPerCta) repeated passes, one round
     *  trip each. */
    int64_t passes = 1;
    double cycles = 0.0;     ///< modeled conversion cost
};

PaddedConversionCost
paddedConversionCost(const LinearLayout &src, const LinearLayout &dst,
                     const triton::Shape &shape, int elemBytes,
                     const sim::GpuSpec &spec, int padElems = -1);

/**
 * Replayed Table 5 pass counts for legacy mixed-precision dot: given
 * the operand dtypes, returns (passed, total) as published. The
 * benchmark enumerates exactly `total` shape variants and marks the
 * first `total - passed` unsupported, which reproduces the published
 * rates deterministically.
 */
std::pair<int, int> legacyDotPassCounts(ir::DType a, ir::DType b);

} // namespace legacy
} // namespace ll

#endif // LL_LEGACY_LEGACY_H
