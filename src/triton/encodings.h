/**
 * @file
 * Constructions of Triton's legacy layout families as linear layouts.
 *
 * Section 4.3 of the paper proves that every legacy Triton layout —
 * blocked, MMA (NVIDIA mma / wgmma, AMD mfma), MMA-input (dot operand),
 * sliced, and shared (unswizzled or mma-swizzled) — is a linear layout.
 * This module gives the constructive versions of those proofs: each
 * encoding is a small parameter struct with a toLinearLayout() method.
 * The proofs write a layout as a product of identity pieces; the
 * constructors place those pieces straight into the layout's F2
 * columns, one pass per layout, and check::reference keeps the literal
 * product chains as the test oracle.
 *
 * Conventions:
 *  - A logical tensor shape is a vector of power-of-two sizes, indexed by
 *    logical dimension (dim0, dim1, ...).
 *  - Layouts returned here order their output dims *minor-to-major*: the
 *    first output dim is the fastest-moving one. For an encoding with an
 *    `order` vector, order[0] names the fastest logical dim.
 *  - Distributed layouts use input dims register/lane/warp; memory
 *    layouts use the single input dim offset.
 */

#ifndef LL_TRITON_ENCODINGS_H
#define LL_TRITON_ENCODINGS_H

#include <cstdint>
#include <vector>

#include "layout/dims.h"
#include "layout/linear_layout.h"

namespace ll {
namespace triton {

using Shape = std::vector<int32_t>;

/** Default minor-to-major order for a rank-r tensor: the *last* logical
 *  dim is fastest, as in row-major storage: [r-1, r-2, ..., 0]. */
std::vector<int32_t> rowMajorOrder(int rank);

/**
 * Blocked layout (Proposition 4.6): a hierarchical tiling where each
 * thread owns a sizePerThread block, threads tile a warp, and warps tile
 * the CTA; tiles replicate across the tensor through extra registers, and
 * resources exceeding the tensor broadcast (map to zero).
 */
struct BlockedEncoding
{
    Shape sizePerThread;
    Shape threadsPerWarp;
    Shape warpsPerCta;
    /** order[0] is the fastest logical dimension. */
    std::vector<int32_t> order;

    LinearLayout toLinearLayout(const Shape &shape) const;

    /**
     * The layout Triton assigns to plain loads/stores: vectorized along
     * the fastest dim, threads filling the fastest dims first, warps the
     * slowest.
     */
    static BlockedEncoding makeDefault(const Shape &shape, int numWarps,
                                       int warpSize, int vecWidth = 1);

    /**
     * makeDefault with an explicit minor-to-major order instead of the
     * row-major default. The cute admission pass uses this to align
     * each side's anchor with its storage contiguity (dims sorted by
     * stride, fastest first), so bridged conversions vectorize along
     * the axis that is actually contiguous in memory.
     */
    static BlockedEncoding makeDefaultWithOrder(
        const Shape &shape, const std::vector<int32_t> &order,
        int numWarps, int warpSize, int vecWidth = 1);
};

/**
 * NVIDIA tensor-core output layouts (Proposition 4.7). version 2 is the
 * Ampere-style mma.m16n8 fragment; version 3 is the Hopper wgmma
 * m64nN fragment, where the four warps of a warp group jointly own 64
 * rows and instrN gives the instruction's N extent.
 */
struct MmaEncoding
{
    int version = 2;
    Shape warpsPerCta; // {warps along dim0, warps along dim1}
    int32_t instrN = 8;

    LinearLayout toLinearLayout(const Shape &shape) const;

    /** The single-warp (or warp-group) instruction tile. */
    LinearLayout instructionTile() const;
};

/**
 * AMD matrix-core (mfma) output layout: the 32x32 accumulator fragment
 * over a 64-lane wavefront.
 */
struct MfmaEncoding
{
    Shape warpsPerCta;

    LinearLayout toLinearLayout(const Shape &shape) const;

    LinearLayout instructionTile() const;
};

/**
 * MMA input (dot operand) layouts: the A (opIdx 0) and B (opIdx 1)
 * fragments of mma/wgmma, parameterized by element bit width per the
 * constructions in Appendix 9.1 of the paper.
 */
struct DotOperandEncoding
{
    MmaEncoding parent;
    int opIdx = 0;     // 0 = lhs (A), 1 = rhs (B)
    int bitwidth = 16; // element width in bits

    LinearLayout toLinearLayout(const Shape &shape) const;

    LinearLayout instructionTile() const;
};

/**
 * Sliced layout (Proposition 4.8): remove logical dimension `axis` from a
 * parent distributed layout. Remaining dims are renumbered densely. The
 * result may be non-injective but stays surjective.
 */
LinearLayout sliceLayout(const LinearLayout &parent, int axis);

/**
 * Unswizzled shared-memory layout: offset maps row-major (fastest logical
 * dim contiguous) onto the tensor, per the given order.
 */
LinearLayout unswizzledSharedLayout(const Shape &shape,
                                    const std::vector<int32_t> &order);

/**
 * MMA-swizzled shared layout (Definition 4.11 / Proposition 4.12) for a
 * 2D tensor. Parameters vec, perPhase, maxPhase are powers of two. The
 * returned layout maps offset -> (fastest dim, slower dim) with the
 * inverse-swizzle matrix [[I_n, C], [0, I_m]].
 */
LinearLayout mmaSwizzledSharedLayout(const Shape &shape, int32_t vec,
                                     int32_t perPhase, int32_t maxPhase,
                                     const std::vector<int32_t> &order);

/** Swizzle parameters chosen like legacy Triton does for MMA operands. */
struct SwizzleParams
{
    int32_t vec;
    int32_t perPhase;
    int32_t maxPhase;
};
SwizzleParams chooseMmaSwizzleParams(int elemBytes, int32_t rowElems);

/**
 * Definition 4.10: a distributed layout is a surjective linear layout
 * whose matrix columns each have at most one set bit, with no repeated
 * nonzero columns.
 */
bool isDistributedLayout(const LinearLayout &layout);

/**
 * Definition 4.14: a memory layout is an invertible linear layout whose
 * matrix columns have one or two set bits.
 */
bool isMemoryLayout(const LinearLayout &layout);

} // namespace triton
} // namespace ll

#endif // LL_TRITON_ENCODINGS_H
