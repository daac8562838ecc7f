/**
 * @file
 * Optimal shared-memory swizzling (Section 5.4, Appendix 9.2).
 *
 * Given two distributed layouts A (writer) and B (reader) over the same
 * logical tensor, compute a shared-memory layout
 *     M : Vec x Bank x Idx -> F2^d
 * that maximizes read/write vectorization and provably minimizes bank
 * conflicts (Lemmas 9.4-9.6):
 *
 *  1. Vec = a basis of span(A_Reg) ^ span(B_Reg), capped at the 128-bit
 *     access width, becomes the low offset bits so both sides vectorize.
 *  2. The bank-index columns Idx are chosen with trivial intersection
 *     against P = span(Vec u A_Bank) u span(Vec u B_Bank), using the
 *     H = {e_i xor f_i} construction plus a complement basis C.
 *  3. Bank completes the basis.
 *
 * The module also provides the Lemma 9.4 analytic wavefront count and the
 * address calculation used by the simulator.
 */

#ifndef LL_CODEGEN_SWIZZLE_H
#define LL_CODEGEN_SWIZZLE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/result.h"

namespace ll {
namespace codegen {

/** A shared-memory layout produced by the optimal-swizzle algorithm. */
struct SwizzledShared
{
    /** offset -> logical tensor; invertible; bases ordered Vec, Bank,
     *  Idx. */
    LinearLayout memLayout;
    /** tensor -> offset, the inverse map used for address generation. */
    LinearLayout tensorToOffset;
    int vecBits = 0;  ///< log2 of the vectorization (elements)
    int bankBits = 0; ///< log2 of elements covering all banks
    int idxBits = 0;  ///< log2 of the segment count

    /**
     * Bank-offset padding (the fallback ladder's padded rung): after
     * every padInterval linear elements, padElems storage cells are
     * skipped, rotating successive rows across banks the way classic
     * `pad = bankWidth` shared allocations do. Both values are either 0
     * (unpadded) or multiples of vecElems(), so padding commutes with
     * vec-aligned access windows; it is an affine tweak applied after
     * the F2-linear tensorToOffset map.
     */
    int64_t padInterval = 0;
    int64_t padElems = 0;

    /**
     * Multi-pass window (the answer of the swizzled and scalar rungs to
     * a tensor bigger than the CTA budget, sized by ctaWindowElems):
     * when > 0, the executors allocate only windowElems storage cells
     * and run ceil(storage / windowElems) store+load passes, masking
     * lanes whose offsets fall outside the current window
     * (sim::kInactiveLane). 0 means one pass over the whole tensor.
     * Always a power of two and a multiple of vecElems().
     */
    int64_t windowElems = 0;

    int vecElems() const { return 1 << vecBits; }
    bool padded() const { return padInterval > 0 && padElems > 0; }
    bool windowed() const { return windowElems > 0; }

    /** Linear offset -> storage offset (identity when unpadded). */
    int64_t
    padOffset(int64_t off) const
    {
        return padded() ? off + (off / padInterval) * padElems : off;
    }

    /** Storage offset back to the linear offset (inverse of padOffset
     *  on its image). */
    int64_t
    unpadOffset(int64_t stored) const
    {
        return padded()
                   ? stored - (stored / (padInterval + padElems)) * padElems
                   : stored;
    }

    /** Storage cells needed for `numElems` linear elements. */
    int64_t
    storageElems(int64_t numElems) const
    {
        return padded() ? padOffset(numElems - 1) + 1 : numElems;
    }

    /** Cells the executors actually allocate (one window when
     *  windowed, the whole tensor otherwise). */
    int64_t
    allocElems(int64_t numElems) const
    {
        int64_t storage = storageElems(numElems);
        return windowed() ? std::min(windowElems, storage) : storage;
    }

    /** Store+load passes the executors run over numElems elements. */
    int64_t
    passesFor(int64_t numElems) const
    {
        int64_t storage = storageElems(numElems);
        int64_t window = allocElems(numElems);
        return window > 0 ? (storage + window - 1) / window : 1;
    }
};

/**
 * The multi-pass window for storage that does not fit one CTA: the
 * largest power-of-two element count whose bytes fit
 * spec.sharedMemPerCta, or 0 when that is below `minElems` (a swizzle
 * passes its vecElems(), so one vectorized access always fits).
 */
int64_t ctaWindowElems(int elemBytes, const sim::GpuSpec &spec,
                       int64_t minElems = 1);

/**
 * Run the optimal-swizzle algorithm for conversion A -> B with elements
 * of elemBytes width. Both layouts must be surjective distributed
 * layouts over the same output space.
 */
SwizzledShared computeOptimalSwizzle(const LinearLayout &a,
                                     const LinearLayout &b, int elemBytes,
                                     const sim::GpuSpec &spec,
                                     int maxVecBytesOverride = 0);

/**
 * Non-throwing computeOptimalSwizzle: basis-construction failures (and
 * the failpoint sites "swizzle.word-basis", "swizzle.segment-basis",
 * "swizzle.bank-basis") come back as Diagnostics instead of LogicError,
 * so the planner can step down its fallback ladder.
 */
Result<SwizzledShared>
tryComputeOptimalSwizzle(const LinearLayout &a, const LinearLayout &b,
                         int elemBytes, const sim::GpuSpec &spec,
                         int maxVecBytesOverride = 0);

/**
 * Wrap an arbitrary invertible memory layout (e.g. the legacy
 * vec/perPhase/maxPhase mma swizzle) as a SwizzledShared usable by the
 * executors: the vectorization is the largest run of low offset columns
 * lying in both layouts' register spans, and the bank/idx split follows
 * the same 128-byte rule as the optimal construction.
 */
SwizzledShared wrapMemoryLayout(const LinearLayout &mem,
                                const LinearLayout &a,
                                const LinearLayout &b, int elemBytes,
                                const sim::GpuSpec &spec);

/** Non-throwing wrapMemoryLayout. */
Result<SwizzledShared>
tryWrapMemoryLayout(const LinearLayout &mem, const LinearLayout &a,
                    const LinearLayout &b, int elemBytes,
                    const sim::GpuSpec &spec);

/**
 * The padded rung of the fallback ladder: an *unswizzled* row-major
 * shared layout over A's output space with bank-offset padding chosen
 * to break the row-stride conflicts swizzling would normally remove.
 * The padding is kept only when it measurably lowers the enumerated
 * wavefront totals for both sides. Failpoint site: "plan.padded".
 */
Result<SwizzledShared>
planPaddedShared(const LinearLayout &a, const LinearLayout &b,
                 int elemBytes, const sim::GpuSpec &spec);

/**
 * The terminal rung: the same row-major layout accessed element by
 * element (vectorization 1), with no swizzle and no padding. Correct
 * for any pair of surjective layouts. Failpoint site: "plan.scalar".
 */
Result<SwizzledShared>
planScalarShared(const LinearLayout &a, const LinearLayout &b,
                 int elemBytes, const sim::GpuSpec &spec);

/**
 * Lemma 9.4: the analytic number of wavefronts per warp access when a
 * distributed layout reads/writes through `swz`. Returns n * c where
 * c = |span(S_Vec u S_Idx) ^ span(L_Thr)| and n is the number of banks
 * each vectorized element covers (>= 1). Requires an unpadded swizzle:
 * padding breaks the per-access uniformity the lemma rests on — padded
 * layouts are audited by totals via enumerateWavefronts instead.
 */
int64_t analyticWavefronts(const SwizzledShared &swz,
                           const LinearLayout &dist, int elemBytes,
                           const sim::GpuSpec &spec);

/**
 * Non-throwing analyticWavefronts: a padded swizzle comes back as an
 * InvalidInput Diagnostic (stage "swizzle.analytic") instead of an
 * exception — Lemma 9.4's per-access uniformity does not survive
 * padding, so padded layouts must be priced by enumerateWavefronts.
 */
Result<int64_t> tryAnalyticWavefronts(const SwizzledShared &swz,
                                      const LinearLayout &dist,
                                      int elemBytes,
                                      const sim::GpuSpec &spec);

/**
 * One side of a shared conversion as F2 columns: the composed map
 *     tensorToOffset . dist : register x lane x warp -> offset
 * as one linear offset word per input bit, register bits first, then
 * lane, then warp bits (a dim `dist` lacks has no columns). A shared
 * candidate composes each side once; its ldmatrix/stmatrix tile test,
 * register groups, warp access table and wavefront total all read
 * these words. `dist` may list its dims in any order.
 */
struct OffsetColumns
{
    OffsetColumns(const SwizzledShared &swz, const LinearLayout &dist);

    std::vector<uint64_t> cols;
    int regLog = 0;
    int laneLog = 0;
    int warpLog = 0;
    /** `dist` names a register dim, possibly of size 1. */
    bool hasRegisterDim = false;

    uint64_t reg(int i) const { return cols[static_cast<size_t>(i)]; }
    uint64_t
    lane(int i) const
    {
        return cols[static_cast<size_t>(regLog + i)];
    }
};

/**
 * Theorem 5.1 for the ldmatrix/stmatrix tile of Section 5.3 on one
 * side's columns, registers freely permuted: with r = log2(4 /
 * elemBytes), some register column equals 1 << i for each i < r, lane
 * columns 0 and 1 equal 1 << r and 1 << (r + 1), and no other column
 * touches those r + 2 low offset bits. False for elements wider than 4
 * bytes. check::reference::matchesLdmatrixTile is the tile-division
 * twin the differential suite compares it with.
 */
bool matchesMatrixTile(const OffsetColumns &side, int elemBytes);

/**
 * Distinct vectorized register groups of one side through `swz`: one
 * representative register index per vec-aligned offset window (computed
 * at lane 0, warp 0 — the grouping is lane/warp-invariant by
 * linearity). Each (warp, rep) pair is one simulated warp access.
 */
std::vector<int32_t> registerGroupReps(const SwizzledShared &swz,
                                       const OffsetColumns &side);

/** registerGroupReps on the columns of `dist`. */
std::vector<int32_t> registerGroupReps(const SwizzledShared &swz,
                                       const LinearLayout &dist);

/** Warp accesses one full store or load pass issues: warps x reps. */
int64_t countWarpAccesses(const SwizzledShared &swz,
                          const LinearLayout &dist);

/**
 * Total wavefronts of a full store or load pass on sim::SharedMemory's
 * bank model, over every pass of a windowed swizzle. Unlike
 * analyticWavefronts it is valid for padded and windowed layouts; the
 * padded and scalar rungs are priced and audited with these totals.
 * Where every access is a vec-aligned XOR translate of access (0, 0)
 * lying wholly in one window (unpadded, lanes fit the window — always
 * so unwindowed), every access costs the same, so the total is that
 * one access's count times countWarpAccesses; padded layouts and lanes
 * that straddle a window price every access of every pass.
 */
int64_t enumerateWavefronts(const SwizzledShared &swz,
                            const OffsetColumns &side, int elemBytes,
                            const sim::GpuSpec &spec);

/** enumerateWavefronts on the columns of `dist`. */
int64_t enumerateWavefronts(const SwizzledShared &swz,
                            const LinearLayout &dist, int elemBytes,
                            const sim::GpuSpec &spec);

/**
 * Precomputed per-warp access addressing for one side of a swizzle.
 * The map lane/reg/warp -> storage offset decomposes as
 *     off(rep | lane | warp) = C(rep) ^ C(lane) ^ C(warp)
 * over the side's OffsetColumns C = tensorToOffset . dist (both maps
 * are F2-linear; the affine padOffset is applied per lane afterwards,
 * and the vec-window mask commutes with XOR). Each warp access is
 * warpSize XORs — no layout objects, no per-access allocation. The
 * differential suite pins the produced offsets bit-identical to
 * warpAccessOffsets.
 */
class WarpAccessTable
{
  public:
    WarpAccessTable(const SwizzledShared &swz, const OffsetColumns &side);
    /** The table of `dist`'s columns. */
    WarpAccessTable(const SwizzledShared &swz, const LinearLayout &dist);

    int warpSize() const { return static_cast<int>(laneMasked_.size()); }

    /**
     * Append the warpSize() per-lane storage offsets of one vectorized
     * warp access (register-group rep, warp) to `out` — identical
     * values, in lane order, to warpAccessOffsets(swz, dist, rep, warp,
     * warpSize()).
     */
    void offsetsInto(int32_t rep, int32_t warp,
                     std::vector<int64_t> &out) const;

    /**
     * The linear offset of lane 0 of access (rep, warp), vec bits
     * cleared, before padding. Lane l of the access sits at
     * padOffset(base ^ x_l), where x_l is a vec-aligned per-lane term
     * independent of the access; access (0, 0) has base 0.
     */
    uint64_t base(int32_t rep, int32_t warp) const;

    /**
     * True iff every access lies inside the `window`-aligned block of
     * its base: the swizzle is unpadded and every per-lane term x_l is
     * below `window` (a power of two). Then access (rep, warp) touches
     * only offsets in [lo, lo + window) with lo = base & ~(window - 1),
     * and its window-local offsets are (base & (window - 1)) ^ x_l.
     */
    bool lanesFit(int64_t window) const;

  private:
    const SwizzledShared &swz_;
    int regLog_ = 0;
    int warpShift_ = 0;             // regLog + laneLog
    std::vector<uint64_t> cols_;    // composed columns, input-bit order
    std::vector<uint64_t> laneMasked_; // per-lane XOR, vec bits cleared
    uint64_t laneBits_ = 0;         // OR of laneMasked_
    uint64_t keepMask_ = 0;         // ~vecMask
};

/**
 * Per-lane element offsets for one vectorized warp access: lane l of
 * `dist` (at the given warp and register-group rep) accesses
 * swz.vecElems() consecutive elements starting at the returned offset.
 * `repBase` enumerates the register groups: it is the register index
 * with the vectorized bits cleared. Offsets are *storage* offsets: when
 * the swizzle is padded, padOffset has already been applied (padding is
 * a multiple of vecElems, so windows stay vec-aligned).
 */
std::vector<int64_t> warpAccessOffsets(const SwizzledShared &swz,
                                       const LinearLayout &dist,
                                       int32_t repBase, int32_t warp,
                                       int warpSize);

} // namespace codegen
} // namespace ll

#endif // LL_CODEGEN_SWIZZLE_H
