/**
 * @file
 * LinearLayout: a linear map between labeled vector spaces over F2.
 *
 * This is the paper's central abstraction (Definition 4.1). A layout has
 * named input dimensions (hardware resources such as "register", "lane",
 * "warp", or "offset") and named output dimensions (logical tensor axes
 * "dim0", "dim1", ...). Each input dimension of size 2^k contributes k
 * basis vectors; basis vector i of an input dimension records where input
 * index 2^i lands in the output space. The image of an arbitrary input is
 * the XOR of the images of its set bits — linearity over F2.
 *
 * Dimension order matters: the first input dimension occupies the least
 * significant bits of the flattened input space, and the first output
 * dimension is the fastest-moving axis of the flattened output space,
 * matching the convention in Section 4.1 of the paper.
 *
 * Storage is the F2 matrix itself: one uint64_t column per input bit,
 * holding that basis vector's image as a flattened output index (first
 * output dimension in the low bits). Every operation is word arithmetic
 * on those columns; the nested per-coordinate form (BasesT) is only the
 * constructor's input format and getBases()' decoded output.
 *
 * The class provides the algebra of Section 4.2 — composition, the
 * product (direct sum), right inverses computed as F2 least squares, and
 * left division — plus the shape-operation support (transpose / reshape /
 * flatten of input and output spaces) that powers the layout engine of
 * Section 4.4.
 */

#ifndef LL_LAYOUT_LINEAR_LAYOUT_H
#define LL_LAYOUT_LINEAR_LAYOUT_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "f2/matrix.h"
#include "support/ordered_map.h"

namespace ll {

class LinearLayout
{
  public:
    /**
     * bases[inDim][i][j] is the coordinate in the j-th output dimension
     * (by output order) of the image of basis vector 2^i of inDim.
     */
    using BasesT =
        OrderedMap<std::string, std::vector<std::vector<int32_t>>>;

    /** A (dimension name, coordinate-or-size) pair. */
    using DimSize = std::pair<std::string, int32_t>;

    /** The empty layout: no input or output dimensions. */
    LinearLayout() = default;

    /**
     * Construct from bases with explicit output-dimension sizes (each a
     * power of two). If requireSurjective, construction asserts the map
     * covers the whole output space.
     */
    LinearLayout(BasesT bases, std::vector<DimSize> outDims,
                 bool requireSurjective = true);

    /**
     * Build from bases, inferring each output dimension size as the
     * smallest power of two containing all basis coordinates.
     */
    static LinearLayout makeWithInferredOutDims(
        BasesT bases, std::vector<std::string> outDimNames);

    /** The identity map of a 1D space of the given power-of-two size. */
    static LinearLayout identity1D(int32_t size, const std::string &inDim,
                                   const std::string &outDim);

    /**
     * A map sending all `size` input elements of inDim to zero in a
     * 1D output space of size outDimSize (broadcasting).
     */
    static LinearLayout zeros1D(int32_t size, const std::string &inDim,
                                const std::string &outDim,
                                int32_t outDimSize = 1);

    static LinearLayout empty() { return LinearLayout(); }

    // ------------------------------------------------------------------
    // Shape queries
    // ------------------------------------------------------------------

    bool hasInDim(const std::string &dim) const;
    bool hasOutDim(const std::string &dim) const;

    int getNumInDims() const { return static_cast<int>(inDims_.size()); }
    int getNumOutDims() const { return static_cast<int>(outDims_.size()); }

    std::vector<std::string> getInDimNames() const;
    std::vector<std::string> getOutDimNames() const;

    int32_t getInDimSizeLog2(const std::string &dim) const;
    int32_t getInDimSize(const std::string &dim) const;
    int32_t getOutDimSizeLog2(const std::string &dim) const;
    int32_t getOutDimSize(const std::string &dim) const;

    int32_t getTotalInDimSizeLog2() const;
    int32_t getTotalInDimSize() const;
    int32_t getTotalOutDimSizeLog2() const;
    int32_t getTotalOutDimSize() const;

    /** Output sizes in output order, as (name, size) pairs. */
    std::vector<DimSize> getOutDims() const { return outDims_; }

    /** Position of an input dim in the flattened input bit layout. */
    int32_t getInDimOffset(const std::string &dim) const;

    /** Position of an output dim in the flattened output bit layout. */
    int32_t getOutDimOffset(const std::string &dim) const;

    /** The basis vectors decoded to per-out-dim coordinates. */
    BasesT getBases() const;

    /** Image of basis vector 2^pos of inDim, one coord per out dim. */
    std::vector<int32_t> getBasis(const std::string &inDim,
                                  int32_t pos) const;

    /** Image coordinate in outDim of basis vector 2^pos of inDim. */
    int32_t getBasis(const std::string &inDim, int32_t pos,
                     const std::string &outDim) const;

    /**
     * Images of inDim's basis vectors flattened to single integers over
     * the whole output space (first out dim = least significant bits).
     * These are the column sets L_Reg / L_Thr / L_Wrp of Section 5.4.
     */
    std::vector<uint64_t> flattenedBases(const std::string &inDim) const;

    /** Flatten per-dim output coordinates into a single index. */
    uint64_t flattenOuts(const std::vector<DimSize> &coords) const;

    /** Split a flattened output index back into per-dim coordinates. */
    std::vector<DimSize> unflattenOuts(uint64_t flat) const;

    // ------------------------------------------------------------------
    // Application and algebra
    // ------------------------------------------------------------------

    /**
     * Apply the layout to per-dimension input coordinates. Every input
     * dimension must be present exactly once. Returns per-dimension
     * output coordinates in output order.
     */
    std::vector<DimSize> apply(const std::vector<DimSize> &ins) const;

    /**
     * Apply to a flattened input index, returning a flattened output.
     * Word-parallel: folds the columns with branchless mask-selects, no
     * per-call allocation.
     */
    uint64_t applyFlat(uint64_t in) const;

    /**
     * Composition outer . this (Definition 4.2): apply this first, then
     * outer. Requires this's output dims to match outer's input dims by
     * name, with each output size not exceeding the matching input size.
     */
    LinearLayout compose(const LinearLayout &outer) const;

    /**
     * The product (Definition 4.3). Shared dimension names are combined:
     * this occupies the low bits of the shared dims, other the high bits.
     */
    LinearLayout operator*(const LinearLayout &other) const;

    /** Inverse of an invertible layout. */
    LinearLayout invert() const;

    /**
     * Right inverse of a surjective layout (Definition 4.5), computed as
     * the F2 least-squares solution with free variables set to zero —
     * the broadcast-promoting convention of Section 5.4.
     */
    LinearLayout pseudoinvert() const;

    /**
     * The conversion map outer^-1 . this of Section 5.4, taking this
     * layout's input space into outer's input space. Both layouts must
     * be surjective onto the same (named) output space.
     */
    LinearLayout invertAndCompose(const LinearLayout &outer) const;

    /**
     * Left division (Definition 4.4): find Q with *this = divisor * Q,
     * or nullopt if this does not factor. Used to match instruction
     * tiles (Theorem 5.1).
     */
    std::optional<LinearLayout> divideLeft(const LinearLayout &divisor)
        const;

    // ------------------------------------------------------------------
    // Structural transforms (the shape operators of Section 4.4)
    // ------------------------------------------------------------------

    /** Restrict to the given input dims and project onto the out dims. */
    LinearLayout sublayout(const std::vector<std::string> &inDims,
                           const std::vector<std::string> &outDims) const;

    /** True iff the selected sub-block of the matrix is all zero. */
    bool sublayoutIsZero(const std::vector<std::string> &inDims,
                         const std::vector<std::string> &outDims) const;

    /** Reorder input dimensions (names must be a permutation). */
    LinearLayout transposeIns(const std::vector<std::string> &order) const;

    /** Reorder output dimensions (names must be a permutation). */
    LinearLayout transposeOuts(const std::vector<std::string> &order) const;

    /** Regroup input bits into new named dims of the same total size. */
    LinearLayout reshapeIns(const std::vector<DimSize> &newDims) const;

    /** Regroup output bits into new named dims of the same total size. */
    LinearLayout reshapeOuts(const std::vector<DimSize> &newDims) const;

    /** Collapse all input dims into one. */
    LinearLayout flattenIns(const std::string &name = "in") const;

    /** Collapse all output dims into one. */
    LinearLayout flattenOutsToDim(const std::string &name = "out") const;

    /** Rename an input dimension. */
    LinearLayout renameInDim(const std::string &from,
                             const std::string &to) const;

    /** Rename an output dimension. */
    LinearLayout renameOutDim(const std::string &from,
                              const std::string &to) const;

    /**
     * Drop basis vectors of `inDim` that map to zero (the broadcast
     * bits), shrinking that input dimension.
     */
    LinearLayout removeZeroBasesAlongDim(const std::string &inDim) const;

    // ------------------------------------------------------------------
    // Analyses
    // ------------------------------------------------------------------

    bool isSurjective() const { return surjective_; }
    bool isInjective() const;
    bool isInvertible() const { return surjective_ && isInjective(); }

    /** True iff every basis vector of every input dim is zero. */
    bool isZero() const;

    /**
     * Per input dimension, a bit mask of "free variables": input bits
     * whose basis vector is zero or linearly dependent on earlier ones.
     * Nonzero masks identify broadcasting (Section 5.1).
     */
    OrderedMap<std::string, int32_t> getFreeVariableMasks() const;

    /**
     * The largest power of two n such that input elements 0..n-1 of the
     * *first* input dimension map to consecutive elements of the
     * flattened output. This is the vectorization width analysis of
     * Section 5.1.
     */
    int32_t getNumConsecutiveInOut() const;

    /** The whole map as one F2 matrix over the flattened spaces. */
    f2::F2Matrix toF2Matrix() const;

    /**
     * Rebuild a layout from a flattened matrix, splitting rows/columns
     * back into the given labeled dims (sizes must sum correctly).
     */
    static LinearLayout fromF2Matrix(const f2::F2Matrix &m,
                                     const std::vector<DimSize> &inDims,
                                     const std::vector<DimSize> &outDims,
                                     bool requireSurjective = false);

    bool operator==(const LinearLayout &other) const;
    bool operator!=(const LinearLayout &other) const
    {
        return !(*this == other);
    }

    /**
     * True when both layouts describe the same map modulo trivial
     * (size-1) dimensions and output-size padding.
     */
    bool equalsIgnoringOutSizes(const LinearLayout &other) const;

    /**
     * Structural hash consistent with operator==: covers the labeled
     * input dims, every F2 basis coordinate, and the named/sized output
     * dims. This is the hash-consing key of the service-layer layout
     * interner (service::LayoutInterner), where equal layouts must
     * collapse to one canonical object.
     */
    uint64_t structuralHash() const;

    std::string toString() const;

    /**
     * A layout straight from its columns: inDims holds (name, log2 size)
     * with distinct names, cols one flattened image per input bit in
     * input order (first out dim in the low bits). Checks the output
     * sizes, the column count and the names, and decides surjectivity.
     * This is the one factory for layouts over new columns; operations
     * that only relabel or reorder copy *this instead, keeping its rank.
     */
    static LinearLayout fromColumns(std::vector<DimSize> inDims,
                                    std::vector<DimSize> outDims,
                                    std::vector<uint64_t> cols,
                                    bool requireSurjective);

  private:
    void checkOutDims() const;
    void decideSurjective(bool requireSurjective);
    void checkDistinctInDims() const;
    /** One column decoded to a coordinate per out dim. */
    std::vector<int32_t> unflattenOutsCoords(uint64_t flat) const;
    int32_t outDimIndex(const std::string &dim) const;
    int findInDim(const std::string &dim) const; ///< -1 when absent
    int inDimIndex(const std::string &dim) const;
    int32_t inDimBegin(int index) const;

    // Invariants, fixed at construction: inDims_ holds (name, log2 size)
    // with distinct names, and cols_ has one column per input bit in
    // input order (the sum of those log2 sizes). outDims_ holds (name,
    // size), every size a power of two and at most 64 bits in total;
    // every column lies below the total output size. surjective_ is the
    // rank test of cols_, taken once. Nothing is mutated afterwards, so
    // interner-shared layouts are read by many threads without locks.
    std::vector<DimSize> inDims_;
    std::vector<DimSize> outDims_;
    std::vector<uint64_t> cols_;
    bool surjective_ = true;
};

std::ostream &operator<<(std::ostream &os, const LinearLayout &layout);

} // namespace ll

#endif // LL_LAYOUT_LINEAR_LAYOUT_H
