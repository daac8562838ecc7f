/**
 * @file
 * Subspace computations over F2 on packed bit-vectors.
 *
 * The paper's warp-shuffle planner and optimal-swizzle algorithm (§5.4 and
 * appendix §9.2) are phrased entirely in terms of spans, basis
 * completions, complements, and intersections of subspaces of F2^d. This
 * module provides those primitives on bit-packed vectors.
 */

#ifndef LL_F2_SUBSPACE_H
#define LL_F2_SUBSPACE_H

#include <cstdint>
#include <vector>

namespace ll {
namespace f2 {

/**
 * An incrementally-built reduced echelon basis of a subspace of F2^d.
 *
 * Vectors are kept reduced against each other, so membership tests
 * ("is v in the span?") are a single reduction pass. This is the workhorse
 * behind span/complement/completion queries.
 *
 * The basis is stored as a pivot table indexed by leading bit: reduce is
 * "XOR out the pivot row while the leading bit has one", and insert is an
 * O(1) table write plus back-reduction of the pivots above it. Reduction
 * by leading bit is a forced procedure — every step is determined by the
 * current leading bit and the unique pivot row holding it — so the table
 * form produces bit-identical values and vectors() order (descending
 * pivot == descending value when leading bits are distinct) to the
 * sorted-vector EchelonBasisReference below, which the differential
 * suite checks exhaustively.
 */
class EchelonBasis
{
  public:
    EchelonBasis() = default;

    /** Build from an arbitrary (possibly dependent) generating set. */
    explicit EchelonBasis(const std::vector<uint64_t> &generators);

    /**
     * Try to add v to the basis. Returns true if v was independent of the
     * current span (and the basis grew), false if v was already in it.
     */
    bool insert(uint64_t v);

    /** True iff v lies in the span of the inserted vectors. */
    bool contains(uint64_t v) const;

    /** Reduce v modulo the span; returns 0 iff contains(v). */
    uint64_t reduce(uint64_t v) const;

    int dimension() const;

    /** The reduced basis vectors, in decreasing leading-bit order, read
     *  off the pivot table on each call. */
    std::vector<uint64_t> vectors() const;

  private:
    uint64_t table_[64] = {0}; // table_[p] = basis vector with leading bit p
    uint64_t pivotMask_ = 0;   // bit p set iff table_[p] is occupied
};

/**
 * The original sorted-vector echelon basis, kept verbatim as the
 * differential oracle for EchelonBasis.
 */
class EchelonBasisReference
{
  public:
    EchelonBasisReference() = default;

    explicit EchelonBasisReference(const std::vector<uint64_t> &generators);

    bool insert(uint64_t v);
    bool contains(uint64_t v) const;
    uint64_t reduce(uint64_t v) const;

    int dimension() const { return static_cast<int>(basis_.size()); }
    const std::vector<uint64_t> &vectors() const { return basis_; }

  private:
    // Reduced basis, sorted by decreasing leading (highest set) bit.
    std::vector<uint64_t> basis_;
};

/** An independent subset of `vectors` spanning the same subspace. */
std::vector<uint64_t> reduceToBasis(const std::vector<uint64_t> &vectors);

/** Dimension of the span of `vectors`. */
int rankOfVectors(const std::vector<uint64_t> &vectors);

/** True iff v is a linear combination of `basis`. */
bool spanContains(const std::vector<uint64_t> &basis, uint64_t v);

/**
 * Extend an independent set to a basis of F2^dim by adding standard unit
 * vectors. Returns only the added vectors (a basis of a complement of the
 * input span), in increasing bit order.
 */
std::vector<uint64_t> complementBasis(const std::vector<uint64_t> &basis,
                                      int dim);

/**
 * Extend `basis` to a full basis of F2^dim; the result is `basis` followed
 * by the complement vectors.
 */
std::vector<uint64_t> completeBasis(const std::vector<uint64_t> &basis,
                                    int dim);

/**
 * Basis of span(U) (intersection) span(V) via the Zassenhaus algorithm.
 * Requires dim <= 32 so paired vectors fit in 64 bits; layout coordinate
 * spaces are far smaller than that in practice.
 */
std::vector<uint64_t> intersectSpans(const std::vector<uint64_t> &u,
                                     const std::vector<uint64_t> &v,
                                     int dim);

/**
 * All 2^k elements of the span of a k-element basis, in Gray-code-free
 * index order: element i is the XOR of basis vectors selected by bits of
 * i. Intended for small k (asserts k <= 20).
 */
std::vector<uint64_t> enumerateSpan(const std::vector<uint64_t> &basis);

/**
 * Scalar references for the free functions above, preserved verbatim as
 * oracles: no production code calls them; check::diffF2 and the
 * differential suite compare them bit for bit against the fast versions.
 */
std::vector<uint64_t>
reduceToBasis_reference(const std::vector<uint64_t> &vectors);
int rankOfVectors_reference(const std::vector<uint64_t> &vectors);
bool spanContains_reference(const std::vector<uint64_t> &basis, uint64_t v);
std::vector<uint64_t>
complementBasis_reference(const std::vector<uint64_t> &basis, int dim);
std::vector<uint64_t>
completeBasis_reference(const std::vector<uint64_t> &basis, int dim);
std::vector<uint64_t> intersectSpans_reference(const std::vector<uint64_t> &u,
                                               const std::vector<uint64_t> &v,
                                               int dim);
std::vector<uint64_t>
enumerateSpan_reference(const std::vector<uint64_t> &basis);

} // namespace f2
} // namespace ll

#endif // LL_F2_SUBSPACE_H
