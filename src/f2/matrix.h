/**
 * @file
 * Dense linear algebra over the two-element field F2.
 *
 * An F2Matrix with m rows and n columns represents a linear map
 * F2^n -> F2^m. Columns are stored as bit-packed uint64 values (bit i of
 * column j is entry (i, j)), which makes matrix-vector application a
 * handful of XORs and keeps every algorithm allocation-free in the common
 * case. Layout spaces never exceed a few dozen bits, so the 64-row limit
 * is not a practical restriction; it is asserted, not silently truncated.
 *
 * This module is the computational core of the paper: composition,
 * inversion, right ("least squares") inversion, and kernel computation
 * over F2 are exactly the operations Section 4 of the paper uses to
 * define and convert tensor layouts.
 */

#ifndef LL_F2_MATRIX_H
#define LL_F2_MATRIX_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/bits.h"
#include "support/diagnostics.h"

namespace ll {
namespace f2 {

class F2Matrix
{
  public:
    /** Create an all-zero matrix of the given shape. */
    F2Matrix(int rows, int cols);

    /** Create a matrix from explicit columns (bit i of col j = (i,j)). */
    F2Matrix(int rows, std::vector<uint64_t> cols);

    /** The n x n identity. */
    static F2Matrix identity(int n);

    /** An all-zero rows x cols matrix. */
    static F2Matrix zeros(int rows, int cols);

    int numRows() const { return rows_; }
    int numCols() const { return static_cast<int>(cols_.size()); }

    /** Entry (i, j) as 0/1. */
    bool
    get(int i, int j) const
    {
        checkIndex(i, j);
        return getBit(cols_[j], i) != 0;
    }

    void
    set(int i, int j, bool v)
    {
        checkIndex(i, j);
        cols_[j] = setBit(cols_[j], i, v ? 1 : 0);
    }

    /** Column j as a packed bit-vector. */
    uint64_t
    getCol(int j) const
    {
        llAssert(j >= 0 && j < numCols(), "column out of range");
        return cols_[j];
    }

    void
    setCol(int j, uint64_t v)
    {
        llAssert(j >= 0 && j < numCols(), "column out of range");
        llAssert(rows_ == 64 || v < (uint64_t(1) << rows_),
                 "column value wider than row count");
        cols_[j] = v;
    }

    const std::vector<uint64_t> &columns() const { return cols_; }

    /**
     * Apply the matrix to a packed vector: the XOR of the columns
     * selected by the set bits of x. Word-parallel: each column is
     * folded in with a branchless mask-select (`col & -bit`), so the
     * loop is a straight run of ands and xors with no data-dependent
     * branches.
     */
    uint64_t
    apply(uint64_t x) const
    {
        uint64_t acc = 0;
        for (int j = 0; j < numCols(); ++j) {
            acc ^= cols_[j] & (uint64_t(0) - ((x >> j) & 1));
        }
        return acc;
    }

    /** The original scalar apply, kept as the differential oracle. */
    uint64_t
    apply_reference(uint64_t x) const
    {
        uint64_t acc = 0;
        for (int j = 0; j < numCols(); ++j) {
            if (getBit(x, j))
                acc ^= cols_[j];
        }
        return acc;
    }

    /** Matrix product this * other over F2. */
    F2Matrix multiply(const F2Matrix &other) const;

    /** Scalar multiply via apply_reference, for the differential suite. */
    F2Matrix multiply_reference(const F2Matrix &other) const;

    F2Matrix transpose() const;

    /** The original per-bit transpose, kept as the differential oracle. */
    F2Matrix transpose_reference() const;

    /** Rank via Gaussian elimination. */
    int rank() const;

    /** Rank over the scalar echelon engine. */
    int rank_reference() const;

    bool isSurjective() const { return rank() == rows_; }
    bool isInjective() const { return rank() == numCols(); }
    bool isInvertible() const;

    /** Inverse of a square invertible matrix; asserts invertibility. */
    F2Matrix inverse() const;

    /**
     * Solve M x = b with all free variables set to zero (the minimal
     * Hamming-weight convention from Section 5.4 of the paper). Returns
     * nullopt when the system is inconsistent.
     */
    std::optional<uint64_t> solve(uint64_t b) const;

    /**
     * Right inverse: an n x m matrix R with M R = I_m. Requires the map
     * to be surjective. Free variables are resolved to zero, matching
     * the paper's broadcast-promoting pseudo-inverse.
     */
    F2Matrix rightInverse() const;

    /** Scalar rightInverse over the reference echelon engine. */
    F2Matrix rightInverse_reference() const;

    /** A basis of the null space, as packed column vectors. */
    std::vector<uint64_t> kernelBasis() const;

    /** Scalar kernelBasis over the reference echelon engine. */
    std::vector<uint64_t> kernelBasis_reference() const;

    /** Scalar solve over the reference echelon engine. */
    std::optional<uint64_t> solve_reference(uint64_t b) const;

    /** Stack this on top of other: [this; other] (same column count). */
    F2Matrix stackRows(const F2Matrix &other) const;

    /** Concatenate columns: [this | other] (same row count). */
    F2Matrix concatCols(const F2Matrix &other) const;

    /** Block diagonal [this 0; 0 other] — the layout product. */
    F2Matrix blockDiagonal(const F2Matrix &other) const;

    bool
    operator==(const F2Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_;
    }

    bool operator!=(const F2Matrix &other) const { return !(*this == other); }

    /** Multi-line 0/1 grid, for diagnostics. */
    std::string toString() const;

  private:
    void
    checkIndex(int i, int j) const
    {
        llAssert(i >= 0 && i < rows_ && j >= 0 && j < numCols(),
                 "index (" << i << ", " << j << ") out of range for "
                           << rows_ << "x" << numCols());
    }

    /**
     * Row-echelon engine shared by rank / solve / inverse. Rows of
     * [M | aug] are packed as (row of M in low bits, aug row above).
     * Returns pivot column per row (or -1) and the reduced rows.
     *
     * The fast engine packs [M | aug] rows with one 64x64 butterfly
     * transpose (support/bits.h transpose64) instead of the reference
     * engine's per-bit gather; elimination itself was always row-packed.
     */
    struct Echelon
    {
        std::vector<uint64_t> rows;   // packed [M | aug] rows, reduced
        std::vector<int> pivotCol;    // pivot column index per stored row
    };
    Echelon echelonForm(const std::vector<uint64_t> &augCols) const;
    Echelon echelonFormReference(const std::vector<uint64_t> &augCols)
        const;
    Echelon eliminate(std::vector<uint64_t> rows, int n) const;
    F2Matrix rightInverseFromEchelon(const Echelon &ech) const;
    std::vector<uint64_t> kernelBasisFromEchelon(const Echelon &ech) const;

    int rows_;
    std::vector<uint64_t> cols_;
};

} // namespace f2
} // namespace ll

#endif // LL_F2_MATRIX_H
