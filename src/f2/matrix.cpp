#include "f2/matrix.h"

#include <sstream>

namespace ll {
namespace f2 {

F2Matrix::F2Matrix(int rows, int cols)
    : rows_(rows), cols_(static_cast<size_t>(cols), 0)
{
    llAssert(rows >= 0 && rows <= 64, "row count must be in [0, 64]");
    llAssert(cols >= 0 && cols <= 64, "column count must be in [0, 64]");
}

F2Matrix::F2Matrix(int rows, std::vector<uint64_t> cols)
    : rows_(rows), cols_(std::move(cols))
{
    llAssert(rows >= 0 && rows <= 64, "row count must be in [0, 64]");
    llAssert(cols_.size() <= 64, "column count must be in [0, 64]");
    for (uint64_t c : cols_) {
        llAssert(rows_ == 64 || c < (uint64_t(1) << rows_),
                 "column value wider than row count");
    }
}

F2Matrix
F2Matrix::identity(int n)
{
    F2Matrix m(n, n);
    for (int i = 0; i < n; ++i)
        m.cols_[i] = uint64_t(1) << i;
    return m;
}

F2Matrix
F2Matrix::zeros(int rows, int cols)
{
    return F2Matrix(rows, cols);
}

F2Matrix
F2Matrix::multiply(const F2Matrix &other) const
{
    llAssert(numCols() == other.numRows(),
             "shape mismatch in multiply: " << rows_ << "x" << numCols()
                 << " * " << other.numRows() << "x" << other.numCols());
    F2Matrix out(rows_, other.numCols());
    for (int j = 0; j < other.numCols(); ++j)
        out.cols_[j] = apply(other.cols_[j]);
    return out;
}

F2Matrix
F2Matrix::multiply_reference(const F2Matrix &other) const
{
    llAssert(numCols() == other.numRows(),
             "shape mismatch in multiply: " << rows_ << "x" << numCols()
                 << " * " << other.numRows() << "x" << other.numCols());
    F2Matrix out(rows_, other.numCols());
    for (int j = 0; j < other.numCols(); ++j)
        out.cols_[j] = apply_reference(other.cols_[j]);
    return out;
}

F2Matrix
F2Matrix::transpose() const
{
    uint64_t block[64] = {0};
    for (int j = 0; j < numCols(); ++j)
        block[j] = cols_[j];
    transpose64(block);
    F2Matrix out(numCols(), rows_);
    for (int i = 0; i < rows_; ++i)
        out.cols_[i] = block[i];
    return out;
}

F2Matrix
F2Matrix::transpose_reference() const
{
    F2Matrix out(numCols(), rows_);
    for (int j = 0; j < numCols(); ++j)
        for (int i = 0; i < rows_; ++i)
            if (get(i, j))
                out.set(j, i, true);
    return out;
}

F2Matrix::Echelon
F2Matrix::eliminate(std::vector<uint64_t> rows, int n) const
{
    // Reduced row-echelon form, pivoting only on the M part. Rows are
    // collected only after elimination completes, so every stored pivot
    // row is fully reduced against all pivots (not just earlier ones).
    std::vector<int> pivotColOfRow(static_cast<size_t>(rows_), -1);
    int pivotRow = 0;
    for (int col = 0; col < n && pivotRow < rows_; ++col) {
        int sel = -1;
        for (int i = pivotRow; i < rows_; ++i) {
            if (getBit(rows[i], col)) {
                sel = i;
                break;
            }
        }
        if (sel < 0)
            continue;
        std::swap(rows[pivotRow], rows[sel]);
        for (int i = 0; i < rows_; ++i) {
            if (i != pivotRow && getBit(rows[i], col))
                rows[i] ^= rows[pivotRow];
        }
        pivotColOfRow[pivotRow] = col;
        ++pivotRow;
    }
    Echelon ech;
    for (int i = 0; i < rows_; ++i) {
        ech.rows.push_back(rows[i]);
        ech.pivotCol.push_back(pivotColOfRow[i]);
    }
    return ech;
}

F2Matrix::Echelon
F2Matrix::echelonForm(const std::vector<uint64_t> &augCols) const
{
    const int n = numCols();
    const int width = n + static_cast<int>(augCols.size());
    llAssert(width <= 64, "echelon width " << width << " exceeds 64 bits");

    // Build packed rows of [M | aug] with one butterfly transpose of
    // the column block: entry (i, j) of [M | aug] is bit i of packed
    // column j, so the transposed block's word i is exactly row i.
    uint64_t block[64] = {0};
    for (int j = 0; j < n; ++j)
        block[j] = cols_[j];
    for (size_t a = 0; a < augCols.size(); ++a)
        block[n + static_cast<int>(a)] = augCols[a];
    transpose64(block);
    std::vector<uint64_t> rows(block, block + rows_);
    return eliminate(std::move(rows), n);
}

F2Matrix::Echelon
F2Matrix::echelonFormReference(const std::vector<uint64_t> &augCols) const
{
    const int n = numCols();
    const int width = n + static_cast<int>(augCols.size());
    llAssert(width <= 64, "echelon width " << width << " exceeds 64 bits");

    // Build packed rows of [M | aug] bit by bit.
    std::vector<uint64_t> rows(static_cast<size_t>(rows_), 0);
    for (int i = 0; i < rows_; ++i) {
        uint64_t r = 0;
        for (int j = 0; j < n; ++j)
            r |= getBit(cols_[j], i) << j;
        for (size_t a = 0; a < augCols.size(); ++a)
            r |= getBit(augCols[a], i) << (n + a);
        rows[i] = r;
    }
    return eliminate(std::move(rows), n);
}

int
F2Matrix::rank() const
{
    Echelon ech = echelonForm({});
    int r = 0;
    for (int p : ech.pivotCol)
        if (p >= 0)
            ++r;
    return r;
}

int
F2Matrix::rank_reference() const
{
    Echelon ech = echelonFormReference({});
    int r = 0;
    for (int p : ech.pivotCol)
        if (p >= 0)
            ++r;
    return r;
}

bool
F2Matrix::isInvertible() const
{
    return rows_ == numCols() && rank() == rows_;
}

F2Matrix
F2Matrix::inverse() const
{
    llAssert(rows_ == numCols(), "inverse of non-square matrix");
    F2Matrix inv = rightInverse();
    // For a square surjective map the right inverse is the inverse.
    return inv;
}

std::optional<uint64_t>
F2Matrix::solve(uint64_t b) const
{
    llAssert(rows_ == 64 || b < (uint64_t(1) << rows_),
             "rhs wider than row count");
    Echelon ech = echelonForm({b});
    const int n = numCols();
    uint64_t x = 0;
    for (size_t r = 0; r < ech.rows.size(); ++r) {
        uint64_t augBit = getBit(ech.rows[r], n);
        if (ech.pivotCol[r] >= 0) {
            x = setBit(x, ech.pivotCol[r], augBit);
        } else if ((ech.rows[r] & ((n < 64) ? ((uint64_t(1) << n) - 1)
                                            : ~uint64_t(0))) == 0 &&
                   augBit) {
            return std::nullopt; // 0 = 1 row: inconsistent
        }
    }
    return x;
}

std::optional<uint64_t>
F2Matrix::solve_reference(uint64_t b) const
{
    llAssert(rows_ == 64 || b < (uint64_t(1) << rows_),
             "rhs wider than row count");
    Echelon ech = echelonFormReference({b});
    const int n = numCols();
    uint64_t x = 0;
    for (size_t r = 0; r < ech.rows.size(); ++r) {
        uint64_t augBit = getBit(ech.rows[r], n);
        if (ech.pivotCol[r] >= 0) {
            x = setBit(x, ech.pivotCol[r], augBit);
        } else if ((ech.rows[r] & ((n < 64) ? ((uint64_t(1) << n) - 1)
                                            : ~uint64_t(0))) == 0 &&
                   augBit) {
            return std::nullopt; // 0 = 1 row: inconsistent
        }
    }
    return x;
}

F2Matrix
F2Matrix::rightInverse() const
{
    const int n = numCols();
    llAssert(n + rows_ <= 64,
             "rightInverse requires cols + rows <= 64 bits");
    std::vector<uint64_t> aug;
    aug.reserve(static_cast<size_t>(rows_));
    for (int i = 0; i < rows_; ++i)
        aug.push_back(uint64_t(1) << i);
    return rightInverseFromEchelon(echelonForm(aug));
}

F2Matrix
F2Matrix::rightInverse_reference() const
{
    const int n = numCols();
    llAssert(n + rows_ <= 64,
             "rightInverse requires cols + rows <= 64 bits");
    std::vector<uint64_t> aug;
    aug.reserve(static_cast<size_t>(rows_));
    for (int i = 0; i < rows_; ++i)
        aug.push_back(uint64_t(1) << i);
    return rightInverseFromEchelon(echelonFormReference(aug));
}

F2Matrix
F2Matrix::rightInverseFromEchelon(const Echelon &ech) const
{
    const int n = numCols();
    F2Matrix out(n, rows_);
    for (size_t r = 0; r < ech.rows.size(); ++r) {
        if (ech.pivotCol[r] >= 0) {
            for (int i = 0; i < rows_; ++i) {
                if (getBit(ech.rows[r], n + i))
                    out.set(ech.pivotCol[r], i, true);
            }
        } else {
            uint64_t mPart = ech.rows[r] &
                ((n < 64) ? ((uint64_t(1) << n) - 1) : ~uint64_t(0));
            uint64_t augPart = ech.rows[r] >> n;
            llAssert(!(mPart == 0 && augPart != 0),
                     "rightInverse of a non-surjective map");
        }
    }
    return out;
}

std::vector<uint64_t>
F2Matrix::kernelBasis() const
{
    return kernelBasisFromEchelon(echelonForm({}));
}

std::vector<uint64_t>
F2Matrix::kernelBasis_reference() const
{
    return kernelBasisFromEchelon(echelonFormReference({}));
}

std::vector<uint64_t>
F2Matrix::kernelBasisFromEchelon(const Echelon &ech) const
{
    const int n = numCols();

    std::vector<int> pivotOfCol(static_cast<size_t>(n), -1);
    for (size_t r = 0; r < ech.rows.size(); ++r)
        if (ech.pivotCol[r] >= 0)
            pivotOfCol[ech.pivotCol[r]] = static_cast<int>(r);

    std::vector<uint64_t> basis;
    for (int f = 0; f < n; ++f) {
        if (pivotOfCol[f] >= 0)
            continue; // pivot column, not free
        uint64_t v = uint64_t(1) << f;
        for (int c = 0; c < n; ++c) {
            int r = pivotOfCol[c];
            if (r >= 0 && getBit(ech.rows[r], f))
                v = setBit(v, c, 1);
        }
        basis.push_back(v);
    }
    return basis;
}

F2Matrix
F2Matrix::stackRows(const F2Matrix &other) const
{
    llAssert(numCols() == other.numCols(),
             "stackRows: column count mismatch");
    llAssert(rows_ + other.rows_ <= 64, "stackRows: too many rows");
    F2Matrix out(rows_ + other.rows_, numCols());
    for (int j = 0; j < numCols(); ++j)
        out.cols_[j] = cols_[j] | (other.cols_[j] << rows_);
    return out;
}

F2Matrix
F2Matrix::concatCols(const F2Matrix &other) const
{
    llAssert(rows_ == other.rows_, "concatCols: row count mismatch");
    std::vector<uint64_t> cols = cols_;
    cols.insert(cols.end(), other.cols_.begin(), other.cols_.end());
    llAssert(cols.size() <= 64, "concatCols: too many columns");
    return F2Matrix(rows_, std::move(cols));
}

F2Matrix
F2Matrix::blockDiagonal(const F2Matrix &other) const
{
    llAssert(rows_ + other.rows_ <= 64, "blockDiagonal: too many rows");
    F2Matrix out(rows_ + other.rows_, numCols() + other.numCols());
    for (int j = 0; j < numCols(); ++j)
        out.cols_[j] = cols_[j];
    for (int j = 0; j < other.numCols(); ++j)
        out.cols_[numCols() + j] = other.cols_[j] << rows_;
    return out;
}

std::string
F2Matrix::toString() const
{
    std::ostringstream oss;
    for (int i = 0; i < rows_; ++i) {
        for (int j = 0; j < numCols(); ++j)
            oss << (get(i, j) ? '1' : '0') << (j + 1 < numCols() ? ' ' : '\n');
        if (numCols() == 0)
            oss << '\n';
    }
    return oss.str();
}

} // namespace f2
} // namespace ll
