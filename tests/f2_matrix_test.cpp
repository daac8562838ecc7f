/**
 * @file
 * Unit and property tests for F2Matrix: every algebraic operation is
 * checked against brute-force enumeration on random small matrices.
 */

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "f2/matrix.h"

namespace ll {
namespace f2 {
namespace {

F2Matrix
randomMatrix(std::mt19937 &rng, int rows, int cols)
{
    F2Matrix m(rows, cols);
    std::uniform_int_distribution<uint64_t> dist(
        0, (rows == 64) ? ~uint64_t(0) : (uint64_t(1) << rows) - 1);
    for (int j = 0; j < cols; ++j)
        m.setCol(j, dist(rng));
    return m;
}

/** A random matrix guaranteed surjective: random invertible row mixing
 *  of [I | junk]. */
F2Matrix
randomSurjective(std::mt19937 &rng, int rows, int cols)
{
    EXPECT_GE(cols, rows);
    while (true) {
        F2Matrix m = randomMatrix(rng, rows, cols);
        // Plant an identity in random column positions to force full rank.
        std::vector<int> perm(cols);
        for (int i = 0; i < cols; ++i)
            perm[i] = i;
        std::shuffle(perm.begin(), perm.end(), rng);
        for (int i = 0; i < rows; ++i)
            m.setCol(perm[i], uint64_t(1) << i);
        if (m.isSurjective())
            return m;
    }
}

TEST(F2Matrix, IdentityActsTrivially)
{
    F2Matrix id = F2Matrix::identity(5);
    for (uint64_t x = 0; x < 32; ++x)
        EXPECT_EQ(id.apply(x), x);
}

TEST(F2Matrix, ZeroMapsEverythingToZero)
{
    F2Matrix z = F2Matrix::zeros(4, 6);
    for (uint64_t x = 0; x < 64; ++x)
        EXPECT_EQ(z.apply(x), 0u);
}

TEST(F2Matrix, ApplyIsLinear)
{
    std::mt19937 rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        F2Matrix m = randomMatrix(rng, 6, 5);
        for (uint64_t x = 0; x < 32; ++x) {
            for (uint64_t y = 0; y < 32; ++y) {
                EXPECT_EQ(m.apply(x ^ y), m.apply(x) ^ m.apply(y));
            }
        }
    }
}

TEST(F2Matrix, MultiplyMatchesComposition)
{
    std::mt19937 rng(2);
    for (int trial = 0; trial < 50; ++trial) {
        F2Matrix a = randomMatrix(rng, 5, 4);
        F2Matrix b = randomMatrix(rng, 4, 6);
        F2Matrix c = a.multiply(b);
        for (uint64_t x = 0; x < 64; ++x)
            EXPECT_EQ(c.apply(x), a.apply(b.apply(x)));
    }
}

TEST(F2Matrix, TransposeIsInvolution)
{
    std::mt19937 rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        F2Matrix m = randomMatrix(rng, 7, 4);
        EXPECT_EQ(m.transpose().transpose(), m);
    }
}

TEST(F2Matrix, TransposeSwapsEntries)
{
    std::mt19937 rng(4);
    F2Matrix m = randomMatrix(rng, 6, 3);
    F2Matrix t = m.transpose();
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_EQ(m.get(i, j), t.get(j, i));
}

TEST(F2Matrix, RankMatchesBruteForceImageSize)
{
    std::mt19937 rng(5);
    for (int trial = 0; trial < 100; ++trial) {
        F2Matrix m = randomMatrix(rng, 5, 5);
        std::set<uint64_t> image;
        for (uint64_t x = 0; x < 32; ++x)
            image.insert(m.apply(x));
        EXPECT_EQ(uint64_t(1) << m.rank(), image.size());
    }
}

TEST(F2Matrix, RankOfIdentity)
{
    EXPECT_EQ(F2Matrix::identity(8).rank(), 8);
    EXPECT_EQ(F2Matrix::zeros(8, 8).rank(), 0);
}

TEST(F2Matrix, InverseRoundTrips)
{
    std::mt19937 rng(6);
    int found = 0;
    while (found < 30) {
        F2Matrix m = randomMatrix(rng, 6, 6);
        if (!m.isInvertible())
            continue;
        ++found;
        F2Matrix inv = m.inverse();
        EXPECT_EQ(m.multiply(inv), F2Matrix::identity(6));
        EXPECT_EQ(inv.multiply(m), F2Matrix::identity(6));
    }
}

TEST(F2Matrix, SolveFindsASolutionWhenConsistent)
{
    std::mt19937 rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        F2Matrix m = randomMatrix(rng, 5, 6);
        std::uniform_int_distribution<uint64_t> dist(0, 63);
        uint64_t x0 = dist(rng);
        uint64_t b = m.apply(x0);
        auto x = m.solve(b);
        ASSERT_TRUE(x.has_value());
        EXPECT_EQ(m.apply(*x), b);
    }
}

TEST(F2Matrix, SolveDetectsInconsistency)
{
    // Rank-1 map onto {0, 1}: b = 2 is unreachable.
    F2Matrix m(2, 2);
    m.setCol(0, 0b01);
    m.setCol(1, 0b01);
    EXPECT_TRUE(m.solve(0b01).has_value());
    EXPECT_FALSE(m.solve(0b10).has_value());
    EXPECT_FALSE(m.solve(0b11).has_value());
}

TEST(F2Matrix, SolvePrefersZeroFreeVariables)
{
    // x0 is determined, x1 free: the solver must pick x1 = 0.
    F2Matrix m(1, 2);
    m.setCol(0, 1);
    m.setCol(1, 0);
    auto x = m.solve(1);
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(*x, 1u);
}

TEST(F2Matrix, RightInverseIsARightInverse)
{
    std::mt19937 rng(8);
    for (int trial = 0; trial < 100; ++trial) {
        F2Matrix m = randomSurjective(rng, 4, 7);
        F2Matrix r = m.rightInverse();
        EXPECT_EQ(m.multiply(r), F2Matrix::identity(4));
    }
}

TEST(F2Matrix, RightInverseOfIdentity)
{
    EXPECT_EQ(F2Matrix::identity(5).rightInverse(), F2Matrix::identity(5));
}

TEST(F2Matrix, RightInverseRejectsNonSurjective)
{
    F2Matrix m = F2Matrix::zeros(3, 3);
    EXPECT_THROW(m.rightInverse(), LogicError);
}

TEST(F2Matrix, KernelBasisSpansTheKernel)
{
    std::mt19937 rng(9);
    for (int trial = 0; trial < 100; ++trial) {
        F2Matrix m = randomMatrix(rng, 4, 6);
        auto kernel = m.kernelBasis();
        // Every basis vector is in the kernel.
        for (uint64_t k : kernel)
            EXPECT_EQ(m.apply(k), 0u);
        // Dimension matches rank-nullity.
        EXPECT_EQ(static_cast<int>(kernel.size()), 6 - m.rank());
        // Brute force: count kernel elements.
        int count = 0;
        for (uint64_t x = 0; x < 64; ++x)
            if (m.apply(x) == 0)
                ++count;
        EXPECT_EQ(count, 1 << kernel.size());
    }
}

TEST(F2Matrix, StackRowsAndConcatCols)
{
    F2Matrix a = F2Matrix::identity(2);
    F2Matrix b = F2Matrix::zeros(3, 2);
    F2Matrix s = a.stackRows(b);
    EXPECT_EQ(s.numRows(), 5);
    EXPECT_EQ(s.numCols(), 2);
    EXPECT_EQ(s.getCol(0), 0b1u);
    EXPECT_EQ(s.getCol(1), 0b10u);

    F2Matrix c = a.concatCols(F2Matrix::identity(2));
    EXPECT_EQ(c.numCols(), 4);
    EXPECT_EQ(c.getCol(2), 0b1u);
}

TEST(F2Matrix, BlockDiagonalIsTheDirectSum)
{
    F2Matrix a = F2Matrix::identity(2);
    F2Matrix b = F2Matrix::identity(3);
    F2Matrix d = a.blockDiagonal(b);
    EXPECT_EQ(d.numRows(), 5);
    EXPECT_EQ(d.numCols(), 5);
    EXPECT_EQ(d, F2Matrix::identity(5));

    // Direct-sum action: low bits through a, high bits through b.
    std::mt19937 rng(10);
    F2Matrix x = randomMatrix(rng, 3, 2);
    F2Matrix y = randomMatrix(rng, 2, 3);
    F2Matrix blk = x.blockDiagonal(y);
    for (uint64_t lo = 0; lo < 4; ++lo) {
        for (uint64_t hi = 0; hi < 8; ++hi) {
            uint64_t got = blk.apply(lo | (hi << 2));
            uint64_t want = x.apply(lo) | (y.apply(hi) << 3);
            EXPECT_EQ(got, want);
        }
    }
}

TEST(F2Matrix, InjectiveSurjectiveFlags)
{
    F2Matrix tall(4, 2);
    tall.setCol(0, 0b0001);
    tall.setCol(1, 0b0010);
    EXPECT_TRUE(tall.isInjective());
    EXPECT_FALSE(tall.isSurjective());

    F2Matrix wide(2, 4);
    wide.setCol(0, 0b01);
    wide.setCol(1, 0b10);
    wide.setCol(2, 0b11);
    wide.setCol(3, 0b00);
    EXPECT_TRUE(wide.isSurjective());
    EXPECT_FALSE(wide.isInjective());
}

TEST(F2Matrix, ToStringShowsGrid)
{
    F2Matrix m = F2Matrix::identity(2);
    EXPECT_EQ(m.toString(), "1 0\n0 1\n");
}

TEST(F2Matrix, OutOfRangeAccessesThrow)
{
    F2Matrix m(3, 3);
    EXPECT_THROW(m.get(3, 0), LogicError);
    EXPECT_THROW(m.get(0, 3), LogicError);
    EXPECT_THROW(m.getCol(5), LogicError);
    EXPECT_THROW(m.setCol(0, 0b1000), LogicError); // wider than 3 rows
}

/** Property sweep: solve() returns minimal solutions with free vars 0. */
class F2SolveSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(F2SolveSweep, SolutionHasZeroFreeVariables)
{
    std::mt19937 rng(GetParam());
    F2Matrix m = randomMatrix(rng, 4, 6);
    auto kernel = m.kernelBasis();
    for (uint64_t b = 0; b < 16; ++b) {
        auto x = m.solve(b);
        if (!x.has_value())
            continue;
        // No kernel element can be removed from x to lower its weight
        // while staying a solution with the pivot convention: check that
        // x is reproduced exactly by re-solving m x = m x.
        auto again = m.solve(m.apply(*x));
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(*again, *x);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, F2SolveSweep, ::testing::Range(0, 20));

// ----------------------------------------------------------------------
// Differential suite: every word-parallel kernel against its scalar
// *_reference twin, bit for bit, over edge shapes (1x1, full 64-row
// words, tall/wide extremes) and forced rank-deficient matrices.
// ----------------------------------------------------------------------

class F2Differential : public ::testing::TestWithParam<int>
{
};

TEST_P(F2Differential, WordParallelMatchesReferenceBitForBit)
{
    std::mt19937 rng(0xf2f2u + static_cast<unsigned>(GetParam()));
    std::uniform_int_distribution<int> dim(1, 64);
    std::vector<std::pair<int, int>> shapes = {
        {1, 1}, {64, 64}, {64, 1}, {1, 64}, {63, 17}, {2, 40}};
    for (int extra = 0; extra < 4; ++extra)
        shapes.emplace_back(dim(rng), dim(rng));
    for (auto [rows, cols] : shapes) {
        F2Matrix m = randomMatrix(rng, rows, cols);
        if (cols > 2 && (GetParam() & 1)) {
            // Force rank deficiency: duplicate a column, zero another.
            m.setCol(cols - 1, m.getCol(0));
            m.setCol(cols / 2, 0);
        }
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
        EXPECT_EQ(m.transpose(), m.transpose_reference());
        EXPECT_EQ(m.rank(), m.rank_reference());
        EXPECT_EQ(m.kernelBasis(), m.kernelBasis_reference());

        std::uniform_int_distribution<uint64_t> vec(
            0, (cols == 64) ? ~uint64_t(0) : (uint64_t(1) << cols) - 1);
        std::uniform_int_distribution<uint64_t> target(
            0, (rows == 64) ? ~uint64_t(0) : (uint64_t(1) << rows) - 1);
        for (int t = 0; t < 8; ++t) {
            const uint64_t x = vec(rng);
            EXPECT_EQ(m.apply(x), m.apply_reference(x));
            // The echelon engine packs [M | b] into 64-bit rows, so
            // solve's domain is cols <= 63. Random targets hit the
            // inconsistent branch, images the consistent one; both
            // must agree on value and presence.
            if (cols <= 63) {
                const uint64_t b = target(rng);
                EXPECT_EQ(m.solve(b), m.solve_reference(b));
                const uint64_t img = m.apply(vec(rng));
                EXPECT_EQ(m.solve(img), m.solve_reference(img));
            }
        }
        F2Matrix n = randomMatrix(rng, cols, dim(rng));
        EXPECT_EQ(m.multiply(n), m.multiply_reference(n));
    }
    // rightInverse augments with an m-row identity: rows + cols <= 64.
    for (auto [rows, cols] : std::vector<std::pair<int, int>>{
             {1, 1}, {8, 12}, {32, 32}, {5, 59}}) {
        F2Matrix s = randomSurjective(rng, rows, cols);
        SCOPED_TRACE("surjective " + std::to_string(rows) + "x" +
                     std::to_string(cols));
        EXPECT_EQ(s.rightInverse(), s.rightInverse_reference());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, F2Differential, ::testing::Range(0, 40));

} // namespace
} // namespace f2
} // namespace ll
