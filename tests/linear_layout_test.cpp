/**
 * @file
 * Tests for the LinearLayout core: constructions, the worked example from
 * Section 4.1 / Table 1 of the paper, algebra (compose, product, inverse,
 * left division), shape transforms, and property sweeps over random
 * layouts.
 */

#include <gtest/gtest.h>

#include <random>

#include "check/generators.h"
#include "layout/dims.h"
#include "layout/linear_layout.h"

namespace ll {
namespace {

using DimSize = LinearLayout::DimSize;

/** Layout A from Figure 1(a) / Section 4.1: a 16x16 tensor tiled by
 *  2x2 registers, 4x8 threads, 2x1 warps. Out dims: (j fastest, i). */
LinearLayout
paperLayoutA()
{
    LinearLayout::BasesT bases;
    bases.insert(dims::kReg, {{1, 0}, {0, 1}});
    bases.insert(dims::kLane, {{2, 0}, {4, 0}, {8, 0}, {0, 2}, {0, 4}});
    bases.insert(dims::kWarp, {{0, 8}});
    return LinearLayout(std::move(bases), {{"j", 16}, {"i", 16}});
}

LinearLayout
randomInvertibleLayout(std::mt19937 &rng, int dim)
{
    // Random permutation-with-mixing matrix, converted to a layout.
    while (true) {
        f2::F2Matrix m(dim, dim);
        std::uniform_int_distribution<uint64_t> dist(
            0, (uint64_t(1) << dim) - 1);
        for (int j = 0; j < dim; ++j)
            m.setCol(j, dist(rng));
        if (!m.isInvertible())
            continue;
        return LinearLayout::fromF2Matrix(
            m, {{"in", 1 << dim}}, {{"out", 1 << dim}}, true);
    }
}

TEST(LinearLayout, EmptyLayout)
{
    LinearLayout l;
    EXPECT_EQ(l.getNumInDims(), 0);
    EXPECT_EQ(l.getNumOutDims(), 0);
    EXPECT_TRUE(l.isSurjective());
    EXPECT_EQ(l.getTotalInDimSize(), 1);
    EXPECT_EQ(l.getTotalOutDimSize(), 1);
}

TEST(LinearLayout, Identity1D)
{
    auto l = LinearLayout::identity1D(8, dims::kReg, "dim0");
    EXPECT_EQ(l.getInDimSize(dims::kReg), 8);
    EXPECT_EQ(l.getOutDimSize("dim0"), 8);
    EXPECT_TRUE(l.isSurjective());
    EXPECT_TRUE(l.isInvertible());
    for (int32_t x = 0; x < 8; ++x) {
        auto out = l.apply({{dims::kReg, x}});
        EXPECT_EQ(out[0].second, x);
    }
}

TEST(LinearLayout, Zeros1DBroadcasts)
{
    auto l = LinearLayout::zeros1D(4, dims::kLane, "dim0");
    EXPECT_EQ(l.getInDimSize(dims::kLane), 4);
    EXPECT_FALSE(l.isInjective());
    for (int32_t x = 0; x < 4; ++x)
        EXPECT_EQ(l.apply({{dims::kLane, x}})[0].second, 0);
}

TEST(LinearLayout, PaperTable1Locations)
{
    auto a = paperLayoutA();
    // Table 1 rows: (location) <- (register, thread, warp).
    struct Row
    {
        int32_t i, j, reg, thr, wrp;
    };
    const Row rows[] = {
        {0, 0, 0, 0, 0}, {0, 1, 1, 0, 0}, {0, 2, 0, 1, 0},
        {0, 3, 1, 1, 0}, {1, 0, 2, 0, 0}, {1, 1, 3, 0, 0},
        {2, 2, 0, 9, 0}, {2, 3, 1, 9, 0}, {3, 2, 2, 9, 0},
        {3, 3, 3, 9, 0},
    };
    for (const Row &r : rows) {
        auto out = a.apply({{dims::kReg, r.reg},
                            {dims::kLane, r.thr},
                            {dims::kWarp, r.wrp}});
        EXPECT_EQ(out[0].second, r.j) << "reg=" << r.reg << " thr=" << r.thr;
        EXPECT_EQ(out[1].second, r.i) << "reg=" << r.reg << " thr=" << r.thr;
    }
}

TEST(LinearLayout, PaperLayoutAIsBijective)
{
    auto a = paperLayoutA();
    EXPECT_TRUE(a.isSurjective());
    EXPECT_TRUE(a.isInjective());
    EXPECT_TRUE(a.isInvertible());
    EXPECT_EQ(a.getTotalInDimSize(), 256);
    EXPECT_EQ(a.getTotalOutDimSize(), 256);
}

TEST(LinearLayout, ApplyFlatMatchesApply)
{
    auto a = paperLayoutA();
    for (uint64_t v = 0; v < 256; ++v) {
        auto outFlat = a.applyFlat(v);
        int32_t reg = static_cast<int32_t>(v & 3);
        int32_t thr = static_cast<int32_t>((v >> 2) & 31);
        int32_t wrp = static_cast<int32_t>(v >> 7);
        auto out = a.apply({{dims::kReg, reg},
                            {dims::kLane, thr},
                            {dims::kWarp, wrp}});
        uint64_t expect = static_cast<uint64_t>(out[0].second) |
                          (static_cast<uint64_t>(out[1].second) << 4);
        EXPECT_EQ(outFlat, expect);
        EXPECT_EQ(outFlat, a.applyFlat_reference(v));
    }
    // The scalar reference on degenerate shapes: 0 input bits, a single
    // basis vector, and the widest of 200 generated layouts.
    std::mt19937 rng(11);
    LinearLayout widest = LinearLayout::empty();
    for (int i = 0; i < 200; ++i) {
        auto c = check::randomConversionCase(rng);
        for (const LinearLayout *l : {&c.src, &c.dst}) {
            if (l->getTotalInDimSizeLog2() > widest.getTotalInDimSizeLog2())
                widest = *l;
        }
    }
    ASSERT_GE(widest.getTotalInDimSizeLog2(), 12);
    for (const LinearLayout &l :
         {LinearLayout::empty(), LinearLayout::identity1D(1, dims::kReg, "x"),
          LinearLayout::identity1D(2, dims::kReg, "x"), widest}) {
        for (uint64_t v = 0; v < uint64_t(l.getTotalInDimSize()); ++v)
            EXPECT_EQ(l.applyFlat(v), l.applyFlat_reference(v)) << v;
    }
}

TEST(LinearLayout, ProductConcatenatesSharedDims)
{
    auto r = LinearLayout::identity1D(4, dims::kReg, "dim0");
    auto t = LinearLayout::identity1D(8, dims::kLane, "dim0");
    auto l = r * t;
    EXPECT_EQ(l.getOutDimSize("dim0"), 32);
    // register moves within the low 2 bits, lane over the high 3.
    for (int32_t reg = 0; reg < 4; ++reg) {
        for (int32_t lane = 0; lane < 8; ++lane) {
            auto out = l.apply({{dims::kReg, reg}, {dims::kLane, lane}});
            EXPECT_EQ(out[0].second, reg | (lane << 2));
        }
    }
}

TEST(LinearLayout, ProductOfDisjointDims)
{
    auto a = LinearLayout::identity1D(4, dims::kReg, "dim0");
    auto b = LinearLayout::identity1D(8, dims::kLane, "dim1");
    auto l = a * b;
    EXPECT_EQ(l.getOutDimSize("dim0"), 4);
    EXPECT_EQ(l.getOutDimSize("dim1"), 8);
    auto out = l.apply({{dims::kReg, 3}, {dims::kLane, 5}});
    EXPECT_EQ(out[0].second, 3);
    EXPECT_EQ(out[1].second, 5);
}

TEST(LinearLayout, ProductIsAssociativeOnExamples)
{
    auto a = LinearLayout::identity1D(2, dims::kReg, "dim0");
    auto b = LinearLayout::identity1D(4, dims::kLane, "dim0");
    auto c = LinearLayout::identity1D(2, dims::kWarp, "dim0");
    EXPECT_EQ((a * b) * c, a * (b * c));
}

TEST(LinearLayout, ComposeMatchesFunctionComposition)
{
    std::mt19937 rng(21);
    for (int trial = 0; trial < 20; ++trial) {
        auto f = randomInvertibleLayout(rng, 5);
        auto gRaw = randomInvertibleLayout(rng, 5);
        // g must consume f's out dim name.
        auto g = gRaw.renameInDim("in", "out").renameOutDim("out", "final");
        auto fg = f.compose(g);
        for (int32_t x = 0; x < 32; ++x) {
            auto mid = f.apply({{"in", x}});
            auto expect = g.apply({{"out", mid[0].second}});
            auto got = fg.apply({{"in", x}});
            EXPECT_EQ(got[0].second, expect[0].second);
        }
    }
}

TEST(LinearLayout, InvertRoundTrips)
{
    std::mt19937 rng(22);
    for (int trial = 0; trial < 30; ++trial) {
        auto l = randomInvertibleLayout(rng, 6);
        auto inv = l.invert();
        for (int32_t x = 0; x < 64; ++x) {
            auto y = l.apply({{"in", x}});
            auto back = inv.apply({{"out", y[0].second}});
            EXPECT_EQ(back[0].second, x);
        }
    }
}

TEST(LinearLayout, InvertPaperLayoutA)
{
    auto a = paperLayoutA();
    auto inv = a.invert();
    EXPECT_EQ(inv.getInDimNames(), (std::vector<std::string>{"j", "i"}));
    for (uint64_t v = 0; v < 256; ++v)
        EXPECT_EQ(inv.applyFlat(a.applyFlat(v)), v);
}

TEST(LinearLayout, PseudoinvertIsRightInverse)
{
    // A surjective, non-injective layout: 2 warps broadcast.
    auto l = LinearLayout::identity1D(8, dims::kReg, "dim0") *
             LinearLayout::zeros1D(2, dims::kWarp, "dim0");
    ASSERT_TRUE(l.isSurjective());
    ASSERT_FALSE(l.isInjective());
    auto pinv = l.pseudoinvert();
    for (int32_t y = 0; y < 8; ++y) {
        auto x = pinv.apply({{"dim0", y}});
        // Apply l to the recovered (reg, warp) coordinates.
        int32_t reg = 0, wrp = 0;
        for (auto &[d, v] : x) {
            if (d == dims::kReg)
                reg = v;
            else
                wrp = v;
        }
        auto back = l.apply({{dims::kReg, reg}, {dims::kWarp, wrp}});
        EXPECT_EQ(back[0].second, y);
        // Broadcast promotion: warp component should resolve to zero.
        EXPECT_EQ(wrp, 0);
    }
}

TEST(LinearLayout, InvertAndComposeIdentityWhenEqual)
{
    auto a = paperLayoutA();
    auto conv = a.invertAndCompose(a);
    // Converting a layout to itself must be the identity on every dim.
    for (uint64_t v = 0; v < 256; ++v)
        EXPECT_EQ(conv.applyFlat(v), v);
}

TEST(LinearLayout, InvertAndComposeMovesElements)
{
    // A: register-major rows; B: the transposed assignment.
    auto a = LinearLayout::identity1D(4, dims::kReg, "dim0") *
             LinearLayout::identity1D(8, dims::kLane, "dim1");
    auto b = LinearLayout::identity1D(4, dims::kReg, "dim1")
                 .renameOutDim("dim1", "dim1") *
             LinearLayout::identity1D(8, dims::kLane, "dim0");
    // Align output spaces: a has [dim0(4), dim1(8)], b has [dim1(4)...]
    // Build b directly over matching out sizes instead.
    LinearLayout::BasesT bb;
    bb.insert(dims::kReg, {{0, 1}, {0, 2}});
    bb.insert(dims::kLane, {{1, 0}, {2, 0}, {0, 4}});
    LinearLayout b2(std::move(bb), {{"dim0", 4}, {"dim1", 8}});
    auto conv = a.invertAndCompose(b2);
    // conv maps (reg, lane) of A to (reg, lane) of B such that both point
    // to the same logical element.
    for (int32_t reg = 0; reg < 4; ++reg) {
        for (int32_t lane = 0; lane < 8; ++lane) {
            auto elem = a.apply({{dims::kReg, reg}, {dims::kLane, lane}});
            auto dst = conv.apply({{dims::kReg, reg}, {dims::kLane, lane}});
            int32_t dreg = dst[0].second, dlane = dst[1].second;
            auto elem2 =
                b2.apply({{dims::kReg, dreg}, {dims::kLane, dlane}});
            EXPECT_EQ(elem, elem2);
        }
    }
}

TEST(LinearLayout, DivideLeftRecoversQuotient)
{
    auto tile = LinearLayout::identity1D(4, dims::kReg, "dim0");
    auto rest = LinearLayout::identity1D(8, dims::kLane, "dim0") *
                LinearLayout::identity1D(2, dims::kWarp, "dim1");
    auto whole = tile * rest;
    auto q = whole.divideLeft(tile);
    ASSERT_TRUE(q.has_value());
    // Quotient must reproduce the whole under the product.
    auto again = tile * *q;
    EXPECT_EQ(again.transposeIns(whole.getInDimNames()), whole);
}

TEST(LinearLayout, DivideLeftFailsWhenNotAFactor)
{
    // Layout where register bit 0 maps to dim0 bit 1: dividing by the
    // identity tile (register bit 0 -> dim0 bit 0) must fail.
    LinearLayout::BasesT bases;
    bases.insert(dims::kReg, {{2}, {1}});
    LinearLayout l(std::move(bases), {{"dim0", 4}});
    auto tile = LinearLayout::identity1D(2, dims::kReg, "dim0");
    EXPECT_FALSE(l.divideLeft(tile).has_value());
}

TEST(LinearLayout, DivideLeftByWholeLayoutGivesEmptyQuotient)
{
    auto l = LinearLayout::identity1D(8, dims::kReg, "dim0");
    auto q = l.divideLeft(l);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->getTotalInDimSize(), 1);
    EXPECT_EQ(q->getTotalOutDimSize(), 1);
}

TEST(LinearLayout, SublayoutSelectsBlocks)
{
    auto a = paperLayoutA();
    auto sub = a.sublayout({dims::kReg}, {"j"});
    EXPECT_EQ(sub.getNumInDims(), 1);
    EXPECT_EQ(sub.getNumOutDims(), 1);
    EXPECT_EQ(sub.getBasis(dims::kReg, 0, "j"), 1);
    EXPECT_EQ(sub.getBasis(dims::kReg, 1, "j"), 0);

    EXPECT_FALSE(a.sublayoutIsZero({dims::kReg}, {"j"}));
    EXPECT_TRUE(a.sublayoutIsZero({dims::kWarp}, {"j"}));
}

TEST(LinearLayout, TransposeOutsReordersCoordinates)
{
    auto a = paperLayoutA();
    auto t = a.transposeOuts({"i", "j"});
    EXPECT_EQ(t.getOutDimNames(), (std::vector<std::string>{"i", "j"}));
    auto out = t.apply({{dims::kReg, 1}, {dims::kLane, 9}, {dims::kWarp, 0}});
    EXPECT_EQ(out[0].second, 2); // i
    EXPECT_EQ(out[1].second, 3); // j
}

TEST(LinearLayout, TransposeInsPreservesSemantics)
{
    auto a = paperLayoutA();
    auto t = a.transposeIns({dims::kWarp, dims::kReg, dims::kLane});
    auto o1 = a.apply({{dims::kReg, 3}, {dims::kLane, 17}, {dims::kWarp, 1}});
    auto o2 = t.apply({{dims::kWarp, 1}, {dims::kReg, 3}, {dims::kLane, 17}});
    EXPECT_EQ(o1, o2);
}

TEST(LinearLayout, ReshapeInsRegroupsBits)
{
    auto a = paperLayoutA();
    auto flat = a.flattenIns("hw");
    EXPECT_EQ(flat.getInDimSize("hw"), 256);
    for (uint64_t v = 0; v < 256; ++v)
        EXPECT_EQ(flat.applyFlat(v), a.applyFlat(v));

    auto back = flat.reshapeIns(
        {{dims::kReg, 4}, {dims::kLane, 32}, {dims::kWarp, 2}});
    EXPECT_EQ(back, a);
}

TEST(LinearLayout, ReshapeOutsRegroupsBits)
{
    auto a = paperLayoutA();
    auto flat = a.flattenOutsToDim("linear");
    EXPECT_EQ(flat.getOutDimSize("linear"), 256);
    for (uint64_t v = 0; v < 256; ++v)
        EXPECT_EQ(flat.applyFlat(v), a.applyFlat(v));

    auto back = flat.reshapeOuts({{"j", 16}, {"i", 16}});
    EXPECT_EQ(back, a);
}

TEST(LinearLayout, FreeVariableMasksDetectBroadcast)
{
    auto l = LinearLayout::identity1D(8, dims::kReg, "dim0") *
             LinearLayout::zeros1D(4, dims::kLane, "dim0");
    auto masks = l.getFreeVariableMasks();
    EXPECT_EQ(masks.at(dims::kReg), 0);
    EXPECT_EQ(masks.at(dims::kLane), 0b11);
}

TEST(LinearLayout, FreeVariableMasksDetectDependentColumns)
{
    // Two lane bits map to the same output bit: the second is free.
    LinearLayout::BasesT bases;
    bases.insert(dims::kLane, {{1}, {1}});
    LinearLayout l(std::move(bases), {{"dim0", 2}},
                   /*requireSurjective=*/false);
    auto masks = l.getFreeVariableMasks();
    EXPECT_EQ(masks.at(dims::kLane), 0b10);
}

TEST(LinearLayout, NumConsecutiveInOutIdentity)
{
    auto l = LinearLayout::identity1D(16, dims::kReg, "dim0") *
             LinearLayout::identity1D(4, dims::kLane, "dim0");
    EXPECT_EQ(l.getNumConsecutiveInOut(), 16);
}

TEST(LinearLayout, NumConsecutiveInOutInterleaved)
{
    // lane occupies bit 0; registers start at bit 1: no vectorization.
    auto l = LinearLayout::identity1D(2, dims::kLane, "dim0") *
             LinearLayout::identity1D(8, dims::kReg, "dim0");
    auto reordered = l.transposeIns({dims::kReg, dims::kLane});
    EXPECT_EQ(reordered.getNumConsecutiveInOut(), 1);
}

TEST(LinearLayout, NumConsecutiveSpansDims)
{
    // The Table 3 scenario: a [512, 2] tensor where the register dim
    // covers the 2-wide fastest dim and continues into the slower dim.
    // With dim1 (size 2) fastest and 4 registers mapping (dim1, low dim0):
    LinearLayout::BasesT bases;
    bases.insert(dims::kReg, {{1, 0}, {0, 1}});
    bases.insert(dims::kLane, {{0, 2}});
    LinearLayout l(std::move(bases), {{"dim1", 2}, {"dim0", 4}});
    EXPECT_EQ(l.getNumConsecutiveInOut(), 4);
}

TEST(LinearLayout, EqualityIsStructural)
{
    auto a = paperLayoutA();
    auto b = paperLayoutA();
    EXPECT_EQ(a, b);
    auto c = a.transposeOuts({"i", "j"});
    EXPECT_NE(a, c);
}

TEST(LinearLayout, RenameDims)
{
    auto l = LinearLayout::identity1D(4, dims::kReg, "dim0");
    auto r = l.renameInDim(dims::kReg, "tmp").renameOutDim("dim0", "x");
    EXPECT_TRUE(r.hasInDim("tmp"));
    EXPECT_TRUE(r.hasOutDim("x"));
    EXPECT_FALSE(r.hasInDim(dims::kReg));
}

TEST(LinearLayout, RemoveZeroBases)
{
    auto l = LinearLayout::identity1D(4, dims::kReg, "dim0") *
             LinearLayout::zeros1D(4, dims::kReg, "dim0");
    EXPECT_EQ(l.getInDimSize(dims::kReg), 16);
    auto r = l.removeZeroBasesAlongDim(dims::kReg);
    EXPECT_EQ(r.getInDimSize(dims::kReg), 4);
    EXPECT_TRUE(r.isInjective());
}

TEST(LinearLayout, ConstructionRejectsBadCoordinates)
{
    LinearLayout::BasesT bases;
    bases.insert(dims::kReg, {{5}});
    EXPECT_THROW(LinearLayout(std::move(bases), {{"dim0", 4}}), UserError);
}

TEST(LinearLayout, ConstructionRejectsNonSurjectiveWhenRequired)
{
    LinearLayout::BasesT bases;
    bases.insert(dims::kReg, {{0}});
    EXPECT_THROW(
        LinearLayout(std::move(bases), {{"dim0", 2}}, true), UserError);
}

TEST(LinearLayout, InferredOutDimSizes)
{
    LinearLayout::BasesT bases;
    bases.insert(dims::kReg, {{1, 0}, {0, 3}});
    auto l = LinearLayout::makeWithInferredOutDims(
        std::move(bases), {"a", "b"});
    EXPECT_EQ(l.getOutDimSize("a"), 2);
    EXPECT_EQ(l.getOutDimSize("b"), 4);
}

/** Property sweep over random invertible layouts. */
class LayoutRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(LayoutRoundTrip, InvertComposeIsIdentity)
{
    std::mt19937 rng(GetParam());
    auto l = randomInvertibleLayout(rng, 6);
    auto inv = l.invert().renameOutDim("in", "back");
    auto round = l.compose(inv.renameInDim("out", "out"));
    for (int32_t x = 0; x < 64; ++x)
        EXPECT_EQ(round.apply({{"in", x}})[0].second, x);
}

TEST_P(LayoutRoundTrip, MatrixRoundTrip)
{
    std::mt19937 rng(GetParam() + 1000);
    auto l = randomInvertibleLayout(rng, 6);
    auto m = l.toF2Matrix();
    auto back = LinearLayout::fromF2Matrix(
        m, {{"in", 64}}, {{"out", 64}}, true);
    EXPECT_EQ(back, l);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutRoundTrip, ::testing::Range(0, 20));

} // namespace
} // namespace ll
