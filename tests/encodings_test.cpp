/**
 * @file
 * Tests for the legacy-layout constructions of Section 4.3: blocked, MMA
 * (Ampere/Hopper/AMD), dot operands, slices, and shared (swizzled)
 * layouts, including a bit-exact reconstruction of the paper's Layout A
 * and a check of the Definition 4.11 swizzle formula, and a sweep that
 * holds the column-built constructors to their product-chain twins.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include "check/layout_reference.h"
#include "layout/dims.h"
#include "triton/encodings.h"

namespace ll {
namespace triton {
namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;

TEST(Blocked, ReconstructsPaperLayoutA)
{
    // Figure 1(a): 16x16 tensor, 2x2 registers, 4x8 threads, 2x1 warps,
    // j (dim1) fastest.
    BlockedEncoding enc;
    enc.sizePerThread = {2, 2};
    enc.threadsPerWarp = {4, 8};
    enc.warpsPerCta = {2, 1};
    enc.order = {1, 0};
    LinearLayout l = enc.toLinearLayout({16, 16});

    EXPECT_EQ(l.getInDimSize(kReg), 4);
    EXPECT_EQ(l.getInDimSize(kLane), 32);
    EXPECT_EQ(l.getInDimSize(kWarp), 2);
    // Out dims minor-to-major: dim1 (j) first.
    EXPECT_EQ(l.getOutDimNames(),
              (std::vector<std::string>{"dim1", "dim0"}));

    // Table 1 spot checks: register r1 of thread t9 in warp w0 sits at
    // (i, j) = (2, 3).
    auto out = l.apply({{kReg, 1}, {kLane, 9}, {kWarp, 0}});
    EXPECT_EQ(out[0].second, 3); // j
    EXPECT_EQ(out[1].second, 2); // i

    // Exact basis check.
    EXPECT_EQ(l.getBasis(kReg, 0), (std::vector<int32_t>{1, 0}));
    EXPECT_EQ(l.getBasis(kReg, 1), (std::vector<int32_t>{0, 1}));
    EXPECT_EQ(l.getBasis(kLane, 0), (std::vector<int32_t>{2, 0}));
    EXPECT_EQ(l.getBasis(kLane, 1), (std::vector<int32_t>{4, 0}));
    EXPECT_EQ(l.getBasis(kLane, 2), (std::vector<int32_t>{8, 0}));
    EXPECT_EQ(l.getBasis(kLane, 3), (std::vector<int32_t>{0, 2}));
    EXPECT_EQ(l.getBasis(kLane, 4), (std::vector<int32_t>{0, 4}));
    EXPECT_EQ(l.getBasis(kWarp, 0), (std::vector<int32_t>{0, 8}));

    EXPECT_TRUE(isDistributedLayout(l));
    EXPECT_TRUE(l.isInvertible());
}

TEST(Blocked, ReplicatesWhenTensorIsLarger)
{
    BlockedEncoding enc;
    enc.sizePerThread = {1, 1};
    enc.threadsPerWarp = {1, 32};
    enc.warpsPerCta = {1, 1};
    enc.order = {1, 0};
    LinearLayout l = enc.toLinearLayout({2, 64});
    // 2*64 elements over 32 threads: 4 registers each, all distinct.
    EXPECT_EQ(l.getInDimSize(kReg), 4);
    EXPECT_TRUE(l.isInvertible());
    EXPECT_TRUE(isDistributedLayout(l));
}

TEST(Blocked, BroadcastsWhenTensorIsSmaller)
{
    BlockedEncoding enc;
    enc.sizePerThread = {1, 1};
    enc.threadsPerWarp = {1, 32};
    enc.warpsPerCta = {1, 4};
    enc.order = {1, 0};
    LinearLayout l = enc.toLinearLayout({1, 32});
    // 4 warps cover a 32-wide tensor: warps fully broadcast.
    EXPECT_EQ(l.getInDimSize(kWarp), 4);
    EXPECT_TRUE(l.sublayoutIsZero({kWarp}, l.getOutDimNames()));
    EXPECT_TRUE(l.isSurjective());
    EXPECT_FALSE(l.isInjective());
    auto masks = l.getFreeVariableMasks();
    EXPECT_EQ(masks.at(kWarp), 0b11);
    EXPECT_TRUE(isDistributedLayout(l));
}

TEST(Blocked, EveryElementCoveredExactlyOnceWhenBijective)
{
    BlockedEncoding enc;
    enc.sizePerThread = {2, 2};
    enc.threadsPerWarp = {4, 8};
    enc.warpsPerCta = {2, 2};
    enc.order = {0, 1};
    LinearLayout l = enc.toLinearLayout({32, 32});
    ASSERT_EQ(l.getTotalInDimSize(), 32 * 32);
    std::set<uint64_t> seen;
    for (uint64_t v = 0; v < 1024; ++v)
        seen.insert(l.applyFlat(v));
    EXPECT_EQ(seen.size(), 1024u);
}

TEST(Blocked, MakeDefaultCoversShape)
{
    auto enc = BlockedEncoding::makeDefault({128, 64}, 4, 32, 4);
    LinearLayout l = enc.toLinearLayout({128, 64});
    EXPECT_TRUE(l.isSurjective());
    EXPECT_EQ(l.getInDimSize(kLane), 32);
    EXPECT_EQ(l.getInDimSize(kWarp), 4);
    // Vectorization request is honored in contiguity.
    EXPECT_GE(l.getNumConsecutiveInOut(), 4);
    EXPECT_TRUE(isDistributedLayout(l));
}

TEST(Blocked, MakeDefaultHandlesTinyShapes)
{
    auto enc = BlockedEncoding::makeDefault({2, 2}, 4, 32, 8);
    LinearLayout l = enc.toLinearLayout({2, 2});
    EXPECT_TRUE(l.isSurjective());
    EXPECT_EQ(l.getInDimSize(kLane), 32);
    EXPECT_EQ(l.getInDimSize(kWarp), 4);
}

TEST(Blocked, OrderMustBeAPermutationOfTheDims)
{
    BlockedEncoding enc;
    enc.sizePerThread = {1, 1};
    enc.threadsPerWarp = {4, 8};
    enc.warpsPerCta = {1, 1};
    for (const std::vector<int32_t> &order :
         {std::vector<int32_t>{0, 0}, {2, 0}, {-1, 0}}) {
        enc.order = order;
        EXPECT_THROW(enc.toLinearLayout({16, 16}), std::exception);
    }
    enc.order = {0, 1};
    EXPECT_NO_THROW(enc.toLinearLayout({16, 16}));
}

TEST(Mma, AmpereFragmentMatchesPtx)
{
    MmaEncoding enc;
    enc.version = 2;
    enc.warpsPerCta = {1, 1};
    LinearLayout l = enc.toLinearLayout({16, 8});
    EXPECT_EQ(l.getInDimSize(kReg), 4);
    EXPECT_EQ(l.getInDimSize(kLane), 32);

    // PTX m16n8 accumulator fragment: lane holds c0..c3 with
    // row = lane/4 (+8 for c2/c3), col = 2*(lane%4) + (reg&1).
    for (int lane = 0; lane < 32; ++lane) {
        for (int reg = 0; reg < 4; ++reg) {
            auto out = l.apply({{kReg, reg}, {kLane, lane}, {kWarp, 0}});
            int col = out[0].second; // dim1
            int row = out[1].second; // dim0
            EXPECT_EQ(col, 2 * (lane % 4) + (reg & 1));
            EXPECT_EQ(row, lane / 4 + 8 * (reg >> 1));
        }
    }
    EXPECT_TRUE(isDistributedLayout(l));
}

TEST(Mma, WarpsTileTheOutput)
{
    MmaEncoding enc;
    enc.version = 2;
    enc.warpsPerCta = {2, 2};
    LinearLayout l = enc.toLinearLayout({32, 16});
    EXPECT_EQ(l.getInDimSize(kWarp), 4);
    EXPECT_TRUE(l.isInvertible());
    // Warp bit 0 advances rows by 16, warp bit 1 advances cols by 8.
    EXPECT_EQ(l.getBasis(kWarp, 0), (std::vector<int32_t>{0, 16}));
    EXPECT_EQ(l.getBasis(kWarp, 1), (std::vector<int32_t>{8, 0}));
}

TEST(Mma, RegistersReplicateOverLargeShapes)
{
    MmaEncoding enc;
    enc.version = 2;
    enc.warpsPerCta = {2, 2};
    LinearLayout l = enc.toLinearLayout({64, 64});
    // 64*64 / (4 warps * 32 lanes) = 32 registers per thread.
    EXPECT_EQ(l.getInDimSize(kReg), 32);
    EXPECT_TRUE(l.isInvertible());
    EXPECT_TRUE(isDistributedLayout(l));
}

TEST(Mma, SmallShapesBroadcastInsteadOfFailing)
{
    // The Table 5 scenario: tiny dot shapes must still yield valid
    // distributed layouts (legacy Triton fails these).
    MmaEncoding enc;
    enc.version = 2;
    enc.warpsPerCta = {4, 1};
    LinearLayout l = enc.toLinearLayout({8, 8});
    EXPECT_TRUE(l.isSurjective());
    EXPECT_TRUE(isDistributedLayout(l));
    EXPECT_FALSE(l.isInjective()); // some resources broadcast
}

TEST(Mma, WgmmaWarpGroupOwns64Rows)
{
    MmaEncoding enc;
    enc.version = 3;
    enc.warpsPerCta = {4, 1};
    enc.instrN = 16;
    LinearLayout l = enc.toLinearLayout({64, 16});
    EXPECT_EQ(l.getInDimSize(kWarp), 4);
    // Warps stack along dim0 in steps of 16.
    EXPECT_EQ(l.getBasis(kWarp, 0), (std::vector<int32_t>{0, 16}));
    EXPECT_EQ(l.getBasis(kWarp, 1), (std::vector<int32_t>{0, 32}));
    EXPECT_TRUE(l.isInvertible());
    // Registers: 64*16 / 128 threads = 8 per thread.
    EXPECT_EQ(l.getInDimSize(kReg), 8);
}

TEST(Mfma, FragmentShape)
{
    MfmaEncoding enc;
    enc.warpsPerCta = {2, 2};
    LinearLayout l = enc.toLinearLayout({64, 64});
    EXPECT_EQ(l.getInDimSize(kLane), 64); // wavefront of 64
    EXPECT_EQ(l.getInDimSize(kWarp), 4);
    EXPECT_EQ(l.getInDimSize(kReg), 16);
    EXPECT_TRUE(l.isInvertible());
    EXPECT_TRUE(isDistributedLayout(l));
}

TEST(Mfma, FragmentMatchesCdnaLayout)
{
    MfmaEncoding enc;
    enc.warpsPerCta = {1, 1};
    LinearLayout l = enc.toLinearLayout({32, 32});
    for (int lane = 0; lane < 64; ++lane) {
        for (int reg = 0; reg < 16; ++reg) {
            auto out = l.apply({{kReg, reg}, {kLane, lane}, {kWarp, 0}});
            int col = out[0].second;
            int row = out[1].second;
            EXPECT_EQ(col, lane % 32);
            EXPECT_EQ(row, (reg % 4) + 4 * (lane / 32) + 8 * (reg / 4));
        }
    }
}

TEST(DotOperand, AOperandF16Tile)
{
    DotOperandEncoding enc;
    enc.parent.version = 2;
    enc.parent.warpsPerCta = {1, 1};
    enc.opIdx = 0;
    enc.bitwidth = 16;
    LinearLayout l = enc.toLinearLayout({16, 16});
    // m16k16 f16 A fragment: 8 elements per thread.
    EXPECT_EQ(l.getInDimSize(kReg), 8);
    EXPECT_EQ(l.getInDimSize(kLane), 32);
    EXPECT_TRUE(l.isInvertible());
    EXPECT_TRUE(isDistributedLayout(l));

    // PTX a-fragment: row = lane/4 (+8), col = 2*(lane%4) + (reg&1) (+8).
    for (int lane = 0; lane < 32; ++lane) {
        for (int reg = 0; reg < 8; ++reg) {
            auto out = l.apply({{kReg, reg}, {kLane, lane}, {kWarp, 0}});
            int k = out[0].second;   // dim1
            int m = out[1].second;   // dim0
            EXPECT_EQ(k, 2 * (lane % 4) + (reg & 1) + 8 * ((reg >> 2) & 1));
            EXPECT_EQ(m, lane / 4 + 8 * ((reg >> 1) & 1));
        }
    }
}

TEST(DotOperand, BOperandF16Tile)
{
    DotOperandEncoding enc;
    enc.parent.version = 2;
    enc.parent.warpsPerCta = {1, 1};
    enc.opIdx = 1;
    enc.bitwidth = 16;
    LinearLayout l = enc.toLinearLayout({16, 8});
    EXPECT_EQ(l.getInDimSize(kReg), 4);
    EXPECT_TRUE(l.isInvertible());
    // PTX b-fragment: k = 2*(lane%4) + (reg&1) + 8*(reg>>1), n = lane/4.
    for (int lane = 0; lane < 32; ++lane) {
        for (int reg = 0; reg < 4; ++reg) {
            auto out = l.apply({{kReg, reg}, {kLane, lane}, {kWarp, 0}});
            int n = out[0].second; // dim1
            int k = out[1].second; // dim0
            EXPECT_EQ(k, 2 * (lane % 4) + (reg & 1) + 8 * (reg >> 1));
            EXPECT_EQ(n, lane / 4);
        }
    }
}

TEST(DotOperand, WarpsBroadcastOverK)
{
    DotOperandEncoding enc;
    enc.parent.version = 2;
    enc.parent.warpsPerCta = {2, 2};
    enc.opIdx = 0;
    enc.bitwidth = 16;
    LinearLayout l = enc.toLinearLayout({32, 32});
    EXPECT_EQ(l.getInDimSize(kWarp), 4);
    // Warp bits along dim1 (the N warps) broadcast for operand A.
    auto masks = l.getFreeVariableMasks();
    EXPECT_NE(masks.at(kWarp), 0);
    EXPECT_TRUE(l.isSurjective());
    EXPECT_TRUE(isDistributedLayout(l));
}

TEST(DotOperand, Int8TileHasWiderK)
{
    DotOperandEncoding enc;
    enc.parent.version = 2;
    enc.parent.warpsPerCta = {1, 1};
    enc.opIdx = 0;
    enc.bitwidth = 8;
    LinearLayout tile = enc.instructionTile();
    EXPECT_EQ(tile.getOutDimSize("dim1"), 32); // k = 32 for int8
    EXPECT_EQ(tile.getOutDimSize("dim0"), 16);
}

TEST(DotOperand, MalformedWarpsPerCtaIsRejected)
{
    // A warpsPerCta that is not 2D is a user error, not an
    // out-of-bounds read.
    MmaEncoding parent{2, {4}, 8};
    EXPECT_THROW(parent.toLinearLayout({64, 64}), std::exception);
    EXPECT_THROW((DotOperandEncoding{parent, 0, 16}.toLinearLayout({64, 64})),
                 std::exception);
    EXPECT_THROW((MfmaEncoding{{2, 2, 1}}.toLinearLayout({64, 64})),
                 std::exception);
    EXPECT_NO_THROW((MfmaEncoding{{2, 2}}.toLinearLayout({64, 64})));
}

TEST(Slice, RemovesADimensionAndRenumbers)
{
    BlockedEncoding enc;
    enc.sizePerThread = {1, 4};
    enc.threadsPerWarp = {4, 8};
    enc.warpsPerCta = {4, 1};
    enc.order = {1, 0};
    LinearLayout parent = enc.toLinearLayout({16, 32});
    LinearLayout sliced = sliceLayout(parent, 0);
    EXPECT_EQ(sliced.getNumOutDims(), 1);
    EXPECT_TRUE(sliced.hasOutDim("dim0")); // old dim1 renumbered
    EXPECT_TRUE(sliced.isSurjective());
    // Slicing keeps all input dims but loses injectivity.
    EXPECT_FALSE(sliced.isInjective());
    EXPECT_TRUE(isDistributedLayout(sliced) ||
                !sliced.isInjective()); // still surjective family member
}

TEST(Slice, SliceOfMmaIsALinearLayout)
{
    MmaEncoding enc;
    enc.version = 2;
    enc.warpsPerCta = {2, 2};
    LinearLayout parent = enc.toLinearLayout({32, 32});
    LinearLayout sliced = sliceLayout(parent, 1);
    EXPECT_EQ(sliced.getNumOutDims(), 1);
    EXPECT_EQ(sliced.getOutDimSize("dim0"), 32);
    EXPECT_TRUE(sliced.isSurjective());
}

TEST(Shared, UnswizzledIsRowMajorIdentity)
{
    LinearLayout l = unswizzledSharedLayout({4, 8}, {1, 0});
    EXPECT_EQ(l.getInDimSize(dims::kOffset), 32);
    for (int32_t i = 0; i < 4; ++i) {
        for (int32_t j = 0; j < 8; ++j) {
            auto out = l.apply({{dims::kOffset, i * 8 + j}});
            EXPECT_EQ(out[0].second, j);
            EXPECT_EQ(out[1].second, i);
        }
    }
    EXPECT_TRUE(isMemoryLayout(l));
}

TEST(Shared, SwizzledMatchesDefinition411)
{
    // Check the constructed inverse against the forward swizzle formula
    // offset(i,j) = ((i/perPhase mod maxPhase) xor j/vec)*vec xor
    // (j mod vec), plus the row base i * rowElems.
    const int32_t rows = 16, cols = 16;
    for (int32_t vec : {1, 2, 4}) {
        for (int32_t perPhase : {1, 2}) {
            for (int32_t maxPhase : {1, 2, 4}) {
                LinearLayout l = mmaSwizzledSharedLayout(
                    {rows, cols}, vec, perPhase, maxPhase, {1, 0});
                for (int32_t i = 0; i < rows; ++i) {
                    for (int32_t j = 0; j < cols; ++j) {
                        int32_t inRow =
                            (((i / perPhase) % maxPhase) ^ (j / vec)) *
                                vec ^
                            (j % vec);
                        int32_t offset = i * cols + inRow;
                        auto out = l.apply({{dims::kOffset, offset}});
                        EXPECT_EQ(out[0].second, j)
                            << "vec=" << vec << " perPhase=" << perPhase
                            << " maxPhase=" << maxPhase << " i=" << i
                            << " j=" << j;
                        EXPECT_EQ(out[1].second, i);
                    }
                }
                EXPECT_TRUE(isMemoryLayout(l));
            }
        }
    }
}

TEST(Shared, SwizzleParamsAreSane)
{
    auto p16 = chooseMmaSwizzleParams(2, 64); // f16, 64-wide rows
    EXPECT_EQ(p16.vec, 8);
    EXPECT_EQ(p16.perPhase, 1);
    EXPECT_EQ(p16.maxPhase, 8);

    auto p8 = chooseMmaSwizzleParams(1, 32); // f8, 32-wide rows
    EXPECT_EQ(p8.vec, 16);
    EXPECT_EQ(p8.perPhase, 4);
    EXPECT_EQ(p8.maxPhase, 2);
}

TEST(Family, MembershipChecks)
{
    // A swizzled memory layout is not a distributed layout (two-bit
    // columns), and vice versa for broadcasting distributed layouts.
    LinearLayout swz =
        mmaSwizzledSharedLayout({16, 16}, 4, 1, 4, {1, 0});
    EXPECT_TRUE(isMemoryLayout(swz));
    EXPECT_FALSE(isDistributedLayout(swz));

    LinearLayout bcast = LinearLayout::identity1D(8, kReg, "dim0") *
                         LinearLayout::zeros1D(4, kLane, "dim0");
    EXPECT_TRUE(isDistributedLayout(bcast));
    EXPECT_FALSE(isMemoryLayout(bcast));
}

/** Column builds against product chains: agreed, both threw, differed. */
struct Parity
{
    int compared = 0;
    int threw = 0;
    int mismatched = 0;

    /** Build the layout both ways. They must both throw, or both return
     *  == layouts with the same surjectivity. */
    void check(const std::function<LinearLayout()> &columns,
               const std::function<LinearLayout()> &chain,
               const std::function<std::string()> &describe)
    {
        auto attempt = [](const std::function<LinearLayout()> &build) {
            try {
                return std::optional<LinearLayout>(build());
            } catch (const std::exception &) {
                return std::optional<LinearLayout>();
            }
        };
        const std::optional<LinearLayout> fast = attempt(columns);
        const std::optional<LinearLayout> ref = attempt(chain);
        if (!fast && !ref) {
            ++threw;
            return;
        }
        if (fast && ref && *fast == *ref &&
            fast->isSurjective() == ref->isSurjective()) {
            ++compared;
            return;
        }
        if (++mismatched <= 5) {
            ADD_FAILURE() << describe() << ": column build "
                          << (fast ? fast->toString() : "threw")
                          << "\nproduct chain "
                          << (ref ? ref->toString() : "threw");
        }
    }
};

std::string
str(const Shape &v)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    return os.str() + "]";
}

TEST(Encodings, ColumnBuildMatchesProductChain)
{
    // Every power of two up to 512, plus two extents that are not: the
    // clamp and the replication must reject (or, where integer division
    // hides them, accept) those exactly as the product chains do.
    const Shape sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 3, 48};
    std::vector<Shape> shapes2;
    std::vector<Shape> shapes;
    for (int32_t a : sizes) {
        shapes.push_back({a});
        for (int32_t b : sizes) {
            shapes2.push_back({a, b});
            shapes.push_back({a, b});
            for (int32_t c : sizes)
                shapes.push_back({a, b, c});
        }
    }
    const Shape counts = {1, 2, 4, 8};
    Parity parity;

    for (const Shape &shape : shapes) {
        const int rank = static_cast<int>(shape.size());
        std::vector<int32_t> reversed = rowMajorOrder(rank);
        std::reverse(reversed.begin(), reversed.end());
        for (const auto &order : {rowMajorOrder(rank), reversed}) {
            for (int warps : counts) {
                for (int warpSize : {32, 64}) {
                    for (int vec : {1, 2, 4, 8, 16}) {
                        BlockedEncoding enc =
                            BlockedEncoding::makeDefaultWithOrder(
                                shape, order, warps, warpSize, vec);
                        // Also vectorize past the tensor, so registers
                        // broadcast as well as lanes and warps.
                        BlockedEncoding wide = enc;
                        wide.sizePerThread[order[0]] = vec;
                        std::vector<BlockedEncoding> encs = {enc};
                        if (wide.sizePerThread != enc.sizePerThread)
                            encs.push_back(wide);
                        for (const BlockedEncoding &e : encs) {
                            parity.check(
                                [&] { return e.toLinearLayout(shape); },
                                [&] {
                                    return check::reference::blockedLayout(
                                        e, shape);
                                },
                                [&] {
                                    return "blocked " + str(shape) +
                                           " spt " + str(e.sizePerThread) +
                                           " tpw " + str(e.threadsPerWarp) +
                                           " wpc " + str(e.warpsPerCta) +
                                           " order " + str(e.order);
                                });
                        }
                    }
                }
            }
        }
    }

    for (const Shape &shape : shapes2) {
        for (int32_t w0 : counts) {
            for (int32_t w1 : counts) {
                for (int version : {2, 3}) {
                    for (int32_t instrN : {4, 8, 16, 32, 64, 128, 256}) {
                        MmaEncoding mma{version, {w0, w1}, instrN};
                        auto describe = [&] {
                            return "mma v" + std::to_string(version) +
                                   " " + str(shape) + " wpc " +
                                   str(mma.warpsPerCta) + " instrN " +
                                   std::to_string(instrN);
                        };
                        parity.check(
                            [&] { return mma.toLinearLayout(shape); },
                            [&] {
                                return check::reference::mmaLayout(mma,
                                                                   shape);
                            },
                            describe);
                        if (instrN != 16)
                            continue;
                        for (int opIdx : {0, 1}) {
                            for (int bits : {4, 8, 16, 32}) {
                                DotOperandEncoding dot{mma, opIdx, bits};
                                parity.check(
                                    [&] { return dot.toLinearLayout(shape); },
                                    [&] {
                                        return check::reference::
                                            dotOperandLayout(dot, shape);
                                    },
                                    [&] {
                                        return "dot op" +
                                               std::to_string(opIdx) + " b" +
                                               std::to_string(bits) + " of " +
                                               describe();
                                    });
                            }
                        }
                    }
                }
                MfmaEncoding mfma{{w0, w1}};
                parity.check(
                    [&] { return mfma.toLinearLayout(shape); },
                    [&] { return check::reference::mfmaLayout(mfma, shape); },
                    [&] {
                        return "mfma " + str(shape) + " wpc " +
                               str(mfma.warpsPerCta);
                    });
            }
        }
    }

    EXPECT_EQ(parity.mismatched, 0);
    // Anti-vacuity: the sweep must reach both outcomes.
    EXPECT_GT(parity.compared, 0);
    EXPECT_GT(parity.threw, 0);
    RecordProperty("compared", parity.compared);
    RecordProperty("threw", parity.threw);
    std::cout << "ColumnBuildMatchesProductChain: " << parity.compared
              << " equal, " << parity.threw << " rejected by both\n";
}

} // namespace
} // namespace triton
} // namespace ll
