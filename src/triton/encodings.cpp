#include "triton/encodings.h"

#include <algorithm>
#include <array>

#include "support/bits.h"

namespace ll {
namespace triton {

namespace {

using dims::kLane;
using dims::kOffset;
using dims::kReg;
using dims::kWarp;

/** The input dims of a distributed layout, in their canonical order. */
enum Resource { Reg, Lane, Warp, kNumResources };

/**
 * A distributed layout under construction, kept as one entry per input
 * bit: zero, or bit k of logical dim d. Each call does what multiplying
 * by one identity1D / zeros1D piece (Appendix 9.1) does to the bases,
 * and build() flattens the entries into columns once, so no
 * intermediate layout is made. The input dims are register, lane and
 * warp in that order; every logical dim of the tensor is an output dim,
 * of size 1 until a piece lands on it.
 */
class Columns
{
  public:
    /** Nothing placed yet; `extent[d]` is how much of logical dim d
     *  append() may still cover with identity pieces. */
    explicit Columns(const Shape &extent)
    {
        dims_.reserve(extent.size());
        for (int32_t n : extent)
            dims_.push_back({n, 0});
    }

    /** layout * identity1D(n, res, dim d): log2(n) new bits of res
     *  that walk the next bits of dim d. */
    void identity(Resource res, int32_t n, int d)
    {
        llUserCheck(isPowerOf2(static_cast<uint64_t>(n)),
                    "identity1D size must be a power of two");
        const int k = log2Exact(static_cast<uint64_t>(n));
        outBits_ += k;
        llAssert(outBits_ <= 64, "output space exceeds 64 bits");
        for (int i = 0; i < k; ++i)
            push(res, {static_cast<int8_t>(d),
                       static_cast<int8_t>(dims_[d].bits + i)});
        dims_[d].bits += k;
    }

    /** layout * zeros1D(n, res, dim d), for any d: log2(n) new bits of
     *  res that broadcast. */
    void zeros(Resource res, int32_t n)
    {
        llUserCheck(isPowerOf2(static_cast<uint64_t>(n)),
                    "zeros1D size must be a power of two");
        const int k = log2Exact(static_cast<uint64_t>(n));
        for (int i = 0; i < k; ++i)
            push(res, {-1, 0});
    }

    /**
     * `count` of resource res along logical dim d: identity while the
     * tensor still has room, broadcast beyond it — the "tensor
     * replicated to cover the tile" behaviour of legacy layouts.
     */
    void append(Resource res, int32_t count, int d)
    {
        llUserCheck(isPowerOf2(static_cast<uint64_t>(count)),
                    "resource count must be a power of two");
        const int32_t use = std::min(count, dims_[d].remaining);
        if (use > 1)
            identity(res, use, d);
        if (count > use)
            zeros(res, count / use);
        dims_[d].remaining /= use;
    }

    /** What append() may still cover of logical dim d. */
    int32_t remaining(int d) const { return dims_[d].remaining; }

    /**
     * Zero every bit that falls outside `shape` and shrink each dim to
     * min(its size, shape[d]), which must be a power of two; append()
     * then covers what the clamped tile leaves of the tensor. This is
     * how an instruction tile larger than the tensor degrades into a
     * broadcast layout (small-shape MMA support, cf. Table 5 of the
     * paper).
     */
    void clamp(const Shape &shape)
    {
        for (size_t d = 0; d < dims_.size(); ++d) {
            const int64_t size =
                std::min(int64_t(1) << dims_[d].bits, int64_t(shape[d]));
            llUserCheck(isPowerOf2(static_cast<uint64_t>(size)),
                        "clamped size " << size << " of dim" << d
                                        << " is not a power of two");
            outBits_ -= dims_[d].bits;
            dims_[d].bits = log2Exact(static_cast<uint64_t>(size));
            outBits_ += dims_[d].bits;
            dims_[d].remaining = static_cast<int32_t>(shape[d] / size);
        }
        for (int r = 0; r < kNumResources; ++r) {
            for (int i = 0; i < counts_[r]; ++i) {
                Entry &e = entries_[r][i];
                if (e.dim >= 0 && (int64_t(1) << e.bit) >= shape[e.dim])
                    e = {-1, 0};
            }
        }
    }

    /** The layout, out dims minor-to-major per `order` (a permutation
     *  of the logical dims). */
    LinearLayout build(const std::vector<int32_t> &order)
    {
        llAssert(order.size() == dims_.size(),
                 "Columns::build: order rank mismatch");
        std::vector<LinearLayout::DimSize> outs;
        outs.reserve(order.size());
        int offset = 0;
        for (int32_t d : order) {
            llAssert(dims_[d].offset < 0, "Columns::build: dim" << d
                                              << " twice in the order");
            dims_[d].offset = offset;
            offset += dims_[d].bits;
            outs.emplace_back(dims::out(d), int32_t(1) << dims_[d].bits);
        }
        std::vector<uint64_t> cols;
        cols.reserve(static_cast<size_t>(counts_[Reg] + counts_[Lane] +
                                         counts_[Warp]));
        for (int r = 0; r < kNumResources; ++r) {
            for (int i = 0; i < counts_[r]; ++i) {
                const Entry &e = entries_[r][i];
                cols.push_back(e.dim < 0 ? 0
                                         : uint64_t(1)
                                               << (dims_[e.dim].offset +
                                                   e.bit));
            }
        }
        return LinearLayout::fromColumns(
            {{kReg, counts_[Reg]}, {kLane, counts_[Lane]},
             {kWarp, counts_[Warp]}},
            std::move(outs), std::move(cols), /*requireSurjective=*/false);
    }

  private:
    /** Bit `bit` of logical dim `dim`; dim -1 is a zero column. Dims
     *  and bits both stay below 64. */
    struct Entry
    {
        int8_t dim;
        int8_t bit;
    };
    struct Dim
    {
        int32_t remaining;
        int bits;        ///< log2 of the dim's size so far
        int offset = -1; ///< its low bit in the built layout
    };

    void push(Resource res, Entry e)
    {
        llUserCheck(counts_[res] < kMaxBits,
                    "more than " << kMaxBits << " bits of one input dim");
        entries_[res][counts_[res]++] = e;
    }

    static constexpr int kMaxBits = 64;
    std::array<std::array<Entry, kMaxBits>, kNumResources> entries_{};
    std::array<int32_t, kNumResources> counts_{};
    std::vector<Dim> dims_;
    int outBits_ = 0; ///< the bits of all dims together
};

/** The warps an MMA layout spreads over dim0: a wgmma warp group
 *  already stacks four along M inside its tile. */
int32_t
mmaWarpsDim0(const MmaEncoding &mma)
{
    return mma.version == 3 ? std::max(mma.warpsPerCta[0] / 4, 1)
                            : mma.warpsPerCta[0];
}

/**
 * The PTX mma.m16n8 accumulator fragment, as the product of identity
 * pieces from Appendix 9.1:
 *   id_1^{Reg,dim1} x id_2^{Thr,dim1} x id_3^{Thr,dim0} x id_1^{Reg,dim0}
 * For wgmma m64nN, registers then repeat along N in steps of 8 and the
 * four warps of the warp group stack along M.
 */
void
mmaTile(const MmaEncoding &mma, Columns &c)
{
    if (mma.version == 3)
        llUserCheck(mma.instrN >= 8 && isPowerOf2(uint64_t(mma.instrN)),
                    "wgmma instrN must be a power of two >= 8");
    c.identity(Reg, 2, 1);
    c.identity(Lane, 4, 1);
    c.identity(Lane, 8, 0);
    c.identity(Reg, 2, 0);
    if (mma.version == 3) {
        c.identity(Reg, mma.instrN / 8, 1);
        c.identity(Warp, 4, 0);
    }
}

/**
 * The CDNA mfma 32x32 accumulator fragment over a 64-lane wavefront:
 * lanes 0-31 pick the column; each lane holds 4 groups of 4 consecutive
 * rows, with lane bit 5 selecting rows 4-7 of each 8-row band.
 */
void
mfmaTile(Columns &c)
{
    c.identity(Reg, 4, 0);
    c.identity(Lane, 32, 1);
    c.identity(Lane, 2, 0);
    c.identity(Reg, 4, 0);
}

/**
 * The A (opIdx 0) or B operand fragment for b-bit elements, 32 / b of
 * them packed per 32-bit register word. A, shape [M, K] (dim0 = M,
 * dim1 = K), per Appendix 9.1:
 *   id_{log2(32/b)}^{Reg,1} x id_2^{Thr,1} x id_3^{Thr,0} x
 *   id_1^{Reg,0} x id_1^{Reg,1}
 * B, shape [K, N] (dim0 = K, dim1 = N), is the transpose of the A tile
 * with half the registers per thread.
 */
void
dotOperandTile(const DotOperandEncoding &dot, Columns &c)
{
    llUserCheck(dot.bitwidth == 8 || dot.bitwidth == 16 ||
                    dot.bitwidth == 32,
                "unsupported dot operand bitwidth " << dot.bitwidth);
    const int32_t packed = 32 / dot.bitwidth;
    if (dot.opIdx == 0) {
        c.identity(Reg, packed, 1);
        c.identity(Lane, 4, 1);
        c.identity(Lane, 8, 0);
        c.identity(Reg, 2, 0);
        c.identity(Reg, 2, 1);
        if (dot.parent.version == 3)
            c.identity(Warp, 4, 0);
    } else {
        c.identity(Reg, packed, 0);
        c.identity(Lane, 4, 0);
        c.identity(Lane, 8, 1);
        c.identity(Reg, 2, 0);
    }
}

} // namespace

std::vector<int32_t>
rowMajorOrder(int rank)
{
    std::vector<int32_t> order(static_cast<size_t>(rank));
    for (int i = 0; i < rank; ++i)
        order[i] = rank - 1 - i;
    return order;
}

// ----------------------------------------------------------------------
// Blocked
// ----------------------------------------------------------------------

LinearLayout
BlockedEncoding::toLinearLayout(const Shape &shape) const
{
    const size_t rank = shape.size();
    llUserCheck(sizePerThread.size() == rank &&
                    threadsPerWarp.size() == rank &&
                    warpsPerCta.size() == rank && order.size() == rank,
                "blocked encoding rank mismatch with shape rank " << rank);
    uint64_t seen = 0;
    for (int32_t d : order) {
        llUserCheck(d >= 0 && static_cast<size_t>(d) < rank && d < 64 &&
                        !getBit(seen, d),
                    "blocked order is not a permutation of the dims");
        seen |= uint64_t(1) << d;
    }

    Columns c(shape);
    for (int32_t d : order)
        c.append(Reg, sizePerThread[d], d);
    for (int32_t d : order)
        c.append(Lane, threadsPerWarp[d], d);
    for (int32_t d : order)
        c.append(Warp, warpsPerCta[d], d);
    // Whatever the CTA tile does not cover is replicated into registers.
    for (int32_t d : order)
        c.append(Reg, c.remaining(d), d);
    return c.build(order);
}

BlockedEncoding
BlockedEncoding::makeDefault(const Shape &shape, int numWarps, int warpSize,
                             int vecWidth)
{
    return makeDefaultWithOrder(shape, rowMajorOrder(
                                           static_cast<int>(shape.size())),
                                numWarps, warpSize, vecWidth);
}

BlockedEncoding
BlockedEncoding::makeDefaultWithOrder(const Shape &shape,
                                      const std::vector<int32_t> &order,
                                      int numWarps, int warpSize,
                                      int vecWidth)
{
    const int rank = static_cast<int>(shape.size());
    llUserCheck(static_cast<int>(order.size()) == rank,
                "blocked order rank " << order.size()
                                      << " mismatches shape rank "
                                      << rank);
    BlockedEncoding enc;
    enc.order = order;
    enc.sizePerThread.assign(rank, 1);
    enc.threadsPerWarp.assign(rank, 1);
    enc.warpsPerCta.assign(rank, 1);

    // Vectorize the fastest dim, then fill threads along the fastest
    // dims, then warps along the remaining (slowest-first preference).
    Shape remaining = shape;
    int fast = enc.order[0];
    enc.sizePerThread[fast] =
        std::min<int32_t>(vecWidth, remaining[fast]);
    remaining[fast] /= enc.sizePerThread[fast];

    int threadsLeft = warpSize;
    for (int32_t d : enc.order) {
        int32_t use = std::min<int32_t>(threadsLeft, remaining[d]);
        enc.threadsPerWarp[d] = use;
        remaining[d] /= use;
        threadsLeft /= use;
        if (threadsLeft == 1)
            break;
    }
    // Any leftover threads broadcast along the fastest dim.
    enc.threadsPerWarp[fast] *= threadsLeft;

    int warpsLeft = numWarps;
    for (auto it = enc.order.rbegin(); it != enc.order.rend(); ++it) {
        int32_t use = std::min<int32_t>(warpsLeft, remaining[*it]);
        enc.warpsPerCta[*it] = use;
        remaining[*it] /= use;
        warpsLeft /= use;
        if (warpsLeft == 1)
            break;
    }
    enc.warpsPerCta[enc.order.back()] *= warpsLeft;
    return enc;
}

// ----------------------------------------------------------------------
// NVIDIA MMA
// ----------------------------------------------------------------------

LinearLayout
MmaEncoding::instructionTile() const
{
    Columns c(Shape{1, 1});
    mmaTile(*this, c);
    return c.build({1, 0});
}

LinearLayout
MmaEncoding::toLinearLayout(const Shape &shape) const
{
    llUserCheck(shape.size() == 2, "MMA layouts are 2D");
    llUserCheck(warpsPerCta.size() == 2, "warpsPerCta must be 2D");

    Columns c(shape);
    mmaTile(*this, c);
    c.clamp(shape);
    c.append(Warp, mmaWarpsDim0(*this), 0);
    c.append(Warp, warpsPerCta[1], 1);
    // Registers replicate the warp tile across the rest of the tensor,
    // minor dim first.
    c.append(Reg, c.remaining(1), 1);
    c.append(Reg, c.remaining(0), 0);
    return c.build({1, 0});
}

// ----------------------------------------------------------------------
// AMD MFMA
// ----------------------------------------------------------------------

LinearLayout
MfmaEncoding::instructionTile() const
{
    Columns c(Shape{1, 1});
    mfmaTile(c);
    return c.build({1, 0});
}

LinearLayout
MfmaEncoding::toLinearLayout(const Shape &shape) const
{
    llUserCheck(shape.size() == 2, "MFMA layouts are 2D");
    llUserCheck(warpsPerCta.size() == 2, "warpsPerCta must be 2D");
    Columns c(shape);
    mfmaTile(c);
    c.clamp(shape);
    c.append(Warp, warpsPerCta[0], 0);
    c.append(Warp, warpsPerCta[1], 1);
    c.append(Reg, c.remaining(1), 1);
    c.append(Reg, c.remaining(0), 0);
    return c.build({1, 0});
}

// ----------------------------------------------------------------------
// Dot operands (MMA inputs)
// ----------------------------------------------------------------------

LinearLayout
DotOperandEncoding::instructionTile() const
{
    Columns c(Shape{1, 1});
    dotOperandTile(*this, c);
    return opIdx == 0 ? c.build({1, 0}) : c.build({0, 1});
}

LinearLayout
DotOperandEncoding::toLinearLayout(const Shape &shape) const
{
    llUserCheck(shape.size() == 2, "dot operand layouts are 2D");
    llUserCheck(parent.warpsPerCta.size() == 2,
                "parent warpsPerCta must be 2D");
    Columns c(shape);
    dotOperandTile(*this, c);
    c.clamp(shape);

    // Warps follow the parent MMA distribution on the outer dim and
    // broadcast over the inner (K) dim so every warp owns the full
    // reduction (Appendix 9.1).
    if (opIdx == 0) {
        c.append(Warp, mmaWarpsDim0(parent), 0);
        c.zeros(Warp, parent.warpsPerCta[1]);
    } else {
        c.zeros(Warp, mmaWarpsDim0(parent));
        c.append(Warp, parent.warpsPerCta[1], 1);
    }

    // Registers replicate over the remaining K and outer extents.
    const int inner = opIdx == 0 ? 1 : 0;
    const int outer = 1 - inner;
    c.append(Reg, c.remaining(inner), inner);
    c.append(Reg, c.remaining(outer), outer);
    return c.build({1, 0});
}

// ----------------------------------------------------------------------
// Slice
// ----------------------------------------------------------------------

LinearLayout
sliceLayout(const LinearLayout &parent, int axis)
{
    const std::string victim = dims::out(axis);
    llUserCheck(parent.hasOutDim(victim),
                "sliceLayout: parent has no dim " << axis);

    // Project away the sliced dim, then renumber the remaining dims so
    // they stay densely named dim0..dim{r-2}.
    std::vector<std::string> keep;
    for (const auto &name : parent.getOutDimNames()) {
        if (name != victim)
            keep.push_back(name);
    }
    LinearLayout sliced = parent.sublayout(parent.getInDimNames(), keep);
    // Rename dimK -> dim(K-1) for K > axis, in increasing K order.
    int rank = parent.getNumOutDims();
    for (int k = axis + 1; k < rank; ++k)
        sliced = sliced.renameOutDim(dims::out(k), dims::out(k - 1));
    return sliced;
}

// ----------------------------------------------------------------------
// Shared memory layouts
// ----------------------------------------------------------------------

LinearLayout
unswizzledSharedLayout(const Shape &shape, const std::vector<int32_t> &order)
{
    llUserCheck(order.size() == shape.size(),
                "unswizzledSharedLayout: order rank mismatch");
    LinearLayout layout = LinearLayout::empty();
    for (int32_t d : order) {
        layout = layout * LinearLayout::identity1D(shape[d], kOffset,
                                                   dims::out(d));
    }
    if (layout.getNumInDims() == 0)
        layout = LinearLayout::identity1D(1, kOffset, dims::out(order[0]));
    return layout;
}

LinearLayout
mmaSwizzledSharedLayout(const Shape &shape, int32_t vec, int32_t perPhase,
                        int32_t maxPhase, const std::vector<int32_t> &order)
{
    llUserCheck(shape.size() == 2 && order.size() == 2,
                "mmaSwizzledSharedLayout is 2D");
    llUserCheck(isPowerOf2(uint64_t(vec)) && isPowerOf2(uint64_t(perPhase)) &&
                    isPowerOf2(uint64_t(maxPhase)),
                "swizzle parameters must be powers of two");
    const int fast = order[0], slow = order[1];
    const int n = log2Exact(static_cast<uint64_t>(shape[fast]));
    const int m = log2Exact(static_cast<uint64_t>(shape[slow]));

    // Inverse-swizzle matrix [[I_n, C], [0, I_m]] (Proposition 4.12):
    // offset low bits map straight onto the fast dim; offset high bits
    // pick the row and XOR the swizzle vector c_k into the fast dim.
    std::vector<std::vector<int32_t>> vecs;
    for (int k = 0; k < n; ++k)
        vecs.push_back({int32_t(1) << k, 0});
    for (int k = 0; k < m; ++k) {
        int64_t phase = ((int64_t(1) << k) / perPhase) % maxPhase;
        int32_t ck = static_cast<int32_t>(
            (static_cast<int64_t>(vec) * phase) % (int64_t(1) << n));
        vecs.push_back({ck, int32_t(1) << k});
    }
    LinearLayout::BasesT bases;
    bases.insert(kOffset, std::move(vecs));
    return LinearLayout(
        std::move(bases),
        {{dims::out(fast), shape[fast]}, {dims::out(slow), shape[slow]}},
        /*requireSurjective=*/true);
}

SwizzleParams
chooseMmaSwizzleParams(int elemBytes, int32_t rowElems)
{
    // Legacy-Triton-style parameters: 128-bit vectors, phases sized so a
    // 128-byte bank wavefront is fully permuted.
    SwizzleParams p;
    p.vec = std::max(16 / elemBytes, 1);
    p.perPhase = std::max<int32_t>(
        128 / (rowElems * static_cast<int32_t>(elemBytes)), 1);
    p.maxPhase = std::max<int32_t>(8 / p.perPhase, 1);
    return p;
}

// ----------------------------------------------------------------------
// Family membership (Definitions 4.10 and 4.14)
// ----------------------------------------------------------------------

bool
isDistributedLayout(const LinearLayout &layout)
{
    if (!layout.isSurjective())
        return false;
    std::vector<uint64_t> seen;
    for (const auto &inDim : layout.getInDimNames()) {
        for (uint64_t col : layout.flattenedBases(inDim)) {
            if (popcount(col) > 1)
                return false;
            if (col != 0 &&
                std::find(seen.begin(), seen.end(), col) != seen.end()) {
                return false;
            }
            if (col != 0)
                seen.push_back(col);
        }
    }
    return true;
}

bool
isMemoryLayout(const LinearLayout &layout)
{
    if (!layout.isSurjective() || !layout.isInjective())
        return false;
    for (const auto &inDim : layout.getInDimNames()) {
        for (uint64_t col : layout.flattenedBases(inDim)) {
            int pc = popcount(col);
            if (pc != 1 && pc != 2)
                return false;
        }
    }
    return true;
}

} // namespace triton
} // namespace ll
