#include "check/layout_reference.h"

#include <algorithm>
#include <sstream>

#include "f2/subspace.h"
#include "layout/dims.h"
#include "support/bits.h"
#include "support/string_utils.h"

namespace ll {
namespace check {
namespace reference {

namespace {

using BasesT = LinearLayout::BasesT;

/** inDim's basis vectors flattened over the whole output space. */
std::vector<uint64_t>
flattened(const BasesT &bases, const std::vector<DimSize> &outDims,
          const std::string &inDim)
{
    std::vector<uint64_t> out;
    const auto &vecs = bases.at(inDim);
    out.reserve(vecs.size());
    for (const auto &basis : vecs) {
        uint64_t flat = 0;
        int shift = 0;
        for (size_t j = 0; j < outDims.size(); ++j) {
            if (basis[j] != 0)
                flat |= static_cast<uint64_t>(basis[j]) << shift;
            shift += log2Exact(static_cast<uint64_t>(outDims[j].second));
        }
        out.push_back(flat);
    }
    return out;
}

/** The layout applied to per-dim input coordinates, coordinate-wise. */
std::vector<DimSize>
applyCoords(const BasesT &bases, const std::vector<DimSize> &outDims,
            const std::vector<DimSize> &ins)
{
    std::vector<int32_t> acc(outDims.size(), 0);
    for (const auto &[dim, coord] : ins) {
        const auto &vecs = bases.at(dim);
        for (size_t i = 0; i < vecs.size(); ++i) {
            if (getBit(static_cast<uint64_t>(coord), static_cast<int>(i))) {
                for (size_t j = 0; j < acc.size(); ++j)
                    acc[j] ^= vecs[i][j];
            }
        }
    }
    std::vector<DimSize> out;
    for (size_t j = 0; j < outDims.size(); ++j)
        out.emplace_back(outDims[j].first, acc[j]);
    return out;
}

f2::F2Matrix
toMatrix(const LinearLayout &l)
{
    const BasesT bases = l.getBases();
    f2::F2Matrix m(l.getTotalOutDimSizeLog2(), l.getTotalInDimSizeLog2());
    int col = 0;
    for (const auto &[name, vecs] : bases) {
        (void)vecs;
        for (uint64_t f : flattened(bases, l.getOutDims(), name))
            m.setCol(col++, f);
    }
    return m;
}

LinearLayout
fromMatrix(const f2::F2Matrix &m, const std::vector<DimSize> &inDims,
           const std::vector<DimSize> &outDims)
{
    BasesT bases;
    int col = 0;
    for (const auto &[name, size] : inDims) {
        int32_t k = log2Exact(static_cast<uint64_t>(size));
        std::vector<std::vector<int32_t>> vecs;
        for (int32_t i = 0; i < k; ++i, ++col) {
            uint64_t flat = m.getCol(col);
            std::vector<int32_t> basis;
            for (const auto &[od, osize] : outDims) {
                (void)od;
                basis.push_back(static_cast<int32_t>(
                    flat & (static_cast<uint64_t>(osize) - 1)));
                flat >>= log2Exact(static_cast<uint64_t>(osize));
            }
            vecs.push_back(std::move(basis));
        }
        bases.insert(name, std::move(vecs));
    }
    return LinearLayout(std::move(bases), outDims,
                        /*requireSurjective=*/false);
}

int32_t
outIndex(const std::vector<DimSize> &outDims, const std::string &name)
{
    for (size_t j = 0; j < outDims.size(); ++j) {
        if (outDims[j].first == name)
            return static_cast<int32_t>(j);
    }
    llPanic("no output dim named " << name);
}

} // namespace

std::vector<uint64_t>
applyFlatAll(const LinearLayout &l)
{
    const BasesT bases = l.getBases();
    std::vector<uint64_t> columns;
    for (const auto &[dim, vecs] : bases) {
        (void)vecs;
        auto flat = flattened(bases, l.getOutDims(), dim);
        columns.insert(columns.end(), flat.begin(), flat.end());
    }
    std::vector<uint64_t> images;
    const uint64_t size = uint64_t(1) << columns.size();
    images.reserve(size);
    for (uint64_t in = 0; in < size; ++in) {
        uint64_t acc = 0;
        for (size_t pos = 0; pos < columns.size(); ++pos) {
            if (getBit(in, static_cast<int>(pos)))
                acc ^= columns[pos];
        }
        images.push_back(acc);
    }
    return images;
}

LinearLayout
compose(const LinearLayout &inner, const LinearLayout &outer)
{
    const BasesT bases = inner.getBases();
    const BasesT outerBases = outer.getBases();
    const auto outDims = inner.getOutDims();
    BasesT newBases;
    for (const auto &[inDim, vecs] : bases) {
        std::vector<std::vector<int32_t>> newVecs;
        for (const auto &basis : vecs) {
            std::vector<DimSize> coords;
            for (size_t j = 0; j < outDims.size(); ++j)
                coords.emplace_back(outDims[j].first, basis[j]);
            // outer's apply wants its own in-dim order.
            std::vector<DimSize> ordered;
            for (const auto &name : outer.getInDimNames()) {
                for (const auto &c : coords) {
                    if (c.first == name)
                        ordered.push_back(c);
                }
            }
            auto image = applyCoords(outerBases, outer.getOutDims(),
                                     ordered);
            std::vector<int32_t> newBasis;
            for (const auto &[od, v] : image) {
                (void)od;
                newBasis.push_back(v);
            }
            newVecs.push_back(std::move(newBasis));
        }
        newBases.insert(inDim, std::move(newVecs));
    }
    return LinearLayout(std::move(newBases), outer.getOutDims(),
                        /*requireSurjective=*/false);
}

LinearLayout
product(const LinearLayout &a, const LinearLayout &b)
{
    const BasesT aBases = a.getBases();
    const BasesT bBases = b.getBases();
    std::vector<std::string> inNames = a.getInDimNames();
    for (const auto &name : b.getInDimNames()) {
        if (!a.hasInDim(name))
            inNames.push_back(name);
    }
    const auto aOuts = a.getOutDims();
    const auto bOuts = b.getOutDims();
    std::vector<DimSize> newOutDims = aOuts;
    for (const auto &[name, size] : bOuts) {
        bool found = false;
        for (auto &[n, s] : newOutDims) {
            if (n == name) {
                s *= size;
                found = true;
            }
        }
        if (!found)
            newOutDims.emplace_back(name, size);
    }

    BasesT newBases;
    for (const auto &inName : inNames) {
        std::vector<std::vector<int32_t>> vecs;
        if (a.hasInDim(inName)) {
            for (const auto &basis : aBases.at(inName)) {
                std::vector<int32_t> nb(newOutDims.size(), 0);
                for (size_t j = 0; j < aOuts.size(); ++j)
                    nb[outIndex(newOutDims, aOuts[j].first)] = basis[j];
                vecs.push_back(std::move(nb));
            }
        }
        if (b.hasInDim(inName)) {
            for (const auto &basis : bBases.at(inName)) {
                std::vector<int32_t> nb(newOutDims.size(), 0);
                for (size_t j = 0; j < bOuts.size(); ++j) {
                    const std::string &od = bOuts[j].first;
                    int32_t shift =
                        a.hasOutDim(od) ? a.getOutDimSizeLog2(od) : 0;
                    nb[outIndex(newOutDims, od)] = basis[j] << shift;
                }
                vecs.push_back(std::move(nb));
            }
        }
        newBases.insert(inName, std::move(vecs));
    }
    return LinearLayout(std::move(newBases), std::move(newOutDims),
                        /*requireSurjective=*/false);
}

LinearLayout
transposeIns(const LinearLayout &l, const std::vector<std::string> &order)
{
    const BasesT bases = l.getBases();
    BasesT newBases;
    for (const auto &name : order)
        newBases.insert(name, bases.at(name));
    return LinearLayout(std::move(newBases), l.getOutDims(),
                        /*requireSurjective=*/false);
}

LinearLayout
transposeOuts(const LinearLayout &l, const std::vector<std::string> &order)
{
    const auto outDims = l.getOutDims();
    std::vector<int32_t> idx;
    std::vector<DimSize> newOuts;
    for (const auto &name : order) {
        idx.push_back(outIndex(outDims, name));
        newOuts.emplace_back(name, l.getOutDimSize(name));
    }
    BasesT newBases;
    for (const auto &[name, vecs] : l.getBases()) {
        std::vector<std::vector<int32_t>> newVecs;
        for (const auto &basis : vecs) {
            std::vector<int32_t> nb;
            for (int32_t j : idx)
                nb.push_back(basis[j]);
            newVecs.push_back(std::move(nb));
        }
        newBases.insert(name, std::move(newVecs));
    }
    return LinearLayout(std::move(newBases), std::move(newOuts),
                        /*requireSurjective=*/false);
}

LinearLayout
reshapeIns(const LinearLayout &l, const std::vector<DimSize> &newDims)
{
    // Concatenate all bases in input order, then re-split.
    std::vector<std::vector<int32_t>> all;
    for (const auto &[name, vecs] : l.getBases()) {
        (void)name;
        all.insert(all.end(), vecs.begin(), vecs.end());
    }
    BasesT newBases;
    size_t pos = 0;
    for (const auto &[name, size] : newDims) {
        int32_t k = log2Exact(static_cast<uint64_t>(size));
        std::vector<std::vector<int32_t>> vecs(all.begin() + pos,
                                               all.begin() + pos + k);
        pos += k;
        newBases.insert(name, std::move(vecs));
    }
    return LinearLayout(std::move(newBases), l.getOutDims(),
                        /*requireSurjective=*/false);
}

LinearLayout
reshapeOuts(const LinearLayout &l, const std::vector<DimSize> &newDims)
{
    const BasesT bases = l.getBases();
    BasesT newBases;
    for (const auto &[name, vecs] : bases) {
        (void)vecs;
        std::vector<std::vector<int32_t>> newVecs;
        for (uint64_t f : flattened(bases, l.getOutDims(), name)) {
            std::vector<int32_t> nb;
            for (const auto &[nd, size] : newDims) {
                (void)nd;
                nb.push_back(static_cast<int32_t>(
                    f & (static_cast<uint64_t>(size) - 1)));
                f >>= log2Exact(static_cast<uint64_t>(size));
            }
            newVecs.push_back(std::move(nb));
        }
        newBases.insert(name, std::move(newVecs));
    }
    return LinearLayout(std::move(newBases), newDims,
                        /*requireSurjective=*/false);
}

LinearLayout
invertAndCompose(const LinearLayout &l, const LinearLayout &outer)
{
    LinearLayout alignedOuter = transposeOuts(outer, l.getOutDimNames());
    f2::F2Matrix conv =
        toMatrix(alignedOuter).rightInverse().multiply(toMatrix(l));
    std::vector<DimSize> newIns;
    for (const auto &[dim, vecs] : l.getBases())
        newIns.emplace_back(dim, int32_t(1) << vecs.size());
    std::vector<DimSize> newOuts;
    for (const auto &[dim, vecs] : alignedOuter.getBases())
        newOuts.emplace_back(dim, int32_t(1) << vecs.size());
    return fromMatrix(conv, newIns, newOuts);
}

std::optional<LinearLayout>
divideLeft(const LinearLayout &l, const LinearLayout &divisor)
{
    for (const auto &name : divisor.getInDimNames()) {
        if (!l.hasInDim(name) ||
            divisor.getInDimSizeLog2(name) > l.getInDimSizeLog2(name)) {
            return std::nullopt;
        }
    }
    for (const auto &name : divisor.getOutDimNames()) {
        if (!l.hasOutDim(name) ||
            divisor.getOutDimSizeLog2(name) > l.getOutDimSizeLog2(name)) {
            return std::nullopt;
        }
    }

    const BasesT bases = l.getBases();
    const BasesT dBases = divisor.getBases();
    const auto outDims = l.getOutDims();
    const auto dOuts = divisor.getOutDims();
    // The divisor occupies the low input bits of its in dims and the low
    // output bits of its out dims; check the leading bases match.
    for (const auto &[name, dVecs] : dBases) {
        for (size_t i = 0; i < dVecs.size(); ++i) {
            for (size_t j = 0; j < outDims.size(); ++j) {
                const std::string &od = outDims[j].first;
                int32_t val = bases.at(name)[i][j];
                if (divisor.hasOutDim(od)) {
                    if (val != dVecs[i][outIndex(dOuts, od)])
                        return std::nullopt;
                } else if (val != 0) {
                    return std::nullopt;
                }
            }
        }
    }

    // Remaining bases must avoid the divisor's low output bits; shift
    // them down to form the quotient.
    BasesT qBases;
    for (const auto &[name, vecs] : bases) {
        int32_t skip =
            divisor.hasInDim(name) ? divisor.getInDimSizeLog2(name) : 0;
        std::vector<std::vector<int32_t>> qVecs;
        for (size_t i = skip; i < vecs.size(); ++i) {
            std::vector<int32_t> qb(outDims.size(), 0);
            for (size_t j = 0; j < outDims.size(); ++j) {
                const std::string &od = outDims[j].first;
                int32_t val = vecs[i][j];
                int32_t shift = divisor.hasOutDim(od)
                                    ? divisor.getOutDimSizeLog2(od)
                                    : 0;
                if ((val & ((int32_t(1) << shift) - 1)) != 0)
                    return std::nullopt;
                qb[j] = val >> shift;
            }
            qVecs.push_back(std::move(qb));
        }
        qBases.insert(name, std::move(qVecs));
    }
    std::vector<DimSize> qOuts;
    for (const auto &[name, size] : outDims) {
        int32_t shift =
            divisor.hasOutDim(name) ? divisor.getOutDimSizeLog2(name) : 0;
        qOuts.emplace_back(name, size >> shift);
    }
    LinearLayout quotient(std::move(qBases), std::move(qOuts),
                          /*requireSurjective=*/false);

    LinearLayout aligned =
        transposeOuts(transposeIns(product(divisor, quotient),
                                   l.getInDimNames()),
                      l.getOutDimNames());
    if (aligned.getBases() != bases || aligned.getOutDims() != outDims)
        return std::nullopt;
    return quotient;
}

OrderedMap<std::string, int32_t>
getFreeVariableMasks(const LinearLayout &l)
{
    const BasesT bases = l.getBases();
    OrderedMap<std::string, int32_t> masks;
    f2::EchelonBasis ech;
    for (const auto &[name, vecs] : bases) {
        (void)vecs;
        int32_t mask = 0;
        auto flat = flattened(bases, l.getOutDims(), name);
        for (size_t i = 0; i < flat.size(); ++i) {
            if (!ech.insert(flat[i]))
                mask |= int32_t(1) << i;
        }
        masks.insert(name, mask);
    }
    return masks;
}

int32_t
getNumConsecutiveInOut(const LinearLayout &l)
{
    const BasesT bases = l.getBases();
    if (bases.empty() || l.getNumOutDims() == 0)
        return 1;
    const auto outDims = l.getOutDims();
    auto firstFlat = flattened(bases, outDims, bases.begin()->first);

    int k = 0;
    while (k < static_cast<int>(firstFlat.size()) &&
           firstFlat[k] == (uint64_t(1) << k)) {
        ++k;
    }

    // No other input bit may land inside the low-k-bit window, or the
    // "consecutive" elements would be interleaved with other resources.
    auto overlaps = [&](int kk) {
        uint64_t maskLow = (uint64_t(1) << kk) - 1;
        int dimIdx = 0;
        for (const auto &[name, vecs] : bases) {
            (void)vecs;
            auto flat = flattened(bases, outDims, name);
            for (size_t i = 0; i < flat.size(); ++i) {
                bool isPrefix =
                    (dimIdx == 0) && (static_cast<int>(i) < kk);
                if (!isPrefix && (flat[i] & maskLow) != 0)
                    return true;
            }
            ++dimIdx;
        }
        return false;
    };
    while (k > 0 && overlaps(k))
        --k;
    return int32_t(1) << k;
}

std::string
toString(const LinearLayout &l)
{
    std::ostringstream oss;
    for (const auto &[name, vecs] : l.getBases()) {
        for (size_t i = 0; i < vecs.size(); ++i) {
            oss << " - " << name << "=" << (1 << i) << " -> ("
                << join(vecs[i], ", ") << ")\n";
        }
        if (vecs.empty())
            oss << " - " << name << " is a size-1 dim\n";
    }
    const auto outDims = l.getOutDims();
    oss << "where out dims are: [";
    for (size_t j = 0; j < outDims.size(); ++j) {
        oss << outDims[j].first << " (size " << outDims[j].second << ")";
        if (j + 1 < outDims.size())
            oss << ", ";
    }
    oss << "]\n";
    return oss.str();
}

// ----------------------------------------------------------------------
// Legacy encodings as product chains
// ----------------------------------------------------------------------

namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;
using triton::Shape;

/** An empty layout that pins the canonical in-dim order reg/lane/warp
 *  and registers output dim `firstOut`, so products append bits into a
 *  predictable flattened ordering. */
LinearLayout
distributedSeed(const std::string &firstOut)
{
    return LinearLayout::identity1D(1, kReg, firstOut) *
           LinearLayout::identity1D(1, kLane, firstOut) *
           LinearLayout::identity1D(1, kWarp, firstOut);
}

/**
 * Append `count` copies of resource `res` along logical dim d: identity
 * while the tensor still has room (tracked in `remaining`), broadcast
 * (zero bases) beyond it.
 */
void
appendResource(LinearLayout &layout, Shape &remaining, int32_t count,
               const std::string &res, int d)
{
    llUserCheck(isPowerOf2(static_cast<uint64_t>(count)),
                "resource count must be a power of two");
    int32_t use = std::min(count, remaining[d]);
    if (use > 1)
        layout = layout * LinearLayout::identity1D(use, res, dims::out(d));
    if (count > use) {
        layout = layout *
                 LinearLayout::zeros1D(count / use, res, dims::out(d));
    }
    remaining[d] /= use;
}

/** Make sure every logical dim has an out entry (size >= 1) and reorder
 *  outs minor-to-major per `order`. */
LinearLayout
canonicalizeOuts(LinearLayout layout, const Shape &shape,
                 const std::vector<int32_t> &order)
{
    for (size_t d = 0; d < shape.size(); ++d) {
        if (!layout.hasOutDim(dims::out(static_cast<int>(d)))) {
            layout = layout * LinearLayout::identity1D(
                                  1, kReg, dims::out(static_cast<int>(d)));
        }
    }
    std::vector<std::string> outOrder;
    for (int32_t d : order)
        outOrder.push_back(dims::out(d));
    return layout.transposeOuts(outOrder)
        .transposeIns({kReg, kLane, kWarp});
}

/**
 * Zero every basis coordinate that falls outside `shape` and shrink the
 * output dims accordingly, by decoding and re-encoding the bases.
 */
LinearLayout
clampToShape(const LinearLayout &layout, const Shape &shape)
{
    BasesT newBases;
    auto outNames = layout.getOutDimNames();
    std::vector<int32_t> limit;
    for (const auto &name : outNames) {
        // Out dims are named dim<k>; recover k.
        int k = std::stoi(name.substr(3));
        limit.push_back(shape[k]);
    }
    for (const auto &inDim : layout.getInDimNames()) {
        std::vector<std::vector<int32_t>> vecs;
        for (int32_t i = 0; i < layout.getInDimSizeLog2(inDim); ++i) {
            std::vector<int32_t> basis = layout.getBasis(inDim, i);
            for (size_t j = 0; j < basis.size(); ++j) {
                if (basis[j] >= limit[j])
                    basis[j] = 0;
            }
            vecs.push_back(std::move(basis));
        }
        newBases.insert(inDim, std::move(vecs));
    }
    std::vector<DimSize> newOuts;
    for (size_t j = 0; j < outNames.size(); ++j) {
        newOuts.emplace_back(
            outNames[j],
            std::min(layout.getOutDimSize(outNames[j]), limit[j]));
    }
    return LinearLayout(std::move(newBases), std::move(newOuts),
                        /*requireSurjective=*/false);
}

/** The mma.m16n8 (and wgmma m64nN) accumulator tile of Appendix 9.1:
 *  id_1^{Reg,dim1} x id_2^{Thr,dim1} x id_3^{Thr,dim0} x id_1^{Reg,dim0}. */
LinearLayout
mmaTile(const triton::MmaEncoding &enc)
{
    LinearLayout tile = distributedSeed(dims::out(1)) *
                        LinearLayout::identity1D(2, kReg, dims::out(1)) *
                        LinearLayout::identity1D(4, kLane, dims::out(1)) *
                        LinearLayout::identity1D(8, kLane, dims::out(0)) *
                        LinearLayout::identity1D(2, kReg, dims::out(0));
    if (enc.version == 3) {
        llUserCheck(enc.instrN >= 8 && isPowerOf2(uint64_t(enc.instrN)),
                    "wgmma instrN must be a power of two >= 8");
        tile = tile *
               LinearLayout::identity1D(enc.instrN / 8, kReg, dims::out(1)) *
               LinearLayout::identity1D(4, kWarp, dims::out(0));
    }
    return tile;
}

/** The CDNA mfma 32x32 accumulator tile over a 64-lane wavefront. */
LinearLayout
mfmaTile()
{
    return distributedSeed(dims::out(1)) *
           LinearLayout::identity1D(4, kReg, dims::out(0)) *
           LinearLayout::identity1D(32, kLane, dims::out(1)) *
           LinearLayout::identity1D(2, kLane, dims::out(0)) *
           LinearLayout::identity1D(4, kReg, dims::out(0));
}

/** The A / B operand tiles of Appendix 9.1 for b-bit elements. */
LinearLayout
dotOperandTile(const triton::DotOperandEncoding &enc)
{
    llUserCheck(enc.bitwidth == 8 || enc.bitwidth == 16 || enc.bitwidth == 32,
                "unsupported dot operand bitwidth " << enc.bitwidth);
    int32_t packed = 32 / enc.bitwidth;
    if (enc.opIdx == 0) {
        LinearLayout tile =
            distributedSeed(dims::out(1)) *
            LinearLayout::identity1D(packed, kReg, dims::out(1)) *
            LinearLayout::identity1D(4, kLane, dims::out(1)) *
            LinearLayout::identity1D(8, kLane, dims::out(0)) *
            LinearLayout::identity1D(2, kReg, dims::out(0)) *
            LinearLayout::identity1D(2, kReg, dims::out(1));
        if (enc.parent.version == 3)
            tile = tile * LinearLayout::identity1D(4, kWarp, dims::out(0));
        return tile;
    }
    return distributedSeed(dims::out(0)) *
           LinearLayout::identity1D(packed, kReg, dims::out(0)) *
           LinearLayout::identity1D(4, kLane, dims::out(0)) *
           LinearLayout::identity1D(8, kLane, dims::out(1)) *
           LinearLayout::identity1D(2, kReg, dims::out(0));
}

/** A clamped 2D tile and the tensor extent per dim it leaves over. */
std::pair<LinearLayout, Shape>
clampTile(const LinearLayout &tile, const Shape &shape)
{
    LinearLayout layout = clampToShape(tile, shape);
    Shape remaining = {shape[0] / layout.getOutDimSize(dims::out(0)),
                       shape[1] / layout.getOutDimSize(dims::out(1))};
    return {std::move(layout), std::move(remaining)};
}

} // namespace

LinearLayout
blockedLayout(const triton::BlockedEncoding &enc, const Shape &shape)
{
    const size_t rank = shape.size();
    llUserCheck(enc.sizePerThread.size() == rank &&
                    enc.threadsPerWarp.size() == rank &&
                    enc.warpsPerCta.size() == rank &&
                    enc.order.size() == rank,
                "blocked encoding rank mismatch with shape rank " << rank);
    Shape remaining = shape;
    LinearLayout layout = distributedSeed(dims::out(enc.order[0]));
    for (int32_t d : enc.order)
        appendResource(layout, remaining, enc.sizePerThread[d], kReg, d);
    for (int32_t d : enc.order)
        appendResource(layout, remaining, enc.threadsPerWarp[d], kLane, d);
    for (int32_t d : enc.order)
        appendResource(layout, remaining, enc.warpsPerCta[d], kWarp, d);
    for (int32_t d : enc.order)
        appendResource(layout, remaining, remaining[d], kReg, d);
    return canonicalizeOuts(std::move(layout), shape, enc.order);
}

LinearLayout
mmaLayout(const triton::MmaEncoding &enc, const Shape &shape)
{
    llUserCheck(shape.size() == 2, "MMA layouts are 2D");
    llUserCheck(enc.warpsPerCta.size() == 2, "warpsPerCta must be 2D");
    auto [layout, remaining] = clampTile(mmaTile(enc), shape);
    int32_t warpsDim0 = enc.version == 3 ? std::max(enc.warpsPerCta[0] / 4, 1)
                                         : enc.warpsPerCta[0];
    appendResource(layout, remaining, warpsDim0, kWarp, 0);
    appendResource(layout, remaining, enc.warpsPerCta[1], kWarp, 1);
    appendResource(layout, remaining, remaining[1], kReg, 1);
    appendResource(layout, remaining, remaining[0], kReg, 0);
    return canonicalizeOuts(std::move(layout), shape, {1, 0});
}

LinearLayout
mfmaLayout(const triton::MfmaEncoding &enc, const Shape &shape)
{
    llUserCheck(shape.size() == 2, "MFMA layouts are 2D");
    auto [layout, remaining] = clampTile(mfmaTile(), shape);
    appendResource(layout, remaining, enc.warpsPerCta[0], kWarp, 0);
    appendResource(layout, remaining, enc.warpsPerCta[1], kWarp, 1);
    appendResource(layout, remaining, remaining[1], kReg, 1);
    appendResource(layout, remaining, remaining[0], kReg, 0);
    return canonicalizeOuts(std::move(layout), shape, {1, 0});
}

LinearLayout
dotOperandLayout(const triton::DotOperandEncoding &enc, const Shape &shape)
{
    llUserCheck(shape.size() == 2, "dot operand layouts are 2D");
    auto [layout, remaining] = clampTile(dotOperandTile(enc), shape);
    const auto &wpc = enc.parent.warpsPerCta;
    int32_t warpsDim0 =
        enc.parent.version == 3 ? std::max(wpc[0] / 4, 1) : wpc[0];
    if (enc.opIdx == 0) {
        appendResource(layout, remaining, warpsDim0, kWarp, 0);
        layout = layout * LinearLayout::zeros1D(wpc[1], kWarp, dims::out(1));
    } else {
        layout = layout * LinearLayout::zeros1D(warpsDim0, kWarp, dims::out(0));
        appendResource(layout, remaining, wpc[1], kWarp, 1);
    }
    int inner = enc.opIdx == 0 ? 1 : 0;
    int outer = 1 - inner;
    appendResource(layout, remaining, remaining[inner], kReg, inner);
    appendResource(layout, remaining, remaining[outer], kReg, outer);
    return canonicalizeOuts(std::move(layout), shape, {1, 0});
}

} // namespace reference

namespace {

using DimSize = LinearLayout::DimSize;

template <typename T>
std::vector<T>
reversed(std::vector<T> v)
{
    std::reverse(v.begin(), v.end());
    return v;
}

/** A product concatenating these dims keeps every size an int32: each
 *  of b's dims plus a's dim of the same name spans at most 30 bits. */
bool
concatFits(const std::vector<DimSize> &a, const std::vector<DimSize> &b)
{
    for (const auto &[name, size] : b) {
        int bits = log2Exact(static_cast<uint64_t>(size));
        for (const auto &[n, s] : a) {
            if (n == name)
                bits += log2Exact(static_cast<uint64_t>(s));
        }
        if (bits > 30)
            return false;
    }
    return true;
}

std::vector<DimSize>
inDimSizes(const LinearLayout &l)
{
    std::vector<DimSize> dims;
    for (const auto &name : l.getInDimNames())
        dims.emplace_back(name, l.getInDimSize(name));
    return dims;
}

/** Same output space: same dim names, each with the same size. */
bool
sameOutSpace(const LinearLayout &a, const LinearLayout &b)
{
    if (a.getNumOutDims() != b.getNumOutDims())
        return false;
    for (const auto &[name, size] : a.getOutDims()) {
        if (!b.hasOutDim(name) || b.getOutDimSize(name) != size)
            return false;
    }
    return true;
}

/**
 * An invertible map from `ins` onto one flat dim: bit j goes to bits j
 * and j + 1, so every input bit moves and neighbours mix.
 */
LinearLayout
bidiagonal(const std::vector<DimSize> &ins, int bits)
{
    f2::F2Matrix m(bits, bits);
    for (int j = 0; j < bits; ++j) {
        uint64_t col = uint64_t(1) << j;
        if (j + 1 < bits)
            col |= uint64_t(1) << (j + 1);
        m.setCol(j, col);
    }
    return LinearLayout::fromF2Matrix(m, ins, {{"x", int32_t(1) << bits}});
}

} // namespace

void
diffLayoutOps(const std::vector<LinearLayout> &layouts,
              const std::function<void(bool equal, const char *what)> &same)
{
    for (const LinearLayout &l : layouts) {
        same(l.toString() == reference::toString(l),
             "LinearLayout::toString");
        same(l.getFreeVariableMasks() ==
                 reference::getFreeVariableMasks(l),
             "LinearLayout::getFreeVariableMasks");
        same(l.getNumConsecutiveInOut() ==
                 reference::getNumConsecutiveInOut(l),
             "LinearLayout::getNumConsecutiveInOut");

        const auto ins = l.getInDimNames();
        for (const auto &order : {ins, reversed(ins)})
            same(l.transposeIns(order) ==
                     reference::transposeIns(l, order),
                 "LinearLayout::transposeIns");
        const auto outs = l.getOutDimNames();
        for (const auto &order : {outs, reversed(outs)})
            same(l.transposeOuts(order) ==
                     reference::transposeOuts(l, order),
                 "LinearLayout::transposeOuts");

        const int inBits = l.getTotalInDimSizeLog2();
        if (inBits <= 30) {
            const int lo = inBits / 2;
            for (const std::vector<DimSize> &shape :
                 {std::vector<DimSize>{{"flat", int32_t(1) << inBits}},
                  std::vector<DimSize>{{"lo", int32_t(1) << lo},
                                       {"hi", int32_t(1) << (inBits - lo)}}})
                same(l.reshapeIns(shape) == reference::reshapeIns(l, shape),
                     "LinearLayout::reshapeIns");
        }
        const int outBits = l.getTotalOutDimSizeLog2();
        if (outBits <= 30) {
            const int lo = outBits / 2;
            for (const std::vector<DimSize> &shape :
                 {std::vector<DimSize>{{"flat", int32_t(1) << outBits}},
                  std::vector<DimSize>{{"lo", int32_t(1) << lo},
                                       {"hi",
                                        int32_t(1) << (outBits - lo)}}})
                same(l.reshapeOuts(shape) ==
                         reference::reshapeOuts(l, shape),
                     "LinearLayout::reshapeOuts");
            // Outer layouts flattening our out dims in our order (the
            // field moves are the identity) and in reverse (they are not).
            for (const auto &outerIns :
                 {l.getOutDims(), reversed(l.getOutDims())}) {
                const LinearLayout outer = bidiagonal(outerIns, outBits);
                same(l.compose(outer) == reference::compose(l, outer),
                     "LinearLayout::compose");
            }
        }

        std::vector<LinearLayout> divisors = {l};
        if (!ins.empty()) {
            divisors.push_back(l.sublayout({ins.front()}, outs));
            if (!outs.empty())
                divisors.push_back(
                    LinearLayout::identity1D(2, ins.front(), outs.front()));
        }
        for (const LinearLayout &d : divisors)
            same(l.divideLeft(d) == reference::divideLeft(l, d),
                 "LinearLayout::divideLeft");
    }

    for (const LinearLayout &a : layouts) {
        for (const LinearLayout &b : layouts) {
            if (a.getTotalOutDimSizeLog2() + b.getTotalOutDimSizeLog2() <=
                    64 &&
                concatFits(a.getOutDims(), b.getOutDims()) &&
                concatFits(inDimSizes(a), inDimSizes(b)))
                same(a * b == reference::product(a, b),
                     "LinearLayout::operator*");
            if (!sameOutSpace(a, b) || !b.isSurjective() ||
                b.getTotalInDimSizeLog2() + b.getTotalOutDimSizeLog2() > 64 ||
                a.getTotalInDimSizeLog2() > 64)
                continue;
            same(a.invertAndCompose(b) == reference::invertAndCompose(a, b),
                 "LinearLayout::invertAndCompose");
            const LinearLayout inv = b.pseudoinvert();
            same(a.compose(inv) == reference::compose(a, inv),
                 "LinearLayout::compose");
        }
    }
}

} // namespace check
} // namespace ll
