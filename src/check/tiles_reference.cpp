#include "check/tiles_reference.h"

#include <algorithm>

#include "layout/dims.h"
#include "support/bits.h"

namespace ll {
namespace check {
namespace reference {

LinearLayout
vectorTile(int vecElems)
{
    return LinearLayout::identity1D(vecElems, dims::kReg, dims::kOffset);
}

LinearLayout
ldmatrixTile(int elemBytes)
{
    llUserCheck(elemBytes == 1 || elemBytes == 2 || elemBytes == 4,
                "ldmatrix supports 1/2/4-byte elements");
    return LinearLayout::identity1D(4 / elemBytes, dims::kReg,
                                    dims::kOffset) *
           LinearLayout::identity1D(4, dims::kLane, dims::kOffset);
}

bool
tileMatches(const LinearLayout &cvt, const LinearLayout &tile)
{
    return cvt.divideLeft(tile).has_value();
}

std::optional<LinearLayout>
permuteRegistersForTile(const LinearLayout &cvt, int vecElems)
{
    if (!cvt.hasInDim(dims::kReg))
        return std::nullopt;
    const int v = log2Exact(static_cast<uint64_t>(vecElems));
    const int regLog = cvt.getInDimSizeLog2(dims::kReg);
    if (v > regLog)
        return std::nullopt;

    // Find, for each target offset bit i < v, a register basis vector
    // mapping exactly to offset 2^i.
    auto flat = cvt.flattenedBases(dims::kReg);
    std::vector<int32_t> order;
    std::vector<bool> used(flat.size(), false);
    for (int i = 0; i < v; ++i) {
        int found = -1;
        for (size_t j = 0; j < flat.size(); ++j) {
            if (!used[j] && flat[j] == (uint64_t(1) << i)) {
                found = static_cast<int>(j);
                break;
            }
        }
        if (found < 0)
            return std::nullopt;
        used[static_cast<size_t>(found)] = true;
        order.push_back(found);
    }
    for (size_t j = 0; j < flat.size(); ++j) {
        if (!used[j])
            order.push_back(static_cast<int32_t>(j));
    }

    // Rebuild with the register bases permuted.
    LinearLayout::BasesT newBases;
    for (const auto &inDim : cvt.getInDimNames()) {
        std::vector<std::vector<int32_t>> vecs;
        if (inDim == dims::kReg) {
            for (int32_t idx : order)
                vecs.push_back(cvt.getBasis(dims::kReg, idx));
        } else {
            for (int32_t i = 0; i < cvt.getInDimSizeLog2(inDim); ++i)
                vecs.push_back(cvt.getBasis(inDim, i));
        }
        newBases.insert(inDim, std::move(vecs));
    }
    LinearLayout permuted(std::move(newBases), cvt.getOutDims(),
                          /*requireSurjective=*/false);
    if (!tileMatches(permuted, vectorTile(vecElems)))
        return std::nullopt;
    return permuted;
}

bool
matchesLdmatrixTile(const LinearLayout &cvt, int elemBytes)
{
    if (elemBytes > 4)
        return false;
    LinearLayout tile = ldmatrixTile(elemBytes);
    if (tileMatches(cvt, tile))
        return true;
    auto permuted = permuteRegistersForTile(cvt, 4 / elemBytes);
    return permuted.has_value() && tileMatches(*permuted, tile);
}

int
maxVectorization(const LinearLayout &cvt, int maxElems)
{
    if (!cvt.hasInDim(dims::kReg))
        return 1;
    int cap = std::min<int>(log2Ceil(static_cast<uint64_t>(maxElems)),
                            cvt.getInDimSizeLog2(dims::kReg));
    for (int v = cap; v > 0; --v) {
        if (permuteRegistersForTile(cvt, 1 << v).has_value())
            return 1 << v;
    }
    return 1;
}

} // namespace reference
} // namespace check
} // namespace ll
