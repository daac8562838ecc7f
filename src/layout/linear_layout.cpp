#include "layout/linear_layout.h"

#include <algorithm>
#include <sstream>

#include "f2/subspace.h"
#include "support/bits.h"
#include "support/string_utils.h"

namespace ll {

namespace {

/** Check that a dim-name list is a permutation of another. */
bool
isPermutationOf(const std::vector<std::string> &a,
                const std::vector<std::string> &b)
{
    if (a.size() != b.size())
        return false;
    auto sa = a, sb = b;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    return sa == sb;
}

} // namespace

LinearLayout::LinearLayout(BasesT bases, std::vector<DimSize> outDims,
                           bool requireSurjective)
    : bases_(std::move(bases)), outDims_(std::move(outDims))
{
    validate(requireSurjective);
}

LinearLayout
LinearLayout::makeWithInferredOutDims(BasesT bases,
                                      std::vector<std::string> outDimNames)
{
    // Infer each output size as the smallest power of two containing all
    // basis coordinates for that dimension.
    std::vector<DimSize> outDims;
    for (size_t j = 0; j < outDimNames.size(); ++j) {
        int32_t maxCoord = 0;
        for (const auto &[inDim, vecs] : bases) {
            (void)inDim;
            for (const auto &basis : vecs) {
                llAssert(basis.size() == outDimNames.size(),
                         "basis arity mismatch");
                maxCoord = std::max(maxCoord, basis[j]);
            }
        }
        int32_t size = static_cast<int32_t>(
            nextPowerOf2(static_cast<uint64_t>(maxCoord) + 1));
        outDims.emplace_back(outDimNames[j], size);
    }
    return LinearLayout(std::move(bases), std::move(outDims),
                        /*requireSurjective=*/false);
}

void
LinearLayout::validate(bool requireSurjective)
{
    for (const auto &[name, size] : outDims_) {
        llUserCheck(isPowerOf2(static_cast<uint64_t>(size)),
                    "output dim "
                        << name << " size " << size
                        << " is not a power of two (LinearLayout is "
                           "F2-only; non-pow2 extents are expressible "
                           "as cute::CuteLayout and admitted via the "
                           "cute bridge)");
    }
    for (const auto &[inDim, vecs] : bases_) {
        for (const auto &basis : vecs) {
            llUserCheck(basis.size() == outDims_.size(),
                        "basis for " << inDim << " has "
                                     << basis.size() << " coords, expected "
                                     << outDims_.size());
            for (size_t j = 0; j < basis.size(); ++j) {
                llUserCheck(basis[j] >= 0 && basis[j] < outDims_[j].second,
                            "basis coordinate " << basis[j]
                                << " out of range for dim "
                                << outDims_[j].first << " of size "
                                << outDims_[j].second);
            }
        }
    }

    // Surjectivity: the flattened columns must span the output space.
    // The same columns, in input-bit order, become the applyFlat cache.
    std::vector<uint64_t> cols;
    for (const auto &[inDim, vecs] : bases_) {
        (void)vecs;
        auto flat = flattenedBases(inDim);
        cols.insert(cols.end(), flat.begin(), flat.end());
    }
    surjective_ =
        f2::rankOfVectors(cols) == getTotalOutDimSizeLog2();
    llUserCheck(!requireSurjective || surjective_,
                "layout is not surjective onto its output space");
    flatCache_ = std::move(cols);
}

LinearLayout
LinearLayout::identity1D(int32_t size, const std::string &inDim,
                         const std::string &outDim)
{
    llUserCheck(isPowerOf2(static_cast<uint64_t>(size)),
                "identity1D size must be a power of two");
    BasesT bases;
    std::vector<std::vector<int32_t>> vecs;
    for (int32_t i = 1; i < size; i *= 2)
        vecs.push_back({i});
    bases.insert(inDim, std::move(vecs));
    return LinearLayout(std::move(bases),
                        std::vector<DimSize>{{outDim, size}}, true);
}

LinearLayout
LinearLayout::zeros1D(int32_t size, const std::string &inDim,
                      const std::string &outDim, int32_t outDimSize)
{
    llUserCheck(isPowerOf2(static_cast<uint64_t>(size)),
                "zeros1D size must be a power of two");
    BasesT bases;
    std::vector<std::vector<int32_t>> vecs(
        static_cast<size_t>(log2Exact(static_cast<uint64_t>(size))),
        std::vector<int32_t>{0});
    bases.insert(inDim, std::move(vecs));
    return LinearLayout(std::move(bases), {{outDim, outDimSize}},
                        /*requireSurjective=*/false);
}

// ---------------------------------------------------------------------
// Shape queries
// ---------------------------------------------------------------------

bool
LinearLayout::hasInDim(const std::string &dim) const
{
    return bases_.contains(dim);
}

bool
LinearLayout::hasOutDim(const std::string &dim) const
{
    for (const auto &[name, size] : outDims_) {
        (void)size;
        if (name == dim)
            return true;
    }
    return false;
}

std::vector<std::string>
LinearLayout::getOutDimNames() const
{
    std::vector<std::string> names;
    names.reserve(outDims_.size());
    for (const auto &[name, size] : outDims_) {
        (void)size;
        names.push_back(name);
    }
    return names;
}

int32_t
LinearLayout::getInDimSizeLog2(const std::string &dim) const
{
    return static_cast<int32_t>(bases_.at(dim).size());
}

int32_t
LinearLayout::getInDimSize(const std::string &dim) const
{
    return int32_t(1) << getInDimSizeLog2(dim);
}

int32_t
LinearLayout::outDimIndex(const std::string &dim) const
{
    for (size_t j = 0; j < outDims_.size(); ++j) {
        if (outDims_[j].first == dim)
            return static_cast<int32_t>(j);
    }
    llPanic("no output dim named " << dim);
}

int32_t
LinearLayout::getOutDimSizeLog2(const std::string &dim) const
{
    return log2Exact(
        static_cast<uint64_t>(outDims_[outDimIndex(dim)].second));
}

int32_t
LinearLayout::getOutDimSize(const std::string &dim) const
{
    return outDims_[outDimIndex(dim)].second;
}

int32_t
LinearLayout::getTotalInDimSizeLog2() const
{
    int32_t total = 0;
    for (const auto &[dim, vecs] : bases_) {
        (void)dim;
        total += static_cast<int32_t>(vecs.size());
    }
    return total;
}

int32_t
LinearLayout::getTotalInDimSize() const
{
    return int32_t(1) << getTotalInDimSizeLog2();
}

int32_t
LinearLayout::getTotalOutDimSizeLog2() const
{
    int32_t total = 0;
    for (const auto &[name, size] : outDims_) {
        (void)name;
        total += log2Exact(static_cast<uint64_t>(size));
    }
    return total;
}

int32_t
LinearLayout::getTotalOutDimSize() const
{
    return int32_t(1) << getTotalOutDimSizeLog2();
}

int32_t
LinearLayout::getInDimOffset(const std::string &dim) const
{
    int32_t offset = 0;
    for (const auto &[name, vecs] : bases_) {
        if (name == dim)
            return offset;
        offset += static_cast<int32_t>(vecs.size());
    }
    llPanic("no input dim named " << dim);
}

int32_t
LinearLayout::getOutDimOffset(const std::string &dim) const
{
    int32_t offset = 0;
    for (const auto &[name, size] : outDims_) {
        if (name == dim)
            return offset;
        offset += log2Exact(static_cast<uint64_t>(size));
    }
    llPanic("no output dim named " << dim);
}

const std::vector<int32_t> &
LinearLayout::getBasis(const std::string &inDim, int32_t pos) const
{
    const auto &vecs = bases_.at(inDim);
    llAssert(pos >= 0 && pos < static_cast<int32_t>(vecs.size()),
             "basis index out of range");
    return vecs[pos];
}

int32_t
LinearLayout::getBasis(const std::string &inDim, int32_t pos,
                       const std::string &outDim) const
{
    return getBasis(inDim, pos)[outDimIndex(outDim)];
}

std::vector<uint64_t>
LinearLayout::flattenedBases(const std::string &inDim) const
{
    std::vector<uint64_t> out;
    const auto &vecs = bases_.at(inDim);
    out.reserve(vecs.size());
    for (const auto &basis : vecs) {
        uint64_t flat = 0;
        int shift = 0;
        for (size_t j = 0; j < outDims_.size(); ++j) {
            flat |= static_cast<uint64_t>(basis[j]) << shift;
            shift += log2Exact(static_cast<uint64_t>(outDims_[j].second));
        }
        out.push_back(flat);
    }
    return out;
}

uint64_t
LinearLayout::flattenOuts(const std::vector<DimSize> &coords) const
{
    llAssert(coords.size() == outDims_.size(),
             "flattenOuts: coordinate arity mismatch");
    uint64_t flat = 0;
    int shift = 0;
    for (size_t j = 0; j < outDims_.size(); ++j) {
        llAssert(coords[j].first == outDims_[j].first,
                 "flattenOuts: dim order mismatch");
        llAssert(coords[j].second >= 0 &&
                     coords[j].second < outDims_[j].second,
                 "flattenOuts: coordinate out of range");
        flat |= static_cast<uint64_t>(coords[j].second) << shift;
        shift += log2Exact(static_cast<uint64_t>(outDims_[j].second));
    }
    return flat;
}

std::vector<LinearLayout::DimSize>
LinearLayout::unflattenOuts(uint64_t flat) const
{
    std::vector<DimSize> coords;
    for (const auto &[name, size] : outDims_) {
        coords.emplace_back(
            name, static_cast<int32_t>(
                      flat & (static_cast<uint64_t>(size) - 1)));
        flat >>= log2Exact(static_cast<uint64_t>(size));
    }
    llAssert(flat == 0, "unflattenOuts: index out of range");
    return coords;
}

// ---------------------------------------------------------------------
// Application and algebra
// ---------------------------------------------------------------------

std::vector<LinearLayout::DimSize>
LinearLayout::apply(const std::vector<DimSize> &ins) const
{
    llUserCheck(ins.size() == bases_.size(),
                "apply: expected " << bases_.size() << " input coords, got "
                                   << ins.size());
    std::vector<int32_t> acc(outDims_.size(), 0);
    for (const auto &[dim, coord] : ins) {
        const auto &vecs = bases_.at(dim);
        llUserCheck(coord >= 0 &&
                        coord < (int32_t(1) << vecs.size()),
                    "apply: coordinate " << coord << " out of range for "
                                         << dim);
        for (size_t i = 0; i < vecs.size(); ++i) {
            if (getBit(static_cast<uint64_t>(coord), static_cast<int>(i))) {
                for (size_t j = 0; j < acc.size(); ++j)
                    acc[j] ^= vecs[i][j];
            }
        }
    }
    std::vector<DimSize> out;
    out.reserve(outDims_.size());
    for (size_t j = 0; j < outDims_.size(); ++j)
        out.emplace_back(outDims_[j].first, acc[j]);
    return out;
}

uint64_t
LinearLayout::applyFlat(uint64_t in) const
{
    const int pos = static_cast<int>(flatCache_.size());
    llAssert((in >> pos) == 0, "applyFlat: index out of range");
    uint64_t acc = 0;
    for (int i = 0; i < pos; ++i)
        acc ^= flatCache_[i] & (uint64_t(0) - ((in >> i) & 1));
    return acc;
}

uint64_t
LinearLayout::applyFlat_reference(uint64_t in) const
{
    uint64_t acc = 0;
    int pos = 0;
    for (const auto &[dim, vecs] : bases_) {
        (void)dim;
        auto flat = flattenedBases(dim);
        for (size_t i = 0; i < vecs.size(); ++i, ++pos) {
            if (getBit(in, pos))
                acc ^= flat[i];
        }
    }
    llAssert((in >> pos) == 0, "applyFlat: index out of range");
    return acc;
}

LinearLayout
LinearLayout::compose(const LinearLayout &outer) const
{
    llUserCheck(isPermutationOf(getOutDimNames(), outer.getInDimNames()),
                "compose: output dims of inner must match input dims of "
                "outer");
    for (const auto &[name, size] : outDims_) {
        llUserCheck(size <= outer.getInDimSize(name),
                    "compose: dim " << name << " of size " << size
                        << " exceeds outer input size "
                        << outer.getInDimSize(name));
    }

    BasesT newBases;
    for (const auto &[inDim, vecs] : bases_) {
        std::vector<std::vector<int32_t>> newVecs;
        newVecs.reserve(vecs.size());
        for (const auto &basis : vecs) {
            std::vector<DimSize> coords;
            for (size_t j = 0; j < outDims_.size(); ++j)
                coords.emplace_back(outDims_[j].first, basis[j]);
            // outer.apply wants its own in-dim order.
            std::vector<DimSize> ordered;
            for (const auto &name : outer.getInDimNames()) {
                for (const auto &c : coords) {
                    if (c.first == name)
                        ordered.push_back(c);
                }
            }
            auto image = outer.apply(ordered);
            std::vector<int32_t> newBasis;
            newBasis.reserve(image.size());
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
LinearLayout::operator*(const LinearLayout &other) const
{
    // Result dimension orders: ours first, then other's new dims.
    std::vector<std::string> inNames = getInDimNames();
    for (const auto &name : other.getInDimNames()) {
        if (!hasInDim(name))
            inNames.push_back(name);
    }
    std::vector<DimSize> newOutDims = outDims_;
    for (const auto &[name, size] : other.getOutDims()) {
        bool found = false;
        for (auto &[n, s] : newOutDims) {
            if (n == name) {
                s *= size; // logs add: shared dims concatenate bit ranges
                found = true;
            }
        }
        if (!found)
            newOutDims.emplace_back(name, size);
    }

    auto outIndexIn = [&](const std::string &name) {
        for (size_t j = 0; j < newOutDims.size(); ++j)
            if (newOutDims[j].first == name)
                return j;
        llPanic("missing out dim " << name);
    };

    BasesT newBases;
    for (const auto &inName : inNames) {
        std::vector<std::vector<int32_t>> vecs;
        if (hasInDim(inName)) {
            for (const auto &basis : bases_.at(inName)) {
                std::vector<int32_t> nb(newOutDims.size(), 0);
                for (size_t j = 0; j < outDims_.size(); ++j)
                    nb[outIndexIn(outDims_[j].first)] = basis[j];
                vecs.push_back(std::move(nb));
            }
        }
        if (other.hasInDim(inName)) {
            const auto &otherOuts = other.getOutDims();
            for (const auto &basis : other.bases_.at(inName)) {
                std::vector<int32_t> nb(newOutDims.size(), 0);
                for (size_t j = 0; j < otherOuts.size(); ++j) {
                    const std::string &od = otherOuts[j].first;
                    int32_t shift =
                        hasOutDim(od) ? getOutDimSizeLog2(od) : 0;
                    nb[outIndexIn(od)] = basis[j] << shift;
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
LinearLayout::invert() const
{
    llUserCheck(isInvertible(), "invert: layout is not invertible");
    return pseudoinvert();
}

LinearLayout
LinearLayout::pseudoinvert() const
{
    llUserCheck(isSurjective(),
                "pseudoinvert: layout must be surjective");
    f2::F2Matrix m = toF2Matrix();
    f2::F2Matrix inv = m.rightInverse();

    std::vector<DimSize> newIns = outDims_;
    std::vector<DimSize> newOuts;
    for (const auto &[dim, vecs] : bases_)
        newOuts.emplace_back(dim, int32_t(1) << vecs.size());
    return fromF2Matrix(inv, newIns, newOuts, /*requireSurjective=*/false);
}

LinearLayout
LinearLayout::invertAndCompose(const LinearLayout &outer) const
{
    llUserCheck(isPermutationOf(getOutDimNames(), outer.getOutDimNames()),
                "invertAndCompose: output spaces must match");
    LinearLayout alignedOuter = outer.transposeOuts(getOutDimNames());
    for (const auto &[name, size] : outDims_) {
        llUserCheck(alignedOuter.getOutDimSize(name) == size,
                    "invertAndCompose: size mismatch on dim " << name);
    }
    llUserCheck(alignedOuter.isSurjective(),
                "invertAndCompose: target layout must be surjective");

    f2::F2Matrix matA = toF2Matrix();
    f2::F2Matrix matB = alignedOuter.toF2Matrix();
    f2::F2Matrix conv = matB.rightInverse().multiply(matA);

    std::vector<DimSize> newIns;
    for (const auto &[dim, vecs] : bases_)
        newIns.emplace_back(dim, int32_t(1) << vecs.size());
    std::vector<DimSize> newOuts;
    for (const auto &[dim, vecs] : alignedOuter.bases_)
        newOuts.emplace_back(dim, int32_t(1) << vecs.size());
    return fromF2Matrix(conv, newIns, newOuts,
                        /*requireSurjective=*/false);
}

std::optional<LinearLayout>
LinearLayout::divideLeft(const LinearLayout &divisor) const
{
    // Every dim of the divisor must exist here with no larger size.
    for (const auto &name : divisor.getInDimNames()) {
        if (!hasInDim(name) ||
            divisor.getInDimSizeLog2(name) > getInDimSizeLog2(name)) {
            return std::nullopt;
        }
    }
    for (const auto &name : divisor.getOutDimNames()) {
        if (!hasOutDim(name) ||
            divisor.getOutDimSizeLog2(name) > getOutDimSizeLog2(name)) {
            return std::nullopt;
        }
    }

    // The divisor occupies the low input bits of its in dims and the low
    // output bits of its out dims; check the leading bases match.
    for (const auto &name : divisor.getInDimNames()) {
        int32_t dLog = divisor.getInDimSizeLog2(name);
        for (int32_t i = 0; i < dLog; ++i) {
            for (size_t j = 0; j < outDims_.size(); ++j) {
                const std::string &od = outDims_[j].first;
                int32_t val = getBasis(name, i)[j];
                if (divisor.hasOutDim(od)) {
                    if (val != divisor.getBasis(name, i, od))
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
    for (const auto &[name, vecs] : bases_) {
        int32_t skip =
            divisor.hasInDim(name) ? divisor.getInDimSizeLog2(name) : 0;
        std::vector<std::vector<int32_t>> qVecs;
        for (size_t i = skip; i < vecs.size(); ++i) {
            std::vector<int32_t> qb(outDims_.size(), 0);
            for (size_t j = 0; j < outDims_.size(); ++j) {
                const std::string &od = outDims_[j].first;
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
    for (const auto &[name, size] : outDims_) {
        int32_t shift =
            divisor.hasOutDim(name) ? divisor.getOutDimSizeLog2(name) : 0;
        qOuts.emplace_back(name, size >> shift);
    }
    LinearLayout quotient(std::move(qBases), std::move(qOuts),
                          /*requireSurjective=*/false);

    // Final safety net: the factorization must reproduce this layout.
    LinearLayout product = divisor * quotient;
    LinearLayout aligned = product.transposeIns(getInDimNames())
                               .transposeOuts(getOutDimNames());
    if (aligned != *this)
        return std::nullopt;
    return quotient;
}

// ---------------------------------------------------------------------
// Structural transforms
// ---------------------------------------------------------------------

LinearLayout
LinearLayout::sublayout(const std::vector<std::string> &inDims,
                        const std::vector<std::string> &outDims) const
{
    std::vector<int32_t> outIdx;
    std::vector<DimSize> newOuts;
    for (const auto &od : outDims) {
        outIdx.push_back(outDimIndex(od));
        newOuts.emplace_back(od, getOutDimSize(od));
    }
    BasesT newBases;
    for (const auto &id : inDims) {
        llUserCheck(hasInDim(id), "sublayout: no input dim " << id);
        std::vector<std::vector<int32_t>> vecs;
        for (const auto &basis : bases_.at(id)) {
            std::vector<int32_t> nb;
            nb.reserve(outIdx.size());
            for (int32_t j : outIdx)
                nb.push_back(basis[j]);
            vecs.push_back(std::move(nb));
        }
        newBases.insert(id, std::move(vecs));
    }
    return LinearLayout(std::move(newBases), std::move(newOuts),
                        /*requireSurjective=*/false);
}

bool
LinearLayout::sublayoutIsZero(const std::vector<std::string> &inDims,
                              const std::vector<std::string> &outDims) const
{
    return sublayout(inDims, outDims).isZero();
}

LinearLayout
LinearLayout::transposeIns(const std::vector<std::string> &order) const
{
    llUserCheck(isPermutationOf(order, getInDimNames()),
                "transposeIns: not a permutation of input dims");
    BasesT newBases;
    for (const auto &name : order)
        newBases.insert(name, bases_.at(name));
    return LinearLayout(std::move(newBases), outDims_,
                        /*requireSurjective=*/false);
}

LinearLayout
LinearLayout::transposeOuts(const std::vector<std::string> &order) const
{
    llUserCheck(isPermutationOf(order, getOutDimNames()),
                "transposeOuts: not a permutation of output dims");
    std::vector<int32_t> idx;
    std::vector<DimSize> newOuts;
    for (const auto &name : order) {
        idx.push_back(outDimIndex(name));
        newOuts.emplace_back(name, getOutDimSize(name));
    }
    BasesT newBases;
    for (const auto &[name, vecs] : bases_) {
        std::vector<std::vector<int32_t>> newVecs;
        for (const auto &basis : vecs) {
            std::vector<int32_t> nb;
            nb.reserve(idx.size());
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
LinearLayout::reshapeIns(const std::vector<DimSize> &newDims) const
{
    int32_t newTotal = 0;
    for (const auto &[name, size] : newDims) {
        (void)name;
        newTotal += log2Exact(static_cast<uint64_t>(size));
    }
    llUserCheck(newTotal == getTotalInDimSizeLog2(),
                "reshapeIns: total size mismatch");

    // Concatenate all bases in input order, then re-split.
    std::vector<std::vector<int32_t>> all;
    for (const auto &[name, vecs] : bases_) {
        (void)name;
        all.insert(all.end(), vecs.begin(), vecs.end());
    }
    BasesT newBases;
    size_t pos = 0;
    for (const auto &[name, size] : newDims) {
        int32_t k = log2Exact(static_cast<uint64_t>(size));
        std::vector<std::vector<int32_t>> vecs(
            all.begin() + pos, all.begin() + pos + k);
        pos += k;
        newBases.insert(name, std::move(vecs));
    }
    return LinearLayout(std::move(newBases), outDims_,
                        /*requireSurjective=*/false);
}

LinearLayout
LinearLayout::reshapeOuts(const std::vector<DimSize> &newDims) const
{
    int32_t newTotal = 0;
    for (const auto &[name, size] : newDims) {
        (void)name;
        newTotal += log2Exact(static_cast<uint64_t>(size));
    }
    llUserCheck(newTotal == getTotalOutDimSizeLog2(),
                "reshapeOuts: total size mismatch");

    BasesT newBases;
    for (const auto &[name, vecs] : bases_) {
        (void)vecs;
        auto flat = flattenedBases(name);
        std::vector<std::vector<int32_t>> newVecs;
        for (uint64_t f : flat) {
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
LinearLayout::flattenIns(const std::string &name) const
{
    return reshapeIns({{name, getTotalInDimSize()}});
}

LinearLayout
LinearLayout::flattenOutsToDim(const std::string &name) const
{
    return reshapeOuts({{name, getTotalOutDimSize()}});
}

LinearLayout
LinearLayout::renameInDim(const std::string &from,
                          const std::string &to) const
{
    BasesT newBases;
    for (const auto &[name, vecs] : bases_)
        newBases.insert(name == from ? to : name, vecs);
    return LinearLayout(std::move(newBases), outDims_,
                        /*requireSurjective=*/false);
}

LinearLayout
LinearLayout::renameOutDim(const std::string &from,
                           const std::string &to) const
{
    std::vector<DimSize> newOuts = outDims_;
    for (auto &[name, size] : newOuts) {
        (void)size;
        if (name == from)
            name = to;
    }
    return LinearLayout(bases_, std::move(newOuts),
                        /*requireSurjective=*/false);
}

LinearLayout
LinearLayout::removeZeroBasesAlongDim(const std::string &inDim) const
{
    BasesT newBases;
    for (const auto &[name, vecs] : bases_) {
        if (name != inDim) {
            newBases.insert(name, vecs);
            continue;
        }
        std::vector<std::vector<int32_t>> kept;
        for (const auto &basis : vecs) {
            bool allZero = std::all_of(basis.begin(), basis.end(),
                                       [](int32_t v) { return v == 0; });
            if (!allZero)
                kept.push_back(basis);
        }
        newBases.insert(name, std::move(kept));
    }
    return LinearLayout(std::move(newBases), outDims_,
                        /*requireSurjective=*/false);
}

// ---------------------------------------------------------------------
// Analyses
// ---------------------------------------------------------------------

bool
LinearLayout::isInjective() const
{
    return toF2Matrix().rank() == getTotalInDimSizeLog2();
}

bool
LinearLayout::isZero() const
{
    for (const auto &[name, vecs] : bases_) {
        (void)name;
        for (const auto &basis : vecs) {
            for (int32_t v : basis) {
                if (v != 0)
                    return false;
            }
        }
    }
    return true;
}

OrderedMap<std::string, int32_t>
LinearLayout::getFreeVariableMasks() const
{
    OrderedMap<std::string, int32_t> masks;
    f2::EchelonBasis ech;
    for (const auto &[name, vecs] : bases_) {
        (void)vecs;
        int32_t mask = 0;
        auto flat = flattenedBases(name);
        for (size_t i = 0; i < flat.size(); ++i) {
            if (!ech.insert(flat[i]))
                mask |= int32_t(1) << i;
        }
        masks.insert(name, mask);
    }
    return masks;
}

int32_t
LinearLayout::getNumConsecutiveInOut() const
{
    if (bases_.empty() || outDims_.empty())
        return 1;
    const std::string firstIn = bases_.begin()->first;
    auto firstFlat = flattenedBases(firstIn);

    // Contiguity may span output dimensions (the Table 3 cases): what
    // matters is consecutiveness of the *flattened* output index, which
    // is the memory index when the tensor is stored with the same
    // minor-to-major dim order.
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
        for (const auto &[name, vecs] : bases_) {
            (void)vecs;
            auto flat = flattenedBases(name);
            for (size_t i = 0; i < flat.size(); ++i) {
                bool isPrefix = (dimIdx == 0) &&
                                (static_cast<int>(i) < kk);
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

f2::F2Matrix
LinearLayout::toF2Matrix() const
{
    f2::F2Matrix m(getTotalOutDimSizeLog2(), getTotalInDimSizeLog2());
    int col = 0;
    for (const auto &[name, vecs] : bases_) {
        (void)vecs;
        for (uint64_t f : flattenedBases(name))
            m.setCol(col++, f);
    }
    return m;
}

LinearLayout
LinearLayout::fromF2Matrix(const f2::F2Matrix &m,
                           const std::vector<DimSize> &inDims,
                           const std::vector<DimSize> &outDims,
                           bool requireSurjective)
{
    int32_t inTotal = 0;
    for (const auto &[name, size] : inDims) {
        (void)name;
        inTotal += log2Exact(static_cast<uint64_t>(size));
    }
    int32_t outTotal = 0;
    for (const auto &[name, size] : outDims) {
        (void)name;
        outTotal += log2Exact(static_cast<uint64_t>(size));
    }
    llAssert(m.numCols() == inTotal && m.numRows() == outTotal,
             "fromF2Matrix: shape mismatch");

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
    return LinearLayout(std::move(bases), outDims, requireSurjective);
}

bool
LinearLayout::operator==(const LinearLayout &other) const
{
    return bases_ == other.bases_ && outDims_ == other.outDims_;
}

uint64_t
LinearLayout::structuralHash() const
{
    // FNV-1a over everything operator== compares: input dim names in
    // order, their basis coordinates, and the named/sized output dims.
    // Layouts that compare equal hash equal; the interner relies on it.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    auto mixString = [&h](const std::string &s) {
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
        h ^= 0xff; // terminator so "ab","c" != "a","bc"
        h *= 1099511628211ull;
    };
    for (const auto &[inDim, vecs] : bases_) {
        mixString(inDim);
        mix(vecs.size());
        for (const auto &basis : vecs) {
            for (int32_t coord : basis)
                mix(static_cast<uint64_t>(static_cast<uint32_t>(coord)));
        }
    }
    for (const auto &[outDim, size] : outDims_) {
        mixString(outDim);
        mix(static_cast<uint64_t>(static_cast<uint32_t>(size)));
    }
    return h;
}

bool
LinearLayout::equalsIgnoringOutSizes(const LinearLayout &other) const
{
    return bases_ == other.bases_ &&
           getOutDimNames() == other.getOutDimNames();
}

std::string
LinearLayout::toString() const
{
    std::ostringstream oss;
    for (const auto &[name, vecs] : bases_) {
        for (size_t i = 0; i < vecs.size(); ++i) {
            oss << " - " << name << "=" << (1 << i) << " -> ("
                << join(vecs[i], ", ") << ")\n";
        }
        if (vecs.empty())
            oss << " - " << name << " is a size-1 dim\n";
    }
    oss << "where out dims are: [";
    for (size_t j = 0; j < outDims_.size(); ++j) {
        oss << outDims_[j].first << " (size " << outDims_[j].second << ")";
        if (j + 1 < outDims_.size())
            oss << ", ";
    }
    oss << "]\n";
    return oss.str();
}

std::ostream &
operator<<(std::ostream &os, const LinearLayout &layout)
{
    return os << layout.toString();
}

} // namespace ll
