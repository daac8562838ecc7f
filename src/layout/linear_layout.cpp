#include "layout/linear_layout.h"

#include <algorithm>
#include <sstream>

#include "support/bits.h"
#include "support/hash.h"
#include "support/string_utils.h"

namespace ll {

namespace {

const std::string &
nameOf(const std::string &name)
{
    return name;
}

const std::string &
nameOf(const LinearLayout::DimSize &dim)
{
    return dim.first;
}

/**
 * Check that a dim-name list is a permutation of another: every name
 * occurs equally often in both. Lists hold a handful of dims, so the
 * quadratic count beats sorting copies.
 */
template <typename A, typename B>
bool
isPermutationOf(const std::vector<A> &a, const std::vector<B> &b)
{
    if (a.size() != b.size())
        return false;
    for (const auto &x : a) {
        const std::string &name = nameOf(x);
        auto named = [&](const auto &y) { return nameOf(y) == name; };
        if (std::count_if(a.begin(), a.end(), named) !=
            std::count_if(b.begin(), b.end(), named))
            return false;
    }
    return true;
}

/** True iff `order` lists the dims' names in their current order. */
bool
isCurrentOrder(const std::vector<std::string> &order,
               const std::vector<LinearLayout::DimSize> &dims)
{
    for (size_t k = 0; k < order.size(); ++k) {
        if (order[k] != dims[k].first)
            return false;
    }
    return true;
}

int
log2Size(int32_t size)
{
    return log2Exact(static_cast<uint64_t>(size));
}

uint64_t
lowMask(int width)
{
    return (uint64_t(1) << width) - 1;
}

/** A `width`-bit field at bit `from` of a column, moved to bit `to`. */
struct BitField
{
    int from;
    int width;
    int to;
};

/**
 * The field moves that carry a column from one output-bit arrangement to
 * another; bits outside every field are dropped. When every field stays
 * put the move is one mask.
 */
class FieldMap
{
  public:
    void
    add(int from, int width, int to)
    {
        if (width == 0)
            return;
        llAssert(count_ < 64, "more than 64 bit fields");
        fields_[count_++] = {from, width, to};
        kept_ |= lowMask(width) << from;
        identity_ = identity_ && from == to;
    }

    uint64_t
    operator()(uint64_t c) const
    {
        if (identity_)
            return c & kept_;
        uint64_t out = 0;
        for (int i = 0; i < count_; ++i) {
            const BitField &f = fields_[i];
            out |= ((c >> f.from) & lowMask(f.width)) << f.to;
        }
        return out;
    }

  private:
    // A field is at least one bit wide, so 64 hold any output space.
    BitField fields_[64] = {};
    int count_ = 0;
    uint64_t kept_ = 0;
    bool identity_ = true;
};

/**
 * Pivot table keyed by leading bit. insert() reduces a vector by the
 * pivots and stores the remainder if it is nonzero, so the number of
 * successful inserts is the rank of everything inserted. No back
 * reduction: only independence is asked of it.
 */
class PivotTable
{
  public:
    bool
    insert(uint64_t v)
    {
        while (v != 0) {
            const int lb = leadingBit(v);
            if (!getBit(occupied_, lb)) {
                table_[lb] = v;
                occupied_ |= uint64_t(1) << lb;
                return true;
            }
            v ^= table_[lb];
        }
        return false;
    }

  private:
    uint64_t table_[64] = {};
    uint64_t occupied_ = 0;
};

/** Bit offset of each output dim in the flattened output index. */
std::vector<int>
outOffsets(const std::vector<LinearLayout::DimSize> &outDims)
{
    std::vector<int> offsets;
    offsets.reserve(outDims.size());
    int offset = 0;
    for (const auto &[name, size] : outDims) {
        (void)name;
        offsets.push_back(offset);
        offset += log2Size(size);
    }
    return offsets;
}

} // namespace

LinearLayout::LinearLayout(BasesT bases, std::vector<DimSize> outDims,
                           bool requireSurjective)
    : outDims_(std::move(outDims))
{
    checkOutDims();
    for (const auto &[inDim, vecs] : bases) {
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
    inDims_.reserve(bases.size());
    for (const auto &[inDim, vecs] : bases) {
        inDims_.emplace_back(inDim, static_cast<int32_t>(vecs.size()));
        for (const auto &basis : vecs) {
            uint64_t flat = 0;
            int shift = 0;
            for (size_t j = 0; j < outDims_.size(); ++j) {
                // A size-1 dim may sit at bit 64; its coordinate is 0.
                if (basis[j] != 0)
                    flat |= static_cast<uint64_t>(basis[j]) << shift;
                shift += log2Size(outDims_[j].second);
            }
            cols_.push_back(flat);
        }
    }
    decideSurjective(requireSurjective);
}

LinearLayout
LinearLayout::fromColumns(std::vector<DimSize> inDims,
                          std::vector<DimSize> outDims,
                          std::vector<uint64_t> cols, bool requireSurjective)
{
    LinearLayout l;
    l.inDims_ = std::move(inDims);
    l.outDims_ = std::move(outDims);
    l.cols_ = std::move(cols);
    size_t inBits = 0;
    for (const auto &[name, log2] : l.inDims_) {
        llAssert(log2 >= 0, "fromColumns: negative size of " << name);
        inBits += static_cast<size_t>(log2);
    }
    llAssert(l.cols_.size() == inBits,
             "fromColumns: " << l.cols_.size() << " columns for "
                             << inBits << " input bits");
    l.checkDistinctInDims();
    l.checkOutDims();
    l.decideSurjective(requireSurjective);
    return l;
}

void
LinearLayout::checkOutDims() const
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
    llAssert(getTotalOutDimSizeLog2() <= 64, "output space exceeds 64 bits");
}

void
LinearLayout::decideSurjective(bool requireSurjective)
{
    // Surjectivity: the columns must span the output space. Rank by
    // pivot table, stopping as soon as the span is full.
    const int outBits = getTotalOutDimSizeLog2();
    for (uint64_t c : cols_)
        llAssert(outBits == 64 || (c >> outBits) == 0,
                 "column " << c << " outside the output space");
    int rank = 0;
    if (static_cast<int>(cols_.size()) >= outBits && outBits > 0) {
        PivotTable pivots;
        for (uint64_t c : cols_) {
            if (pivots.insert(c) && ++rank == outBits)
                break;
        }
    }
    surjective_ = rank == outBits;
    llUserCheck(!requireSurjective || surjective_,
                "layout is not surjective onto its output space");
}

void
LinearLayout::checkDistinctInDims() const
{
    for (size_t d = 0; d < inDims_.size(); ++d) {
        for (size_t e = 0; e < d; ++e)
            llAssert(inDims_[e].first != inDims_[d].first,
                     "duplicate input dim " << inDims_[d].first);
    }
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

LinearLayout
LinearLayout::identity1D(int32_t size, const std::string &inDim,
                         const std::string &outDim)
{
    llUserCheck(isPowerOf2(static_cast<uint64_t>(size)),
                "identity1D size must be a power of two");
    const int k = log2Size(size);
    std::vector<uint64_t> cols(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i)
        cols[i] = uint64_t(1) << i;
    return fromColumns({{inDim, k}}, {{outDim, size}}, std::move(cols),
                       true);
}

LinearLayout
LinearLayout::zeros1D(int32_t size, const std::string &inDim,
                      const std::string &outDim, int32_t outDimSize)
{
    llUserCheck(isPowerOf2(static_cast<uint64_t>(size)),
                "zeros1D size must be a power of two");
    const int k = log2Size(size);
    return fromColumns({{inDim, k}}, {{outDim, outDimSize}},
                       std::vector<uint64_t>(static_cast<size_t>(k), 0),
                       /*requireSurjective=*/false);
}

// ---------------------------------------------------------------------
// Shape queries
// ---------------------------------------------------------------------

int
LinearLayout::findInDim(const std::string &dim) const
{
    for (size_t d = 0; d < inDims_.size(); ++d) {
        if (inDims_[d].first == dim)
            return static_cast<int>(d);
    }
    return -1;
}

int
LinearLayout::inDimIndex(const std::string &dim) const
{
    const int d = findInDim(dim);
    llAssert(d >= 0, "no input dim named " << dim);
    return d;
}

int32_t
LinearLayout::inDimBegin(int index) const
{
    int32_t begin = 0;
    for (int d = 0; d < index; ++d)
        begin += inDims_[d].second;
    return begin;
}

bool
LinearLayout::hasInDim(const std::string &dim) const
{
    return findInDim(dim) >= 0;
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
LinearLayout::getInDimNames() const
{
    std::vector<std::string> names;
    names.reserve(inDims_.size());
    for (const auto &[name, log2] : inDims_) {
        (void)log2;
        names.push_back(name);
    }
    return names;
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
    return inDims_[inDimIndex(dim)].second;
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
    return log2Size(outDims_[outDimIndex(dim)].second);
}

int32_t
LinearLayout::getOutDimSize(const std::string &dim) const
{
    return outDims_[outDimIndex(dim)].second;
}

int32_t
LinearLayout::getTotalInDimSizeLog2() const
{
    return static_cast<int32_t>(cols_.size());
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
        total += log2Size(size);
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
    const int d = findInDim(dim);
    if (d < 0)
        llPanic("no input dim named " << dim);
    return inDimBegin(d);
}

int32_t
LinearLayout::getOutDimOffset(const std::string &dim) const
{
    int32_t offset = 0;
    for (const auto &[name, size] : outDims_) {
        if (name == dim)
            return offset;
        offset += log2Size(size);
    }
    llPanic("no output dim named " << dim);
}

LinearLayout::BasesT
LinearLayout::getBases() const
{
    BasesT bases;
    size_t col = 0;
    for (const auto &[name, log2] : inDims_) {
        std::vector<std::vector<int32_t>> vecs;
        vecs.reserve(static_cast<size_t>(log2));
        for (int32_t i = 0; i < log2; ++i, ++col)
            vecs.push_back(unflattenOutsCoords(cols_[col]));
        bases.insert(name, std::move(vecs));
    }
    return bases;
}

std::vector<int32_t>
LinearLayout::unflattenOutsCoords(uint64_t flat) const
{
    std::vector<int32_t> coords;
    coords.reserve(outDims_.size());
    for (const auto &[name, size] : outDims_) {
        (void)name;
        coords.push_back(
            static_cast<int32_t>(flat & (static_cast<uint64_t>(size) - 1)));
        flat >>= log2Size(size);
    }
    return coords;
}

std::vector<int32_t>
LinearLayout::getBasis(const std::string &inDim, int32_t pos) const
{
    const int d = inDimIndex(inDim);
    llAssert(pos >= 0 && pos < inDims_[d].second,
             "basis index out of range");
    return unflattenOutsCoords(cols_[inDimBegin(d) + pos]);
}

int32_t
LinearLayout::getBasis(const std::string &inDim, int32_t pos,
                       const std::string &outDim) const
{
    const int d = inDimIndex(inDim);
    llAssert(pos >= 0 && pos < inDims_[d].second,
             "basis index out of range");
    const int32_t j = outDimIndex(outDim);
    const uint64_t mask = static_cast<uint64_t>(outDims_[j].second) - 1;
    if (mask == 0) // a size-1 dim, possibly at bit 64
        return 0;
    return static_cast<int32_t>(
        (cols_[inDimBegin(d) + pos] >> getOutDimOffset(outDim)) & mask);
}

std::vector<uint64_t>
LinearLayout::flattenedBases(const std::string &inDim) const
{
    const int d = inDimIndex(inDim);
    const auto begin = cols_.begin() + inDimBegin(d);
    return std::vector<uint64_t>(begin, begin + inDims_[d].second);
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
        if (coords[j].second != 0)
            flat |= static_cast<uint64_t>(coords[j].second) << shift;
        shift += log2Size(outDims_[j].second);
    }
    return flat;
}

std::vector<LinearLayout::DimSize>
LinearLayout::unflattenOuts(uint64_t flat) const
{
    std::vector<DimSize> coords;
    coords.reserve(outDims_.size());
    for (const auto &[name, size] : outDims_) {
        coords.emplace_back(
            name, static_cast<int32_t>(
                      flat & (static_cast<uint64_t>(size) - 1)));
        flat >>= log2Size(size);
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
    llUserCheck(ins.size() == inDims_.size(),
                "apply: expected " << inDims_.size()
                                   << " input coords, got " << ins.size());
    uint64_t acc = 0;
    for (const auto &[dim, coord] : ins) {
        const int d = inDimIndex(dim);
        const int32_t k = inDims_[d].second;
        llUserCheck(coord >= 0 && coord < (int32_t(1) << k),
                    "apply: coordinate " << coord << " out of range for "
                                         << dim);
        const int32_t begin = inDimBegin(d);
        for (int32_t i = 0; i < k; ++i)
            acc ^= cols_[begin + i] &
                   (uint64_t(0) - getBit(static_cast<uint64_t>(coord), i));
    }
    return unflattenOuts(acc);
}

uint64_t
LinearLayout::applyFlat(uint64_t in) const
{
    const int pos = static_cast<int>(cols_.size());
    llAssert(pos >= 64 || (in >> pos) == 0,
             "applyFlat: index out of range");
    uint64_t acc = 0;
    for (int i = 0; i < pos; ++i)
        acc ^= cols_[i] & (uint64_t(0) - ((in >> i) & 1));
    return acc;
}

LinearLayout
LinearLayout::compose(const LinearLayout &outer) const
{
    llUserCheck(isPermutationOf(outDims_, outer.inDims_),
                "compose: output dims of inner must match input dims of "
                "outer");
    for (const auto &[name, size] : outDims_) {
        llUserCheck(size <= outer.getInDimSize(name),
                    "compose: dim " << name << " of size " << size
                        << " exceeds outer input size "
                        << outer.getInDimSize(name));
    }

    // Each column is a flat index over our out dims; move each out dim's
    // bit field to where outer flattens that input dim, then apply outer.
    FieldMap toOuterIn;
    int from = 0;
    for (const auto &[name, size] : outDims_) {
        const int width = log2Size(size);
        toOuterIn.add(from, width, outer.getInDimOffset(name));
        from += width;
    }
    std::vector<uint64_t> cols;
    cols.reserve(cols_.size());
    for (uint64_t c : cols_)
        cols.push_back(outer.applyFlat(toOuterIn(c)));
    return fromColumns(inDims_, outer.outDims_, std::move(cols),
                       /*requireSurjective=*/false);
}

LinearLayout
LinearLayout::operator*(const LinearLayout &other) const
{
    // Result dimension orders: ours first, then other's new dims. Shared
    // in dims concatenate columns (ours low); shared out dims
    // concatenate bit ranges (ours low), so their sizes multiply.
    std::vector<DimSize> newInDims = inDims_;
    for (const auto &[name, log2] : other.inDims_) {
        if (!hasInDim(name))
            newInDims.emplace_back(name, 0);
    }
    for (auto &[name, log2] : newInDims) {
        const int d = other.findInDim(name);
        if (d >= 0)
            log2 += other.inDims_[d].second;
    }
    std::vector<DimSize> newOutDims = outDims_;
    for (const auto &[name, size] : other.outDims_) {
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
    auto newOffset = [&](const std::string &name) {
        int offset = 0;
        for (const auto &[n, s] : newOutDims) {
            if (n == name)
                return offset;
            offset += log2Size(s);
        }
        llPanic("missing out dim " << name);
    };

    FieldMap ours, theirs;
    int from = 0;
    for (const auto &[name, size] : outDims_) {
        const int width = log2Size(size);
        ours.add(from, width, newOffset(name));
        from += width;
    }
    from = 0;
    for (const auto &[name, size] : other.outDims_) {
        const int width = log2Size(size);
        const int above = hasOutDim(name) ? getOutDimSizeLog2(name) : 0;
        theirs.add(from, width, newOffset(name) + above);
        from += width;
    }

    std::vector<uint64_t> cols;
    cols.reserve(cols_.size() + other.cols_.size());
    for (const auto &[name, log2] : newInDims) {
        (void)log2;
        const int d = findInDim(name);
        if (d >= 0) {
            const int32_t begin = inDimBegin(d);
            for (int32_t i = 0; i < inDims_[d].second; ++i)
                cols.push_back(ours(cols_[begin + i]));
        }
        const int e = other.findInDim(name);
        if (e >= 0) {
            const int32_t begin = other.inDimBegin(e);
            for (int32_t i = 0; i < other.inDims_[e].second; ++i)
                cols.push_back(theirs(other.cols_[begin + i]));
        }
    }
    return fromColumns(std::move(newInDims), std::move(newOutDims),
                       std::move(cols), /*requireSurjective=*/false);
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
    f2::F2Matrix inv = toF2Matrix().rightInverse();

    std::vector<DimSize> newOuts;
    newOuts.reserve(inDims_.size());
    for (const auto &[dim, log2] : inDims_)
        newOuts.emplace_back(dim, int32_t(1) << log2);
    return fromF2Matrix(inv, outDims_, newOuts,
                        /*requireSurjective=*/false);
}

LinearLayout
LinearLayout::invertAndCompose(const LinearLayout &outer) const
{
    llUserCheck(isPermutationOf(outDims_, outer.outDims_),
                "invertAndCompose: output spaces must match");
    LinearLayout alignedOuter = outer.transposeOuts(getOutDimNames());
    for (const auto &[name, size] : outDims_) {
        llUserCheck(alignedOuter.getOutDimSize(name) == size,
                    "invertAndCompose: size mismatch on dim " << name);
    }
    llUserCheck(alignedOuter.isSurjective(),
                "invertAndCompose: target layout must be surjective");

    f2::F2Matrix conv =
        alignedOuter.toF2Matrix().rightInverse().multiply(toF2Matrix());
    std::vector<DimSize> newIns;
    newIns.reserve(inDims_.size());
    for (const auto &[dim, log2] : inDims_)
        newIns.emplace_back(dim, int32_t(1) << log2);
    std::vector<DimSize> newOuts;
    newOuts.reserve(alignedOuter.inDims_.size());
    for (const auto &[dim, log2] : alignedOuter.inDims_)
        newOuts.emplace_back(dim, int32_t(1) << log2);
    return fromF2Matrix(conv, newIns, newOuts,
                        /*requireSurjective=*/false);
}

std::optional<LinearLayout>
LinearLayout::divideLeft(const LinearLayout &divisor) const
{
    // Every dim of the divisor must exist here with no larger size.
    for (const auto &[name, log2] : divisor.inDims_) {
        if (!hasInDim(name) || log2 > getInDimSizeLog2(name))
            return std::nullopt;
    }
    for (const auto &[name, size] : divisor.outDims_) {
        if (!hasOutDim(name) || size > getOutDimSize(name))
            return std::nullopt;
    }

    // The divisor occupies the low input bits of its in dims and the low
    // output bits of its out dims. Per out dim of ours: where its field
    // sits, and how many low bits of it the divisor owns.
    const std::vector<int> offsets = outOffsets(outDims_);
    FieldMap toDivisor;      // our column -> divisor's flat output
    uint64_t divisorBits = 0; // our output bits the divisor owns
    FieldMap toQuotient;     // our column -> quotient's flat output
    std::vector<DimSize> qOuts;
    qOuts.reserve(outDims_.size());
    int qOffset = 0;
    for (size_t j = 0; j < outDims_.size(); ++j) {
        const auto &[name, size] = outDims_[j];
        const int width = log2Size(size);
        const int low = divisor.hasOutDim(name)
                            ? divisor.getOutDimSizeLog2(name)
                            : 0;
        if (low > 0) {
            toDivisor.add(offsets[j], low, divisor.getOutDimOffset(name));
            divisorBits |= lowMask(low) << offsets[j];
        }
        toQuotient.add(offsets[j] + low, width - low, qOffset);
        qOffset += width - low;
        qOuts.emplace_back(name, size >> low);
    }

    // The leading columns of each divisor in dim must equal the
    // divisor's columns, with nothing outside the divisor's bits.
    for (size_t e = 0; e < divisor.inDims_.size(); ++e) {
        const int32_t dBegin = divisor.inDimBegin(static_cast<int>(e));
        const int32_t begin = inDimBegin(inDimIndex(divisor.inDims_[e].first));
        for (int32_t i = 0; i < divisor.inDims_[e].second; ++i) {
            const uint64_t c = cols_[begin + i];
            if ((c & ~divisorBits) != 0 ||
                toDivisor(c) != divisor.cols_[dBegin + i])
                return std::nullopt;
        }
    }

    // Remaining columns must avoid the divisor's low output bits; shift
    // them down to form the quotient.
    std::vector<DimSize> qIns;
    qIns.reserve(inDims_.size());
    std::vector<uint64_t> qCols;
    int32_t begin = 0;
    for (const auto &[name, log2] : inDims_) {
        const int e = divisor.findInDim(name);
        const int32_t skip = e >= 0 ? divisor.inDims_[e].second : 0;
        for (int32_t i = skip; i < log2; ++i) {
            const uint64_t c = cols_[begin + i];
            if ((c & divisorBits) != 0)
                return std::nullopt;
            qCols.push_back(toQuotient(c));
        }
        qIns.emplace_back(name, log2 - skip);
        begin += log2;
    }
    LinearLayout quotient =
        fromColumns(std::move(qIns), std::move(qOuts), std::move(qCols),
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
    const std::vector<int> offsets = outOffsets(outDims_);
    FieldMap project;
    std::vector<DimSize> newOuts;
    newOuts.reserve(outDims.size());
    int to = 0;
    for (const auto &od : outDims) {
        const int32_t j = outDimIndex(od);
        const int width = log2Size(outDims_[j].second);
        project.add(offsets[j], width, to);
        to += width;
        newOuts.emplace_back(od, outDims_[j].second);
    }
    std::vector<DimSize> newIns;
    newIns.reserve(inDims.size());
    std::vector<uint64_t> cols;
    for (const auto &id : inDims) {
        llUserCheck(hasInDim(id), "sublayout: no input dim " << id);
        const int d = inDimIndex(id);
        const int32_t begin = inDimBegin(d);
        for (int32_t i = 0; i < inDims_[d].second; ++i)
            cols.push_back(project(cols_[begin + i]));
        newIns.push_back(inDims_[d]);
    }
    return fromColumns(std::move(newIns), std::move(newOuts),
                       std::move(cols), /*requireSurjective=*/false);
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
    llUserCheck(isPermutationOf(order, inDims_),
                "transposeIns: not a permutation of input dims");
    if (isCurrentOrder(order, inDims_))
        return *this;
    // Reordering columns leaves the rank alone.
    LinearLayout l;
    l.outDims_ = outDims_;
    l.surjective_ = surjective_;
    l.inDims_.reserve(order.size());
    l.cols_.reserve(cols_.size());
    for (const auto &name : order) {
        const int d = inDimIndex(name);
        const auto begin = cols_.begin() + inDimBegin(d);
        l.inDims_.push_back(inDims_[d]);
        l.cols_.insert(l.cols_.end(), begin, begin + inDims_[d].second);
    }
    return l;
}

LinearLayout
LinearLayout::transposeOuts(const std::vector<std::string> &order) const
{
    llUserCheck(isPermutationOf(order, outDims_),
                "transposeOuts: not a permutation of output dims");
    // Permuting output bits leaves the rank alone.
    LinearLayout l = *this;
    if (isCurrentOrder(order, outDims_))
        return l;
    const std::vector<int> offsets = outOffsets(outDims_);
    FieldMap permute;
    int to = 0;
    for (size_t k = 0; k < order.size(); ++k) {
        const int32_t j = outDimIndex(order[k]);
        const int width = log2Size(outDims_[j].second);
        permute.add(offsets[j], width, to);
        to += width;
        l.outDims_[k] = outDims_[j];
    }
    for (uint64_t &c : l.cols_)
        c = permute(c);
    return l;
}

LinearLayout
LinearLayout::reshapeIns(const std::vector<DimSize> &newDims) const
{
    int32_t newTotal = 0;
    for (const auto &[name, size] : newDims) {
        (void)name;
        newTotal += log2Size(size);
    }
    llUserCheck(newTotal == getTotalInDimSizeLog2(),
                "reshapeIns: total size mismatch");

    // The columns stay in input order; only the split into dims changes.
    LinearLayout l = *this;
    l.inDims_.clear();
    l.inDims_.reserve(newDims.size());
    for (const auto &[name, size] : newDims)
        l.inDims_.emplace_back(name, log2Size(size));
    l.checkDistinctInDims();
    return l;
}

LinearLayout
LinearLayout::reshapeOuts(const std::vector<DimSize> &newDims) const
{
    int32_t newTotal = 0;
    for (const auto &[name, size] : newDims) {
        (void)name;
        newTotal += log2Size(size);
    }
    llUserCheck(newTotal == getTotalOutDimSizeLog2(),
                "reshapeOuts: total size mismatch");

    // The flattened output index is unchanged; only its split into dims.
    LinearLayout l = *this;
    l.outDims_ = newDims;
    return l;
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
    LinearLayout l = *this;
    for (auto &[name, log2] : l.inDims_) {
        (void)log2;
        if (name == from)
            name = to;
    }
    l.checkDistinctInDims();
    return l;
}

LinearLayout
LinearLayout::renameOutDim(const std::string &from,
                           const std::string &to) const
{
    LinearLayout l = *this;
    for (auto &[name, size] : l.outDims_) {
        (void)size;
        if (name == from)
            name = to;
    }
    return l;
}

LinearLayout
LinearLayout::removeZeroBasesAlongDim(const std::string &inDim) const
{
    const int d = findInDim(inDim);
    if (d < 0)
        return *this;
    // Zero columns add nothing to the rank.
    LinearLayout l = *this;
    const auto begin = l.cols_.begin() + inDimBegin(d);
    const auto end = begin + inDims_[d].second;
    const auto kept = std::remove(begin, end, uint64_t(0));
    l.inDims_[d].second -= static_cast<int32_t>(end - kept);
    l.cols_.erase(kept, end);
    return l;
}

// ---------------------------------------------------------------------
// Analyses
// ---------------------------------------------------------------------

bool
LinearLayout::isInjective() const
{
    if (static_cast<int32_t>(cols_.size()) > getTotalOutDimSizeLog2())
        return false;
    PivotTable pivots;
    for (uint64_t c : cols_) {
        if (!pivots.insert(c))
            return false;
    }
    return true;
}

bool
LinearLayout::isZero() const
{
    return std::all_of(cols_.begin(), cols_.end(),
                       [](uint64_t c) { return c == 0; });
}

OrderedMap<std::string, int32_t>
LinearLayout::getFreeVariableMasks() const
{
    OrderedMap<std::string, int32_t> masks;
    PivotTable pivots;
    size_t col = 0;
    for (const auto &[name, log2] : inDims_) {
        int32_t mask = 0;
        for (int32_t i = 0; i < log2; ++i, ++col) {
            if (!pivots.insert(cols_[col]))
                mask |= int32_t(1) << i;
        }
        masks.insert(name, mask);
    }
    return masks;
}

int32_t
LinearLayout::getNumConsecutiveInOut() const
{
    if (inDims_.empty() || outDims_.empty())
        return 1;

    // Contiguity may span output dimensions (the Table 3 cases): what
    // matters is consecutiveness of the *flattened* output index, which
    // is the memory index when the tensor is stored with the same
    // minor-to-major dim order.
    const int firstLog2 = inDims_.front().second;
    int k = 0;
    while (k < firstLog2 && cols_[k] == (uint64_t(1) << k))
        ++k;

    // No other input bit may land inside the low-k-bit window, or the
    // "consecutive" elements would be interleaved with other resources.
    // The first k columns are the window's own prefix.
    auto overlaps = [&](int kk) {
        const uint64_t maskLow = lowMask(kk);
        for (size_t i = kk; i < cols_.size(); ++i) {
            if ((cols_[i] & maskLow) != 0)
                return true;
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
    return f2::F2Matrix(getTotalOutDimSizeLog2(), cols_);
}

LinearLayout
LinearLayout::fromF2Matrix(const f2::F2Matrix &m,
                           const std::vector<DimSize> &inDims,
                           const std::vector<DimSize> &outDims,
                           bool requireSurjective)
{
    std::vector<DimSize> inLog2s;
    inLog2s.reserve(inDims.size());
    int32_t inTotal = 0;
    for (const auto &[name, size] : inDims) {
        inLog2s.emplace_back(name, log2Size(size));
        inTotal += inLog2s.back().second;
    }
    int32_t outTotal = 0;
    for (const auto &[name, size] : outDims) {
        (void)name;
        outTotal += log2Size(size);
    }
    llAssert(m.numCols() == inTotal && m.numRows() == outTotal,
             "fromF2Matrix: shape mismatch");
    return fromColumns(std::move(inLog2s), outDims, m.columns(),
                       requireSurjective);
}

bool
LinearLayout::operator==(const LinearLayout &other) const
{
    return inDims_ == other.inDims_ && outDims_ == other.outDims_ &&
           cols_ == other.cols_;
}

uint64_t
LinearLayout::structuralHash() const
{
    // One word per step over everything operator== compares: input dim
    // names and sizes in order, every column, and the named/sized
    // output dims. Layouts that compare equal hash equal; the interner
    // relies on it.
    WordHash h;
    for (const auto &[inDim, log2] : inDims_)
        h.bytes(inDim).word(static_cast<uint64_t>(log2));
    for (uint64_t c : cols_)
        h.word(c);
    for (const auto &[outDim, size] : outDims_)
        h.bytes(outDim).word(static_cast<uint32_t>(size));
    return h.value();
}

bool
LinearLayout::equalsIgnoringOutSizes(const LinearLayout &other) const
{
    if (inDims_ != other.inDims_ ||
        getOutDimNames() != other.getOutDimNames())
        return false;
    if (outDims_ == other.outDims_)
        return cols_ == other.cols_;
    // Same coordinates per out dim, each read at its own offset.
    for (size_t i = 0; i < cols_.size(); ++i) {
        if (unflattenOutsCoords(cols_[i]) !=
            other.unflattenOutsCoords(other.cols_[i]))
            return false;
    }
    return true;
}

std::string
LinearLayout::toString() const
{
    std::ostringstream oss;
    size_t col = 0;
    for (const auto &[name, log2] : inDims_) {
        for (int32_t i = 0; i < log2; ++i, ++col) {
            oss << " - " << name << "=" << (1 << i) << " -> ("
                << join(unflattenOutsCoords(cols_[col]), ", ") << ")\n";
        }
        if (log2 == 0)
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
