#include "f2/subspace.h"

#include <algorithm>
#include <bit>

#include "support/bits.h"
#include "support/diagnostics.h"

namespace ll {
namespace f2 {

// ---------------------------------------------------------------------------
// Pivot-table echelon basis (fast path).
//
// The reference reduce scans the value-sorted basis and XORs whenever the
// running leading bit matches a pivot; because the leading bit only ever
// decreases and each pivot is held by exactly one vector, that scan is
// equivalent to "while the leading bit of v is a pivot, XOR that pivot's
// vector" — a direct table lookup. Insert back-reduces only vectors whose
// pivot lies above the new leading bit (lower pivots cannot have the bit
// set), so pivots never move and the table write is O(1).
// ---------------------------------------------------------------------------

EchelonBasis::EchelonBasis(const std::vector<uint64_t> &generators)
{
    for (uint64_t g : generators)
        insert(g);
}

uint64_t
EchelonBasis::reduce(uint64_t v) const
{
    while (v != 0) {
        int lb = leadingBit(v);
        if (!getBit(pivotMask_, lb))
            break;
        v ^= table_[lb];
    }
    return v;
}

bool
EchelonBasis::contains(uint64_t v) const
{
    return reduce(v) == 0;
}

bool
EchelonBasis::insert(uint64_t v)
{
    v = reduce(v);
    if (v == 0)
        return false;
    const int lb = leadingBit(v);
    for (uint64_t m = pivotMask_; m != 0;) {
        int p = leadingBit(m);
        m ^= uint64_t(1) << p;
        if (getBit(table_[p], lb))
            table_[p] ^= v;
    }
    table_[lb] = v;
    pivotMask_ |= uint64_t(1) << lb;
    return true;
}

int
EchelonBasis::dimension() const
{
    return popcount(pivotMask_);
}

std::vector<uint64_t>
EchelonBasis::vectors() const
{
    // Descending pivot order equals the reference's descending value sort:
    // with distinct leading bits, the leading bit dominates the comparison.
    std::vector<uint64_t> basis;
    basis.reserve(static_cast<size_t>(dimension()));
    for (uint64_t m = pivotMask_; m != 0;) {
        int p = leadingBit(m);
        m ^= uint64_t(1) << p;
        basis.push_back(table_[p]);
    }
    return basis;
}

// ---------------------------------------------------------------------------
// Sorted-vector echelon basis (reference oracle, original code).
// ---------------------------------------------------------------------------

EchelonBasisReference::EchelonBasisReference(
    const std::vector<uint64_t> &generators)
{
    for (uint64_t g : generators)
        insert(g);
}

uint64_t
EchelonBasisReference::reduce(uint64_t v) const
{
    for (uint64_t b : basis_) {
        if (v == 0)
            break;
        if (leadingBit(v) == leadingBit(b))
            v ^= b;
    }
    return v;
}

bool
EchelonBasisReference::contains(uint64_t v) const
{
    return reduce(v) == 0;
}

bool
EchelonBasisReference::insert(uint64_t v)
{
    v = reduce(v);
    if (v == 0)
        return false;
    // Back-reduce existing vectors so the basis stays reduced.
    for (uint64_t &b : basis_) {
        if (getBit(b, leadingBit(v)))
            b ^= v;
    }
    basis_.push_back(v);
    std::sort(basis_.begin(), basis_.end(),
              [](uint64_t a, uint64_t b) { return a > b; });
    return true;
}

// ---------------------------------------------------------------------------
// Free functions, each followed by its scalar reference twin.
// ---------------------------------------------------------------------------

std::vector<uint64_t>
reduceToBasis(const std::vector<uint64_t> &vectors)
{
    EchelonBasis ech;
    std::vector<uint64_t> out;
    for (uint64_t v : vectors) {
        if (ech.insert(v))
            out.push_back(v);
    }
    return out;
}

std::vector<uint64_t>
reduceToBasis_reference(const std::vector<uint64_t> &vectors)
{
    EchelonBasisReference ech;
    std::vector<uint64_t> out;
    for (uint64_t v : vectors) {
        if (ech.insert(v))
            out.push_back(v);
    }
    return out;
}

int
rankOfVectors(const std::vector<uint64_t> &vectors)
{
    return EchelonBasis(vectors).dimension();
}

int
rankOfVectors_reference(const std::vector<uint64_t> &vectors)
{
    return EchelonBasisReference(vectors).dimension();
}

bool
spanContains(const std::vector<uint64_t> &basis, uint64_t v)
{
    return EchelonBasis(basis).contains(v);
}

bool
spanContains_reference(const std::vector<uint64_t> &basis, uint64_t v)
{
    return EchelonBasisReference(basis).contains(v);
}

std::vector<uint64_t>
complementBasis(const std::vector<uint64_t> &basis, int dim)
{
    llAssert(dim >= 0 && dim <= 64, "dimension out of range");
    EchelonBasis ech(basis);
    std::vector<uint64_t> added;
    for (int i = 0; i < dim; ++i) {
        uint64_t e = uint64_t(1) << i;
        if (ech.insert(e))
            added.push_back(e);
    }
    return added;
}

std::vector<uint64_t>
complementBasis_reference(const std::vector<uint64_t> &basis, int dim)
{
    llAssert(dim >= 0 && dim <= 64, "dimension out of range");
    EchelonBasisReference ech(basis);
    std::vector<uint64_t> added;
    for (int i = 0; i < dim; ++i) {
        uint64_t e = uint64_t(1) << i;
        if (ech.insert(e))
            added.push_back(e);
    }
    return added;
}

std::vector<uint64_t>
completeBasis(const std::vector<uint64_t> &basis, int dim)
{
    std::vector<uint64_t> out = reduceToBasis(basis);
    llAssert(out.size() == reduceToBasis(basis).size(),
             "completeBasis expects an independent set");
    std::vector<uint64_t> extra = complementBasis(basis, dim);
    out.insert(out.end(), extra.begin(), extra.end());
    return out;
}

std::vector<uint64_t>
completeBasis_reference(const std::vector<uint64_t> &basis, int dim)
{
    std::vector<uint64_t> out = reduceToBasis_reference(basis);
    llAssert(out.size() == reduceToBasis_reference(basis).size(),
             "completeBasis expects an independent set");
    std::vector<uint64_t> extra = complementBasis_reference(basis, dim);
    out.insert(out.end(), extra.begin(), extra.end());
    return out;
}

std::vector<uint64_t>
intersectSpans(const std::vector<uint64_t> &u, const std::vector<uint64_t> &v,
               int dim)
{
    llAssert(dim >= 0 && dim <= 32,
             "intersectSpans supports dimensions up to 32");
    // Zassenhaus on packed (hi << dim) | lo pairs, with the reduced row
    // set held in a pivot table instead of a re-sorted vector. Forward
    // reduction by leading bit is forced (see EchelonBasis above), so the
    // surviving packed values — and therefore the collected intersection
    // vectors and their order — match the reference exactly.
    const uint64_t loMask =
        (dim < 64) ? ((uint64_t(1) << dim) - 1) : ~uint64_t(0);
    uint64_t row[64] = {0};
    uint64_t rowMask = 0;
    std::vector<uint64_t> intersection;
    EchelonBasis interEch;
    auto feed = [&](uint64_t packed) {
        while (packed != 0) {
            int lb = leadingBit(packed);
            if (!getBit(rowMask, lb))
                break;
            packed ^= row[lb];
        }
        if (packed == 0)
            return;
        int lb = leadingBit(packed);
        row[lb] = packed;
        rowMask |= uint64_t(1) << lb;
        uint64_t hi = packed >> dim;
        uint64_t lo = packed & loMask;
        if (hi == 0 && lo != 0 && interEch.insert(lo))
            intersection.push_back(lo);
    };
    for (uint64_t x : u)
        feed((x << dim) | x);
    for (uint64_t y : v)
        feed(y << dim);
    return intersection;
}

std::vector<uint64_t>
intersectSpans_reference(const std::vector<uint64_t> &u,
                         const std::vector<uint64_t> &v, int dim)
{
    llAssert(dim >= 0 && dim <= 32,
             "intersectSpans supports dimensions up to 32");
    // Zassenhaus: row-reduce pairs (x, x) for x in U and (y, 0) for y in V.
    // Rows whose first component reduces to zero have second components
    // spanning the intersection.
    struct Pair
    {
        uint64_t hi; // component in the "first copy" of F2^dim
        uint64_t lo; // shadow component
    };
    std::vector<Pair> rows;
    for (uint64_t x : u)
        rows.push_back({x, x});
    for (uint64_t y : v)
        rows.push_back({y, 0});

    std::vector<Pair> reduced; // echelon by leading bit of packed (hi, lo)
    std::vector<uint64_t> intersection;
    EchelonBasisReference interEch;
    auto pack = [dim](const Pair &p) {
        return (p.hi << dim) | p.lo;
    };
    for (Pair p : rows) {
        uint64_t packed = pack(p);
        for (const Pair &r : reduced) {
            if (packed == 0)
                break;
            uint64_t rp = pack(r);
            if (leadingBit(packed) == leadingBit(rp))
                packed ^= rp;
        }
        if (packed == 0)
            continue;
        Pair np{packed >> dim, packed & ((dim < 64)
                                             ? ((uint64_t(1) << dim) - 1)
                                             : ~uint64_t(0))};
        reduced.push_back(np);
        std::sort(reduced.begin(), reduced.end(),
                  [&](const Pair &a, const Pair &b) {
                      return pack(a) > pack(b);
                  });
        if (np.hi == 0 && np.lo != 0 && interEch.insert(np.lo))
            intersection.push_back(np.lo);
    }
    return intersection;
}

std::vector<uint64_t>
enumerateSpan(const std::vector<uint64_t> &basis)
{
    llAssert(basis.size() <= 20, "span too large to enumerate");
    // Prefix recurrence: clearing the lowest set bit of i leaves an index
    // already computed, so element i is one XOR instead of popcount(i).
    const size_t total = size_t(1) << basis.size();
    std::vector<uint64_t> out(total);
    out[0] = 0;
    for (size_t i = 1; i < total; ++i)
        out[i] = out[i & (i - 1)] ^ basis[std::countr_zero(i)];
    return out;
}

std::vector<uint64_t>
enumerateSpan_reference(const std::vector<uint64_t> &basis)
{
    llAssert(basis.size() <= 20, "span too large to enumerate");
    std::vector<uint64_t> out;
    out.reserve(size_t(1) << basis.size());
    for (uint64_t i = 0; i < (uint64_t(1) << basis.size()); ++i) {
        uint64_t acc = 0;
        for (size_t k = 0; k < basis.size(); ++k) {
            if (getBit(i, static_cast<int>(k)))
                acc ^= basis[k];
        }
        out.push_back(acc);
    }
    return out;
}

} // namespace f2
} // namespace ll
