#include "codegen/swizzle.h"

#include "sim/memory_sim.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "codegen/shared_exec.h"
#include "f2/subspace.h"
#include "layout/dims.h"
#include "support/bits.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace codegen {

namespace {

/** Nonzero flattened basis columns of one input dim (empty if absent). */
std::vector<uint64_t>
nonzeroColumns(const LinearLayout &layout, const std::string &inDim)
{
    std::vector<uint64_t> out;
    if (!layout.hasInDim(inDim))
        return out;
    for (uint64_t c : layout.flattenedBases(inDim)) {
        if (c != 0)
            out.push_back(c);
    }
    return out;
}

/** Set difference u \ v by column value. */
std::vector<uint64_t>
setDifference(const std::vector<uint64_t> &u, const std::vector<uint64_t> &v)
{
    std::vector<uint64_t> out;
    for (uint64_t x : u) {
        if (std::find(v.begin(), v.end(), x) == v.end())
            out.push_back(x);
    }
    return out;
}

/**
 * Number of 128-byte wavefront groups one warp access of `dist` splits
 * into: lanes * vecBytes / wavefrontBytes. The high log2(groups) lane
 * *bits* select the group, so they land in separate wavefronts and can
 * never bank-conflict — they must be excluded from the Lemma 9.4 span
 * intersection. For 32-lane warps this reduces to the paper's
 * vecBytes / bankWidth rule (Appendix 9.2); 64-lane wavefronts (CDNA)
 * split even scalar accesses in half, which the original rule missed.
 */
int64_t
wavefrontGroups(const LinearLayout &dist, int vecBytes,
                const sim::GpuSpec &spec)
{
    int64_t lanes =
        dist.hasInDim(dims::kLane) ? dist.getInDimSize(dims::kLane) : 1;
    return std::max<int64_t>(1, lanes * vecBytes / spec.wavefrontBytes);
}

/** The optimal-swizzle construction; callers wrap the try/catch. */
Result<SwizzledShared>
optimalSwizzleImpl(const LinearLayout &a, const LinearLayout &bIn,
                   int elemBytes, const sim::GpuSpec &spec,
                   int maxVecBytesOverride)
{
    if (!a.isSurjective() || !bIn.isSurjective()) {
        return makeDiag(DiagCode::InvalidInput, "plan.optimal-swizzle",
                        "swizzle inputs must be surjective layouts");
    }
    LinearLayout b = bIn.transposeOuts(a.getOutDimNames());
    const int d = a.getTotalOutDimSizeLog2();

    auto aReg = nonzeroColumns(a, dims::kReg);
    auto bReg = nonzeroColumns(b, dims::kReg);
    auto aThr = nonzeroColumns(a, dims::kLane);
    auto bThr = nonzeroColumns(b, dims::kLane);

    // --- Step 1: vectorization basis V --------------------------------
    std::vector<uint64_t> vec = f2::intersectSpans(aReg, bReg, d);
    const int maxVecBytes = maxVecBytesOverride > 0
                                ? maxVecBytesOverride
                                : spec.maxVectorBits / 8;
    const int maxVecBits =
        std::max(0, log2Exact(static_cast<uint64_t>(maxVecBytes)) -
                        log2Exact(static_cast<uint64_t>(elemBytes)));
    if (static_cast<int>(vec.size()) > maxVecBits)
        vec.resize(static_cast<size_t>(maxVecBits));
    const int v = static_cast<int>(vec.size());

    // --- Step 2: bank space size --------------------------------------
    const int vecBytes = (1 << v) * elemBytes;
    const int totalBankBytes = spec.numBanks * spec.bankWidthBytes;
    int bBits = vecBytes >= totalBankBytes
                    ? 0
                    : log2Exact(static_cast<uint64_t>(totalBankBytes /
                                                      vecBytes));
    bBits = std::min(bBits, d - v);
    const int sBits = d - v - bBits;

    // Accesses spilling past one 128-byte wavefront split transactions,
    // so the last log2(groups) thread bits fall outside the window and
    // do not contribute to bank conflicts (Appendix 9.2, generalized to
    // the layout's lane count — see wavefrontGroups).
    //
    // Shrink on the per-bit basis list (high lane *bits* cross
    // transactions, whether or not they broadcast), then drop zeros.
    auto shrinkThreadBits = [&](const LinearLayout &l) {
        std::vector<uint64_t> cols;
        if (l.hasInDim(dims::kLane))
            cols = l.flattenedBases(dims::kLane);
        const int removeCount = log2Exact(static_cast<uint64_t>(
            wavefrontGroups(l, vecBytes, spec)));
        int keep = std::max<int>(
            0, static_cast<int>(cols.size()) - removeCount);
        cols.resize(static_cast<size_t>(keep));
        std::vector<uint64_t> nonzero;
        for (uint64_t x : cols) {
            if (x != 0)
                nonzero.push_back(x);
        }
        return nonzero;
    };
    auto aBank = shrinkThreadBits(a);
    auto bBank = shrinkThreadBits(b);

    // --- Step 3: segment-index basis with trivial intersection vs P ---
    auto e = setDifference(aBank, bBank);
    auto f = setDifference(bBank, aBank);
    if (e.size() > f.size())
        std::swap(e, f);
    std::sort(e.begin(), e.end());
    std::sort(f.begin(), f.end());
    std::vector<uint64_t> h;
    for (size_t i = 0; i < e.size(); ++i)
        h.push_back(e[i] ^ f[i]);

    std::vector<uint64_t> pAll = vec;
    pAll.insert(pAll.end(), aBank.begin(), aBank.end());
    pAll.insert(pAll.end(), bBank.begin(), bBank.end());
    auto c = f2::complementBasis(pAll, d);

    f2::EchelonBasis chosen(vec);

    // Sub-word elements (2^v * w < bank width): the low offset bits
    // select a byte *within* a bank word. Fill them so that lane pairs
    // that must diverge land in different bytes of one word (shared
    // thread columns I) or in different banks (H pairs, whose partner
    // column lands in the bank region) — this removes the conflicts the
    // paper's Lemma 9.4 leaves open in its "not enough vectorization"
    // case.
    const int wordBits =
        vecBytes < spec.bankWidthBytes
            ? log2Exact(static_cast<uint64_t>(spec.bankWidthBytes /
                                              vecBytes))
            : 0;
    std::vector<uint64_t> word;
    {
        auto addWord = [&](const std::vector<uint64_t> &cands) {
            for (uint64_t cand : cands) {
                if (static_cast<int>(word.size()) >= wordBits)
                    return;
                if (chosen.insert(cand))
                    word.push_back(cand);
            }
        };
        std::vector<uint64_t> shared = setDifference(
            aBank, setDifference(aBank, bBank)); // aBank ^ bBank
        addWord(shared);
        addWord(h);
        addWord(c);
        addWord(bBank);
        addWord(aBank);
        std::vector<uint64_t> units;
        for (int iu = 0; iu < d; ++iu)
            units.push_back(uint64_t(1) << iu);
        addWord(units);
    }
    if (LL_FAILPOINT("swizzle.word-basis") ||
        static_cast<int>(word.size()) != std::min(wordBits, d - v)) {
        return makeDiag(DiagCode::SwizzleBasisIncomplete,
                        "swizzle.word-basis",
                        "failed to fill the word-internal bits");
    }

    std::vector<uint64_t> idx;
    auto tryAdd = [&](const std::vector<uint64_t> &cands) {
        for (uint64_t cand : cands) {
            if (static_cast<int>(idx.size()) >= sBits)
                return;
            if (chosen.insert(cand))
                idx.push_back(cand);
        }
    };
    tryAdd(h);
    tryAdd(c);
    if (static_cast<int>(idx.size()) < sBits) {
        // Bank conflicts are unavoidable; fill from A's thread columns
        // (penalizing reads and writes symmetrically), then anything.
        tryAdd(aBank);
        std::vector<uint64_t> units;
        for (int i = 0; i < d; ++i)
            units.push_back(uint64_t(1) << i);
        tryAdd(units);
    }
    if (LL_FAILPOINT("swizzle.segment-basis") ||
        static_cast<int>(idx.size()) != sBits) {
        return makeDiag(DiagCode::SwizzleBasisIncomplete,
                        "swizzle.segment-basis",
                        "failed to complete the segment basis");
    }

    // --- Step 4: bank columns complete the basis -----------------------
    // Any completion minimizes conflicts equally (Lemma 9.4 only depends
    // on Vec and Idx), so prefer the reader's then the writer's thread
    // columns: that keeps each 4-byte-per-lane group contiguous in the
    // offset space, which is exactly what lets ldmatrix/stmatrix tiles
    // divide the conversion (Section 5.3).
    const int bankCount = bBits - static_cast<int>(word.size());
    std::vector<uint64_t> vecAndIdx = vec;
    vecAndIdx.insert(vecAndIdx.end(), word.begin(), word.end());
    vecAndIdx.insert(vecAndIdx.end(), idx.begin(), idx.end());
    f2::EchelonBasis bankEch(vecAndIdx);
    std::vector<uint64_t> bank;
    auto addBank = [&](const std::vector<uint64_t> &cands) {
        for (uint64_t cand : cands) {
            if (static_cast<int>(bank.size()) >= bankCount)
                return;
            if (bankEch.insert(cand))
                bank.push_back(cand);
        }
    };
    addBank(bBank);
    addBank(aBank);
    {
        std::vector<uint64_t> units;
        for (int iu = 0; iu < d; ++iu)
            units.push_back(uint64_t(1) << iu);
        addBank(units);
    }
    if (LL_FAILPOINT("swizzle.bank-basis") ||
        static_cast<int>(bank.size()) != bankCount) {
        return makeDiag(DiagCode::SwizzleBasisIncomplete,
                        "swizzle.bank-basis",
                        "bank completion did not reach " +
                            std::to_string(bankCount) + " columns");
    }

    // --- Assemble M: offset bit order [Vec | Word | Bank | Idx] --------
    f2::F2Matrix m(d, d);
    int col = 0;
    for (uint64_t x : vec)
        m.setCol(col++, x);
    for (uint64_t x : word)
        m.setCol(col++, x);
    for (uint64_t x : bank)
        m.setCol(col++, x);
    for (uint64_t x : idx)
        m.setCol(col++, x);

    SwizzledShared out;
    out.memLayout = LinearLayout::fromF2Matrix(
        m, {{dims::kOffset, int32_t(1) << d}}, a.getOutDims(),
        /*requireSurjective=*/true);
    out.tensorToOffset = out.memLayout.invert();
    out.vecBits = v;
    out.bankBits = bBits;
    out.idxBits = sBits;
    return out;
}

} // namespace

Result<SwizzledShared>
tryComputeOptimalSwizzle(const LinearLayout &a, const LinearLayout &b,
                         int elemBytes, const sim::GpuSpec &spec,
                         int maxVecBytesOverride)
{
    trace::Span span("swizzle.optimal", "plan");
    static auto &attempts = metrics::counter("swizzle.optimal.attempts");
    attempts.inc();
    try {
        auto r = optimalSwizzleImpl(a, b, elemBytes, spec,
                                    maxVecBytesOverride);
        if (span.active()) {
            if (r.ok()) {
                span.arg("outcome", "ok");
                span.arg("vec_bits", r->vecBits);
                span.arg("idx_bits", r->idxBits);
            } else {
                span.arg("outcome", "reject");
                span.arg("reason", r.diag().toString());
            }
        }
        if (!r.ok()) {
            static auto &rejects =
                metrics::counter("swizzle.optimal.rejects");
            rejects.inc();
        }
        return r;
    } catch (const std::exception &e) {
        static auto &rejects = metrics::counter("swizzle.optimal.rejects");
        rejects.inc();
        span.arg("outcome", "internal-error");
        return makeDiag(DiagCode::PlannerInternalError,
                        "plan.optimal-swizzle", e.what());
    }
}

SwizzledShared
computeOptimalSwizzle(const LinearLayout &a, const LinearLayout &bIn,
                      int elemBytes, const sim::GpuSpec &spec,
                      int maxVecBytesOverride)
{
    auto r = tryComputeOptimalSwizzle(a, bIn, elemBytes, spec,
                                      maxVecBytesOverride);
    llUserCheck(r.ok(),
                "computeOptimalSwizzle: " << r.diag().toString());
    return std::move(*r);
}

namespace {

Result<SwizzledShared>
wrapMemoryLayoutImpl(const LinearLayout &mem, const LinearLayout &a,
                     const LinearLayout &b, int elemBytes,
                     const sim::GpuSpec &spec)
{
    if (!mem.isInvertible()) {
        return makeDiag(DiagCode::InvalidInput, "plan.wrap-memory",
                        "memory layout must be invertible");
    }
    LinearLayout aligned = mem.transposeOuts(a.getOutDimNames());
    const int d = aligned.getTotalOutDimSizeLog2();

    // Vectorization: low offset columns shared by both register spans.
    f2::EchelonBasis aRegSpan(nonzeroColumns(a, dims::kReg));
    f2::EchelonBasis bRegSpan(nonzeroColumns(
        b.transposeOuts(a.getOutDimNames()), dims::kReg));
    auto cols = aligned.flattenedBases(dims::kOffset);
    int v = 0;
    const int maxVecBits =
        std::max(0, log2Exact(static_cast<uint64_t>(
                        spec.maxVectorBits / 8)) -
                        log2Exact(static_cast<uint64_t>(elemBytes)));
    while (v < static_cast<int>(cols.size()) && v < maxVecBits &&
           aRegSpan.contains(cols[static_cast<size_t>(v)]) &&
           bRegSpan.contains(cols[static_cast<size_t>(v)])) {
        ++v;
    }

    SwizzledShared out;
    out.memLayout = aligned;
    out.tensorToOffset = aligned.invert();
    out.vecBits = v;
    const int vecBytes = (1 << v) * elemBytes;
    const int totalBankBytes = spec.numBanks * spec.bankWidthBytes;
    int bBits = vecBytes >= totalBankBytes
                    ? 0
                    : log2Exact(static_cast<uint64_t>(totalBankBytes /
                                                      vecBytes));
    out.bankBits = std::min(bBits, d - v);
    out.idxBits = d - v - out.bankBits;
    return out;
}

/** The unswizzled linear memory layout over `a`'s output space: offset
 *  bit i is out-dim bit i in `a`'s dim order (first dim fastest). */
LinearLayout
linearMemoryLayout(const LinearLayout &a)
{
    LinearLayout mem = LinearLayout::empty();
    for (const auto &[dim, size] : a.getOutDims())
        mem = mem * LinearLayout::identity1D(size, dims::kOffset, dim);
    return mem;
}

} // namespace

Result<SwizzledShared>
tryWrapMemoryLayout(const LinearLayout &mem, const LinearLayout &a,
                    const LinearLayout &b, int elemBytes,
                    const sim::GpuSpec &spec)
{
    try {
        return wrapMemoryLayoutImpl(mem, a, b, elemBytes, spec);
    } catch (const std::exception &e) {
        return makeDiag(DiagCode::PlannerInternalError,
                        "plan.wrap-memory", e.what());
    }
}

SwizzledShared
wrapMemoryLayout(const LinearLayout &mem, const LinearLayout &a,
                 const LinearLayout &b, int elemBytes,
                 const sim::GpuSpec &spec)
{
    auto r = tryWrapMemoryLayout(mem, a, b, elemBytes, spec);
    llUserCheck(r.ok(), "wrapMemoryLayout: " << r.diag().toString());
    return std::move(*r);
}

Result<SwizzledShared>
planPaddedShared(const LinearLayout &a, const LinearLayout &b,
                 int elemBytes, const sim::GpuSpec &spec)
{
    if (LL_FAILPOINT("plan.padded")) {
        return makeDiag(DiagCode::FailpointInjected, "plan.padded",
                        "failpoint plan.padded forced this rung off");
    }
    try {
        auto wrapped = tryWrapMemoryLayout(linearMemoryLayout(a), a, b,
                                           elemBytes, spec);
        if (!wrapped.ok()) {
            return makeDiag(DiagCode::PaddedUnavailable, "plan.padded",
                            wrapped.diag().toString());
        }
        SwizzledShared swz = std::move(*wrapped);
        // Search a small family of (padInterval, padElems) pairs — the
        // classic one-bank-word-per-row pad plus half/double-row
        // intervals and a doubled pad (all multiples of the
        // vectorization, so vec windows never straddle a pad) — and
        // keep the wavefront-cheapest pair that fits the CTA budget.
        // The unswizzled flat layout is the baseline: a pad that does
        // not measurably lower the enumerated totals is not adopted.
        // The strict comparison keeps the first of equal-cost pairs.
        const int vec = swz.vecElems();
        const int totalBankBytes = spec.numBanks * spec.bankWidthBytes;
        const int64_t rowElems = totalBankBytes / elemBytes;
        const int64_t numElems = a.getTotalOutDimSize();
        if (vec * elemBytes < totalBankBytes && numElems > rowElems / 2) {
            const int64_t basePad = std::max<int64_t>(
                vec, spec.bankWidthBytes / elemBytes);
            const int64_t intervals[] = {rowElems / 2, rowElems,
                                         2 * rowElems};
            const int64_t pads[] = {basePad, 2 * basePad};
            std::vector<SwizzledShared> candidates;
            for (int64_t interval : intervals) {
                if (interval < vec || interval % vec != 0 ||
                    numElems <= interval)
                    continue;
                for (int64_t pad : pads) {
                    SwizzledShared padded = swz;
                    padded.padInterval = interval;
                    padded.padElems = pad;
                    if (!sim::SharedMemory::fits(
                            spec, elemBytes,
                            padded.storageElems(numElems)))
                        continue;
                    candidates.push_back(std::move(padded));
                }
            }
            // With no pair inside the CTA budget the baseline stands.
            if (candidates.empty())
                return swz;
            auto wavefronts = [&](const SwizzledShared &cand) {
                return enumerateWavefronts(cand, a, elemBytes, spec) +
                       enumerateWavefronts(cand, b, elemBytes, spec);
            };
            int64_t bestWf = wavefronts(swz);
            const SwizzledShared *best = nullptr;
            for (const SwizzledShared &cand : candidates) {
                const int64_t wf = wavefronts(cand);
                if (wf < bestWf) {
                    bestWf = wf;
                    best = &cand;
                }
            }
            if (best != nullptr)
                swz = *best;
        }
        return swz;
    } catch (const std::exception &e) {
        return makeDiag(DiagCode::PaddedUnavailable, "plan.padded",
                        e.what());
    }
}

int64_t
ctaWindowElems(int elemBytes, const sim::GpuSpec &spec, int64_t minElems)
{
    int64_t window = 1;
    while (window * 2 * elemBytes <= spec.sharedMemPerCta)
        window *= 2;
    const bool fits = sim::SharedMemory::fits(spec, elemBytes, window);
    return fits && window >= minElems ? window : 0;
}

Result<SwizzledShared>
planScalarShared(const LinearLayout &a, const LinearLayout &b,
                 int elemBytes, const sim::GpuSpec &spec)
{
    (void)b;
    if (LL_FAILPOINT("plan.scalar")) {
        return makeDiag(DiagCode::FailpointInjected, "plan.scalar",
                        "failpoint plan.scalar forced this rung off");
    }
    try {
        if (!a.isSurjective()) {
            return makeDiag(DiagCode::InvalidInput, "plan.scalar",
                            "scalar rung needs a surjective layout");
        }
        SwizzledShared out;
        out.memLayout = linearMemoryLayout(a);
        out.tensorToOffset = out.memLayout.invert();
        out.vecBits = 0;
        const int d = out.memLayout.getTotalInDimSizeLog2();
        const int totalBankBytes = spec.numBanks * spec.bankWidthBytes;
        int bBits = elemBytes >= totalBankBytes
                        ? 0
                        : log2Exact(static_cast<uint64_t>(
                              totalBankBytes / elemBytes));
        out.bankBits = std::min(bBits, d);
        out.idxBits = d - out.bankBits;
        // The terminal rung must swallow tensors bigger than the CTA
        // budget: window the allocation down to the largest power of
        // two that fits and let the executors run multiple passes.
        const int64_t numElems = a.getTotalOutDimSize();
        if (!sim::SharedMemory::fits(spec, elemBytes, numElems)) {
            out.windowElems = ctaWindowElems(elemBytes, spec);
            if (out.windowElems == 0) {
                return makeDiag(DiagCode::ScalarUnavailable,
                                "plan.scalar",
                                "CTA shared budget cannot hold even a "
                                "one-element window");
            }
        }
        return out;
    } catch (const std::exception &e) {
        return makeDiag(DiagCode::ScalarUnavailable, "plan.scalar",
                        e.what());
    }
}

OffsetColumns::OffsetColumns(const SwizzledShared &swz,
                             const LinearLayout &distIn)
    : hasRegisterDim(distIn.hasInDim(dims::kReg))
{
    // The columns of dist index its outputs in its own dim order;
    // tensorToOffset reads them in the swizzle's, so realign first when
    // the two differ. Each composed column is then one applyFlat.
    const std::vector<std::string> order = swz.memLayout.getOutDimNames();
    std::optional<LinearLayout> aligned;
    if (distIn.getOutDimNames() != order)
        aligned = distIn.transposeOuts(order);
    const LinearLayout &dist = aligned ? *aligned : distIn;
    cols.reserve(static_cast<size_t>(dist.getTotalInDimSizeLog2()));
    for (const auto &[dim, log] : {std::pair{dims::kReg, &regLog},
                                   std::pair{dims::kLane, &laneLog},
                                   std::pair{dims::kWarp, &warpLog}}) {
        if (!dist.hasInDim(dim))
            continue;
        *log = dist.getInDimSizeLog2(dim);
        for (uint64_t c : dist.flattenedBases(dim))
            cols.push_back(swz.tensorToOffset.applyFlat(c));
    }
}

bool
matchesMatrixTile(const OffsetColumns &side, int elemBytes)
{
    // The tile's register part is r = log2(4 / elemBytes) columns (one
    // thread's 4 contiguous bytes) and its lane part the next two unit
    // bits (4 threads per 16-byte row). Dividing it out leaves a
    // quotient iff the tile's columns occur and nothing else reaches
    // into its low bits; registers carry no order, so any register
    // column may supply any of the r register units.
    if (elemBytes > 4 || !side.hasRegisterDim || side.laneLog < 2)
        return false;
    const int r = log2Exact(static_cast<uint64_t>(4 / elemBytes));
    const uint64_t tileBits = (uint64_t(1) << (r + 2)) - 1;
    const uint64_t regUnits = (uint64_t(1) << r) - 1;
    uint64_t seen = 0;
    for (int i = 0; i < side.regLog; ++i) {
        const uint64_t c = side.reg(i);
        if ((c & tileBits) == 0)
            continue;
        if (!std::has_single_bit(c) || (c & ~regUnits) != 0 ||
            (seen & c) != 0)
            return false;
        seen |= c;
    }
    if (seen != regUnits || side.lane(0) != regUnits + 1 ||
        side.lane(1) != (regUnits + 1) << 1)
        return false;
    for (size_t i = static_cast<size_t>(side.regLog) + 2;
         i < side.cols.size(); ++i) {
        if ((side.cols[i] & tileBits) != 0)
            return false;
    }
    return true;
}

std::vector<int32_t>
registerGroupReps(const SwizzledShared &swz, const OffsetColumns &side)
{
    // A register's offset is the XOR of the columns of its set bits. A
    // flat bitmap over vec windows (offset >> vecBits) keeps the first
    // register of each window, in register order. The bitmap is per
    // thread and all zero between calls: only the words set here are
    // cleared, so a call costs O(registers) however large the tensor.
    const auto windows = static_cast<size_t>(
        swz.tensorToOffset.getTotalOutDimSize() >> swz.vecBits);
    thread_local std::vector<uint64_t> seen;
    if (seen.size() * 64 < windows)
        seen.resize((windows + 63) / 64, 0);
    std::vector<uint64_t> offs(size_t(1) << side.regLog, 0);
    std::vector<int32_t> reps;
    for (size_t reg = 0; reg < offs.size(); ++reg) {
        if (reg != 0) {
            offs[reg] = offs[reg & (reg - 1)] ^
                        side.reg(std::countr_zero(reg));
        }
        const uint64_t key = offs[reg] >> swz.vecBits;
        uint64_t &word = seen[key / 64];
        const uint64_t bit = uint64_t(1) << (key % 64);
        if ((word & bit) == 0) {
            word |= bit;
            reps.push_back(static_cast<int32_t>(reg));
        }
    }
    for (int32_t reg : reps)
        seen[(offs[static_cast<size_t>(reg)] >> swz.vecBits) / 64] = 0;
    return reps;
}

std::vector<int32_t>
registerGroupReps(const SwizzledShared &swz, const LinearLayout &dist)
{
    return registerGroupReps(swz, OffsetColumns(swz, dist));
}

int64_t
countWarpAccesses(const SwizzledShared &swz, const LinearLayout &dist)
{
    const OffsetColumns side(swz, dist);
    return (int64_t(1) << side.warpLog) *
           static_cast<int64_t>(registerGroupReps(swz, side).size());
}

int64_t
enumerateWavefronts(const SwizzledShared &swz, const OffsetColumns &side,
                    int elemBytes, const sim::GpuSpec &spec)
{
    const int numWarps = 1 << side.warpLog;
    const int accessBytes = swz.vecElems() * elemBytes;
    auto reps = registerGroupReps(swz, side);
    WarpAccessTable table(swz, side);
    // Mirror the executors' windowed multi-pass schedule so the totals
    // recorded on the plan match what the simulator will measure: each
    // pass masks lanes whose offsets fall outside the current window and
    // skips accesses with no active lane at all.
    const int64_t numElems = swz.memLayout.getTotalInDimSize();
    const int64_t window = swz.allocElems(numElems);
    const int64_t passes = swz.passesFor(numElems);
    std::vector<int64_t> offsets, byteAddrs;
    offsets.reserve(static_cast<size_t>(table.warpSize()));
    byteAddrs.reserve(static_cast<size_t>(table.warpSize()));
    // Translation invariance (the fact behind §5.4 and Lemma 9.4): lane
    // l of access (rep, warp) sits at b ^ x_l, where b = table.base(rep,
    // warp) and x_l are the lanes of access (0, 0), all vec-aligned.
    // When the lanes fit the window (unpadded, every x_l < window; an
    // unwindowed plan's window is the whole tensor), the access lies
    // wholly in pass b >> log2(window), is masked out of every other,
    // and its window-local offsets are o - lo == o ^ lo ==
    // (b & (window - 1)) ^ x_l: access (0, 0) XOR a vec-aligned
    // constant c. With a power-of-two elemBytes the byte addresses are
    // XORed by c * elemBytes, a multiple of the access width, so every
    // bank word w maps to w ^ k for one k: lane groups are unchanged,
    // banks are permuted (w & bankMask ^ k & bankMask) and distinct
    // words stay distinct, so countWavefronts returns the same number.
    // Every access therefore costs what access (0, 0) costs. Padding
    // (padOffset is not XOR-linear) and lanes straddling a window
    // (masking differs per access) fall through to the full sweep.
    if (table.lanesFit(window) &&
        std::has_single_bit(static_cast<unsigned>(elemBytes))) {
        table.offsetsInto(0, 0, offsets);
        for (int64_t o : offsets)
            byteAddrs.push_back(o * elemBytes);
        return sim::SharedMemory::countWavefronts(spec, byteAddrs,
                                                  accessBytes) *
               numWarps * static_cast<int64_t>(reps.size());
    }
    int64_t total = 0;
    for (int64_t pass = 0; pass < passes; ++pass) {
        const int64_t lo = pass * window;
        for (int warp = 0; warp < numWarps; ++warp) {
            for (int32_t rep : reps) {
                offsets.clear();
                table.offsetsInto(rep, warp, offsets);
                byteAddrs.clear();
                bool anyActive = false;
                for (int64_t o : offsets) {
                    if (swz.windowed() && (o < lo || o >= lo + window)) {
                        byteAddrs.push_back(sim::kInactiveLane);
                    } else {
                        byteAddrs.push_back(
                            (swz.windowed() ? o - lo : o) * elemBytes);
                        anyActive = true;
                    }
                }
                if (!anyActive)
                    continue;
                total += sim::SharedMemory::countWavefronts(
                    spec, byteAddrs, accessBytes);
            }
        }
    }
    return total;
}

int64_t
enumerateWavefronts(const SwizzledShared &swz, const LinearLayout &dist,
                    int elemBytes, const sim::GpuSpec &spec)
{
    return enumerateWavefronts(swz, OffsetColumns(swz, dist), elemBytes,
                               spec);
}

Result<int64_t>
tryAnalyticWavefronts(const SwizzledShared &swz,
                      const LinearLayout &distIn, int elemBytes,
                      const sim::GpuSpec &spec)
{
    if (swz.padded()) {
        return makeDiag(DiagCode::InvalidInput, "swizzle.analytic",
                        "Lemma 9.4 does not apply to padded layouts; "
                        "use enumerateWavefronts");
    }
    // Align to the swizzle's output order so flattened columns agree.
    LinearLayout dist =
        distIn.transposeOuts(swz.memLayout.getOutDimNames());
    const int d = swz.memLayout.getTotalInDimSizeLog2();

    // Sub-word accesses (vec narrower than a bank word) fall outside
    // Lemma 9.4's counting argument; measure a representative access on
    // the simulator instead (conflicts are identical across register
    // groups and warps by linearity).
    if (swz.vecElems() * elemBytes < spec.bankWidthBytes &&
        dist.hasInDim(dims::kLane)) {
        auto offsets = warpAccessOffsets(swz, dist, 0, 0,
                                         dist.getInDimSize(dims::kLane));
        std::vector<int64_t> byteAddrs;
        byteAddrs.reserve(offsets.size());
        for (int64_t o : offsets)
            byteAddrs.push_back(o * elemBytes);
        return sim::SharedMemory::countWavefronts(
            spec, byteAddrs, swz.vecElems() * elemBytes);
    }
    // Recover S_Vec and S_Idx from the offset bit ranges.
    auto cols = swz.memLayout.flattenedBases(dims::kOffset);
    std::vector<uint64_t> vecIdxCols(cols.begin(),
                                     cols.begin() + swz.vecBits);
    vecIdxCols.insert(vecIdxCols.end(),
                      cols.begin() + swz.vecBits + swz.bankBits,
                      cols.end());
    // High lane bits land in separate 128-byte transactions (the A_Bank
    // shrink of Appendix 9.2, generalized to the layout's lane count —
    // see wavefrontGroups), so only the low thread columns can conflict
    // within one wavefront.
    std::vector<uint64_t> lThr;
    if (dist.hasInDim(dims::kLane))
        lThr = dist.flattenedBases(dims::kLane);
    const int vecBytes = swz.vecElems() * elemBytes;
    const int64_t n = wavefrontGroups(dist, vecBytes, spec);
    const int removeCount = log2Exact(static_cast<uint64_t>(n));
    if (static_cast<int>(lThr.size()) > removeCount) {
        lThr.resize(lThr.size() - static_cast<size_t>(removeCount));
    } else {
        lThr.clear();
    }
    std::erase(lThr, uint64_t(0));
    auto inter = f2::intersectSpans(vecIdxCols, lThr, d);
    int64_t c = int64_t(1) << inter.size();
    return n * c;
}

int64_t
analyticWavefronts(const SwizzledShared &swz, const LinearLayout &distIn,
                   int elemBytes, const sim::GpuSpec &spec)
{
    auto r = tryAnalyticWavefronts(swz, distIn, elemBytes, spec);
    llUserCheck(r.ok(), "analyticWavefronts: " << r.diag().toString());
    return *r;
}

WarpAccessTable::WarpAccessTable(const SwizzledShared &swz,
                                 const OffsetColumns &side)
    : swz_(swz), regLog_(side.regLog),
      warpShift_(side.regLog + side.laneLog), cols_(side.cols)
{
    keepMask_ = ~(static_cast<uint64_t>(swz.vecElems()) - 1);
    laneMasked_.assign(size_t(1) << side.laneLog, 0);
    for (size_t lane = 1; lane < laneMasked_.size(); ++lane) {
        laneMasked_[lane] = laneMasked_[lane & (lane - 1)] ^
                            (side.lane(std::countr_zero(lane)) & keepMask_);
        laneBits_ |= laneMasked_[lane];
    }
}

WarpAccessTable::WarpAccessTable(const SwizzledShared &swz,
                                 const LinearLayout &dist)
    : WarpAccessTable(swz, OffsetColumns(swz, dist))
{
}

uint64_t
WarpAccessTable::base(int32_t rep, int32_t warp) const
{
    uint64_t b = 0;
    for (uint64_t m = static_cast<uint64_t>(rep); m != 0; m &= m - 1)
        b ^= cols_[static_cast<size_t>(std::countr_zero(m))];
    for (uint64_t m = static_cast<uint64_t>(warp); m != 0; m &= m - 1) {
        b ^= cols_[static_cast<size_t>(warpShift_) +
                   static_cast<size_t>(std::countr_zero(m))];
    }
    return b & keepMask_;
}

bool
WarpAccessTable::lanesFit(int64_t window) const
{
    return !swz_.padded() && laneBits_ < static_cast<uint64_t>(window);
}

void
WarpAccessTable::offsetsInto(int32_t rep, int32_t warp,
                             std::vector<int64_t> &out) const
{
    const uint64_t b = base(rep, warp);
    for (uint64_t lm : laneMasked_)
        out.push_back(swz_.padOffset(static_cast<int64_t>(b ^ lm)));
}

std::vector<int64_t>
warpAccessOffsets(const SwizzledShared &swz, const LinearLayout &distIn,
                  int32_t repBase, int32_t warp, int warpSize)
{
    LinearLayout dist =
        distIn.transposeOuts(swz.memLayout.getOutDimNames());
    const int regLog = dist.getInDimSizeLog2(dims::kReg);
    const int laneLog = dist.getInDimSizeLog2(dims::kLane);
    llAssert(warpSize == (1 << laneLog),
             "layout lane count does not match warp size");
    std::vector<int64_t> offsets;
    offsets.reserve(static_cast<size_t>(warpSize));
    const uint64_t vecMask = static_cast<uint64_t>(swz.vecElems()) - 1;
    for (int lane = 0; lane < warpSize; ++lane) {
        uint64_t in = static_cast<uint64_t>(repBase) |
                      (static_cast<uint64_t>(lane) << regLog) |
                      (static_cast<uint64_t>(warp) << (regLog + laneLog));
        uint64_t x = dist.applyFlat(in);
        uint64_t off = swz.tensorToOffset.applyFlat(x);
        offsets.push_back(
            swz.padOffset(static_cast<int64_t>(off & ~vecMask)));
    }
    return offsets;
}

} // namespace codegen
} // namespace ll
