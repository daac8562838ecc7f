#include "codegen/shuffle.h"

#include <algorithm>
#include <bit>

#include "f2/matrix.h"
#include "f2/subspace.h"
#include "layout/dims.h"
#include "support/bits.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace codegen {

namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;

std::vector<uint64_t>
flatColumns(const LinearLayout &layout, const std::string &inDim)
{
    if (!layout.hasInDim(inDim))
        return {};
    return layout.flattenedBases(inDim);
}

/** Value-level set intersection, preserving the order of `u`. */
std::vector<uint64_t>
setIntersection(const std::vector<uint64_t> &u,
                const std::vector<uint64_t> &v)
{
    std::vector<uint64_t> out;
    for (uint64_t x : u) {
        if (x != 0 && std::find(v.begin(), v.end(), x) != v.end())
            out.push_back(x);
    }
    return out;
}

std::vector<uint64_t>
setDifference(const std::vector<uint64_t> &u, const std::vector<uint64_t> &v)
{
    std::vector<uint64_t> out;
    for (uint64_t x : u) {
        if (x != 0 && std::find(v.begin(), v.end(), x) == v.end())
            out.push_back(x);
    }
    return out;
}

/** log2 size of an in dim, 0 when the dim is absent. */
int
inBits(const LinearLayout &l, const std::string &dim)
{
    return l.hasInDim(dim) ? l.getInDimSizeLog2(dim) : 0;
}

/**
 * Flattened per-bit columns of `dim`, zero-padded to `bits` entries.
 * Padding encodes SPMD broadcast: hardware lanes/warps past a layout's
 * in-dim size hold the truncated coordinate's data, exactly as if the
 * missing high bits carried zero basis vectors.
 */
std::vector<uint64_t>
paddedColumns(const LinearLayout &l, const std::string &dim, int bits)
{
    auto cols = flatColumns(l, dim);
    cols.resize(static_cast<size_t>(bits), 0);
    return cols;
}

/**
 * Why a singular P admits no plan, in the words of the first collision
 * a walk over warp-0 elements in input order meets. `index` maps A's
 * input bits to transfer indices. `in` and `in ^ k` collide when k's
 * index has no lane or round bits, and the walk meets the pair at `in`
 * when `in` holds k's top bit; so adding input bits one at a time, the
 * first such k to appear names the text (DESIGN.md §13).
 */
std::string
collisionText(const f2::F2Matrix &index, int v, int regLogA)
{
    const int dw = index.numCols();
    f2::EchelonBasis cell, cellAndLane, full;
    for (int h = 0; h < dw; ++h) {
        const uint64_t x = index.getCol(h);
        const uint64_t srcLane = h < regLogA ? 0 : uint64_t(1) << (h - regLogA);
        cell.insert(x >> v);
        cellAndLane.insert((x >> v) | srcLane << dw);
        full.insert(x);
        if (cellAndLane.dimension() > cell.dimension())
            break;
        if (full.dimension() <= h)
            return "duplicate V-slot in shuffle payload";
    }
    return "slice contains two source lanes for one destination lane";
}

} // namespace

bool
conversionIsNoOp(const LinearLayout &a, const LinearLayout &bIn)
{
    LinearLayout b = bIn.transposeOuts(a.getOutDimNames());
    // Emitting nothing is correct iff both sides are literally the same
    // function of (register, lane, warp) over the joint thread space.
    // Register counts must agree exactly — there is no SPMD replication
    // across registers, so a size mismatch always needs data movement.
    if (inBits(a, kReg) != inBits(b, kReg))
        return false;
    for (const auto &dim : {kReg, kLane, kWarp}) {
        int bits = std::max(inBits(a, dim), inBits(b, dim));
        if (paddedColumns(a, dim, bits) != paddedColumns(b, dim, bits))
            return false;
    }
    return true;
}

bool
conversionIsRegisterPermute(const LinearLayout &a, const LinearLayout &bIn)
{
    LinearLayout b = bIn.transposeOuts(a.getOutDimNames());
    // A per-thread register rewrite is valid iff every element B places
    // in a thread is already held by that thread under A. Thread (l, w)
    // holds the coset Im(R_a) + L_a l + W_a w, so the condition is
    //   Im(R_b) <= Im(R_a),   (L_a + L_b) columns in Im(R_a),
    //   (W_a + W_b) columns in Im(R_a)
    // over the flattened tensor space (Section 5.4's intra-thread case,
    // stated on availability cosets so replication is handled exactly).
    f2::EchelonBasis regSpan(flatColumns(a, kReg));
    for (uint64_t col : flatColumns(b, kReg)) {
        if (!regSpan.contains(col))
            return false;
    }
    for (const auto &dim : {kLane, kWarp}) {
        int bits = std::max(inBits(a, dim), inBits(b, dim));
        auto ca = paddedColumns(a, dim, bits);
        auto cb = paddedColumns(b, dim, bits);
        for (int i = 0; i < bits; ++i) {
            if (!regSpan.contains(ca[static_cast<size_t>(i)] ^
                                  cb[static_cast<size_t>(i)]))
                return false;
        }
    }
    return true;
}

bool
conversionIsIntraWarp(const LinearLayout &a, const LinearLayout &bIn)
{
    LinearLayout b = bIn.transposeOuts(a.getOutDimNames());
    // Same availability argument one level up: warp w holds the coset
    // span(R_a u L_a) + W_a w, so shuffles suffice iff
    //   Im(R_b u L_b) <= span(R_a u L_a),
    //   (W_a + W_b) columns in span(R_a u L_a).
    f2::EchelonBasis warpSpan(flatColumns(a, kReg));
    for (uint64_t col : flatColumns(a, kLane))
        warpSpan.insert(col);
    for (const auto &dim : {kReg, kLane}) {
        for (uint64_t col : flatColumns(b, dim)) {
            if (!warpSpan.contains(col))
                return false;
        }
    }
    int bits = std::max(inBits(a, kWarp), inBits(b, kWarp));
    auto ca = paddedColumns(a, kWarp, bits);
    auto cb = paddedColumns(b, kWarp, bits);
    for (int i = 0; i < bits; ++i) {
        if (!warpSpan.contains(ca[static_cast<size_t>(i)] ^
                               cb[static_cast<size_t>(i)]))
            return false;
    }
    return true;
}

ShuffleTransfer
WarpShufflePlan::transfer(int round, int lane, int slot) const
{
    const int v = std::countr_zero(static_cast<unsigned>(vecElems));
    const int laneLog = std::countr_zero(static_cast<unsigned>(warpSize));
    const int regLogA = std::countr_zero(static_cast<unsigned>(numRegsA));
    uint64_t index = static_cast<uint64_t>(slot) |
                     static_cast<uint64_t>(lane) << v |
                     static_cast<uint64_t>(round) << (v + laneLog);
    uint64_t word = 0;
    for (size_t k = 0; index != 0 && k < columns.size(); ++k, index >>= 1)
        word ^= index & 1 ? columns[k] : 0;
    const uint64_t dstReg = word >> (regLogA + laneLog);
    return {static_cast<int32_t>((word >> regLogA) & (warpSize - 1)),
            static_cast<int32_t>(word & (numRegsA - 1)),
            static_cast<int32_t>(std::min<uint64_t>(dstReg, INT32_MAX))};
}

int
WarpShufflePlan::communicatingRounds() const
{
    // srcLane is lane ^ D(lane) ^ S(round) for linear D and S (V moves
    // registers only). If D != 0, every round has a lane that reads
    // elsewhere; otherwise the rounds outside ker S communicate.
    const int v = std::countr_zero(static_cast<unsigned>(vecElems));
    const int laneLog = std::countr_zero(static_cast<unsigned>(warpSize));
    const int regLogA = std::countr_zero(static_cast<unsigned>(numRegsA));
    auto srcLane = [&](size_t k) {
        return (columns[k] >> regLogA) & static_cast<uint64_t>(warpSize - 1);
    };
    f2::EchelonBasis roundLanes;
    for (size_t k = static_cast<size_t>(v); k < columns.size(); ++k) {
        const int t = static_cast<int>(k) - v;
        if (t >= laneLog)
            roundLanes.insert(srcLane(k));
        else if (srcLane(k) != uint64_t(1) << t)
            return rounds;
    }
    return rounds - (rounds >> roundLanes.dimension());
}

int64_t
WarpShufflePlan::countShuffleInstructions(int elemBytes) const
{
    int payloadBytes = vecElems * elemBytes;
    int shufflesPerRound = (payloadBytes + 3) / 4;
    return static_cast<int64_t>(communicatingRounds()) * shufflesPerRound;
}

Result<std::vector<std::vector<uint64_t>>, ExecDiagnostic>
WarpShufflePlan::execute(const std::vector<std::vector<uint64_t>> &src) const
{
    // Execution is total: every surprise — malformed register file,
    // corrupted plan — is reported as data, so the check that ran the
    // plan fails with a diagnostic instead of aborting the process.
    trace::Span span("exec.shuffle", "exec");
    static auto &runs = metrics::counter("exec.shuffle.runs");
    runs.inc();
    if (static_cast<int>(src.size()) != warpSize || warpSize <= 0) {
        return makeExecDiag(ExecError::PlanShapeMismatch,
                            "exec.shuffle.shape",
                            "expected " + std::to_string(warpSize) +
                                " lanes, got " +
                                std::to_string(src.size()));
    }
    // srcReg and srcLane decode under masks numRegsA - 1 and
    // warpSize - 1, so they index `src` whenever both are positive.
    for (const auto &laneRegs : src) {
        if (numRegsA <= 0 || static_cast<int>(laneRegs.size()) < numRegsA) {
            return makeExecDiag(
                ExecError::PlanShapeMismatch, "exec.shuffle.shape",
                "a lane holds " + std::to_string(laneRegs.size()) +
                    " registers; the plan reads " +
                    std::to_string(numRegsA));
        }
    }
    std::vector<std::vector<uint64_t>> dst(
        static_cast<size_t>(warpSize),
        std::vector<uint64_t>(static_cast<size_t>(numRegsB), ~uint64_t(0)));
    int64_t elementsMoved = 0;
    for (int round = 0; round < rounds; ++round) {
        for (int lane = 0; lane < warpSize; ++lane) {
            for (int slot = 0; slot < vecElems; ++slot) {
                const ShuffleTransfer t = transfer(round, lane, slot);
                if (t.dstReg >= numRegsB) {
                    return makeExecDiag(
                        ExecError::RegisterOutOfRange,
                        "exec.shuffle.reg-range",
                        "register pair (" + std::to_string(t.srcReg) +
                            ", " + std::to_string(t.dstReg) +
                            ") outside " + std::to_string(numRegsA) + "/" +
                            std::to_string(numRegsB));
                }
                dst[static_cast<size_t>(lane)]
                   [static_cast<size_t>(t.dstReg)] =
                    src[static_cast<size_t>(t.srcLane)]
                       [static_cast<size_t>(t.srcReg)];
                ++elementsMoved;
            }
        }
    }
    static auto &roundsRun = metrics::counter("exec.shuffle.rounds");
    roundsRun.add(rounds);
    static auto &moved = metrics::counter("exec.shuffle.elements_moved");
    moved.add(elementsMoved);
    if (span.active()) {
        span.arg("rounds", static_cast<int64_t>(rounds));
        span.arg("warp_size", warpSize);
        span.arg("elements_moved", elementsMoved);
    }
    return dst;
}

Result<WarpShufflePlan>
planWarpShuffle(const LinearLayout &a, const LinearLayout &bIn,
                int elemBytes, const sim::GpuSpec &spec)
{
    auto notApplicable = [](std::string why) {
        return makeDiag(DiagCode::ShuffleNotApplicable,
                        "plan.warp-shuffle", std::move(why));
    };
    auto degenerate = [](std::string why) {
        return makeDiag(DiagCode::ShuffleDegenerate, "plan.warp-shuffle",
                        std::move(why));
    };
    // Structural preconditions: same output space, injective (no
    // broadcast — the shared path handles that), identical warp bases,
    // and a warp-preserving conversion.
    auto aOuts = a.getOutDimNames();
    auto bOuts = bIn.getOutDimNames();
    std::sort(aOuts.begin(), aOuts.end());
    std::sort(bOuts.begin(), bOuts.end());
    if (aOuts != bOuts)
        return notApplicable("different output spaces");
    LinearLayout b = bIn.transposeOuts(a.getOutDimNames());
    if (!a.isSurjective() || !b.isSurjective() || !a.isInjective() ||
        !b.isInjective()) {
        return notApplicable("layouts broadcast or are not surjective");
    }
    if (!a.hasInDim(kReg) || !a.hasInDim(kLane) || !b.hasInDim(kReg) ||
        !b.hasInDim(kLane)) {
        return notApplicable("register/lane dims missing");
    }
    if (a.getInDimSize(kLane) != b.getInDimSize(kLane) ||
        a.getInDimSize(kLane) != spec.warpSize) {
        return notApplicable("lane counts disagree with the warp size");
    }
    if (flatColumns(a, kWarp) != flatColumns(b, kWarp))
        return notApplicable("warp bases differ");
    if (!conversionIsIntraWarp(a, b))
        return notApplicable("conversion crosses warps");
    if (LL_FAILPOINT("shuffle.pair-basis"))
        return degenerate("failpoint shuffle.pair-basis forced failure");

    const int d = a.getTotalOutDimSizeLog2();
    const int regLogA = a.getInDimSizeLog2(kReg);
    const int laneLog = a.getInDimSizeLog2(kLane);
    const int dw = regLogA + laneLog; // warp-0 element space dimension

    auto aReg = flatColumns(a, kReg);
    auto bReg = flatColumns(b, kReg);
    auto aThr = flatColumns(a, kLane);
    auto bThr = flatColumns(b, kLane);

    // V: shared register columns, capped at a 32-bit shuffle payload.
    std::vector<uint64_t> vec = setIntersection(aReg, bReg);
    int maxVecBits = std::max(0, log2Ceil(4u) - log2Ceil(
                                  static_cast<uint64_t>(elemBytes)));
    if (static_cast<int>(vec.size()) > maxVecBits)
        vec.resize(static_cast<size_t>(maxVecBits));
    const int v = static_cast<int>(vec.size());

    // I, E, F, G as in the paper.
    std::vector<uint64_t> iBasis = setIntersection(aThr, bThr);
    std::vector<uint64_t> e = setDifference(aThr, iBasis);
    std::vector<uint64_t> f = setDifference(bThr, iBasis);
    if (e.size() != f.size())
        return degenerate("|E| != |F| despite equal lane counts");
    std::sort(e.begin(), e.end());
    std::sort(f.begin(), f.end());
    std::vector<uint64_t> g;
    for (size_t i = 0; i < e.size(); ++i)
        g.push_back(e[i] ^ f[i]);

    // R: extend V u I u G to a basis of the warp-0 element space using
    // A's own columns.
    f2::EchelonBasis ech;
    for (uint64_t x : vec) {
        if (!ech.insert(x))
            return degenerate("V is not independent");
    }
    for (uint64_t x : iBasis) {
        if (!ech.insert(x))
            return degenerate("V u I is not independent");
    }
    for (uint64_t x : g) {
        if (!ech.insert(x))
            return degenerate("exchange directions G are dependent");
    }
    std::vector<uint64_t> r;
    std::vector<uint64_t> w0Cols = aReg;
    w0Cols.insert(w0Cols.end(), aThr.begin(), aThr.end());
    for (uint64_t x : w0Cols) {
        if (ech.insert(x))
            r.push_back(x);
    }
    const int i = static_cast<int>(iBasis.size());
    const int gsz = static_cast<int>(g.size());
    const int rsz = static_cast<int>(r.size());
    if (v + i + gsz + rsz != dw)
        return degenerate("warp element space basis has wrong dimension");

    // Full-space coordinate system [V | I | G | R | Wrp].
    std::vector<uint64_t> basis = vec;
    for (const auto &part : {iBasis, g, r, flatColumns(a, kWarp)})
        basis.insert(basis.end(), part.begin(), part.end());
    if (static_cast<int>(basis.size()) != d)
        return degenerate("basis column count mismatch");
    if (!f2::F2Matrix(d, basis).isInvertible())
        return degenerate("conversion basis is singular");

    // Per warp-0 coordinate column: its transfer index (V is the slot,
    // R the round, B^-1 gives the destination lane) and its packed word
    // (A^-1 gives the source register and lane, B^-1 the destination
    // register). P, the index map, is invertible exactly when every
    // (round, lane, slot) receives one element, and then the plan is
    // words . P^-1 (DESIGN.md §13, "Shuffle plans are F2 maps").
    const LinearLayout ainv = a.invert();
    const LinearLayout binv = b.invert();
    const int regLogB = b.getInDimSizeLog2(kReg);
    const uint64_t laneMask = (uint64_t(1) << laneLog) - 1;
    std::vector<uint64_t> index(static_cast<size_t>(dw));
    std::vector<uint64_t> words(static_cast<size_t>(dw));
    for (int j = 0; j < dw; ++j) {
        const uint64_t x = basis[static_cast<size_t>(j)];
        const uint64_t srcIn = ainv.applyFlat(x);
        if ((srcIn >> dw) != 0)
            return degenerate("warp-0 element has nonzero warp coord");
        const uint64_t dstIn = binv.applyFlat(x);
        if ((dstIn >> (regLogB + laneLog)) != 0)
            return degenerate("warp-0 element maps outside warp 0 in B");
        uint64_t idx = ((dstIn >> regLogB) & laneMask) << v;
        if (j < v)
            idx |= uint64_t(1) << j;
        else if (j >= v + i + gsz)
            idx |= uint64_t(1) << (j - i - gsz + laneLog);
        index[static_cast<size_t>(j)] = idx;
        words[static_cast<size_t>(j)] =
            srcIn | (dstIn & ((uint64_t(1) << regLogB) - 1)) << dw;
    }
    const f2::F2Matrix p(dw, index);
    if (!p.isInvertible()) {
        // The theorem guarantees one source lane per slice per
        // destination; a violation means the plan is infeasible.
        std::vector<uint64_t> inOf(words);
        for (uint64_t &w : inOf)
            w &= (uint64_t(1) << dw) - 1;
        return degenerate(collisionText(
            p.multiply(f2::F2Matrix(dw, std::move(inOf)).inverse()), v,
            regLogA));
    }
    WarpShufflePlan plan;
    plan.vecElems = 1 << v;
    plan.rounds = 1 << rsz;
    plan.numRegsA = a.getInDimSize(kReg);
    plan.numRegsB = b.getInDimSize(kReg);
    plan.warpSize = spec.warpSize;
    plan.columns = f2::F2Matrix(dw + regLogB, std::move(words))
                       .multiply(p.inverse())
                       .columns();
    return plan;
}

} // namespace codegen
} // namespace ll
