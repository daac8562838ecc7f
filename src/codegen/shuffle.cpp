#include "codegen/shuffle.h"

#include <algorithm>

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

int64_t
WarpShufflePlan::countShuffleInstructions(int elemBytes) const
{
    int payloadBytes = vecElems * elemBytes;
    int shufflesPerRound = (payloadBytes + 3) / 4;
    int64_t total = 0;
    for (const auto &round : xfers) {
        bool communicates = false;
        for (size_t lane = 0; lane < round.size(); ++lane) {
            if (round[lane].srcLane != static_cast<int32_t>(lane)) {
                communicates = true;
                break;
            }
        }
        if (communicates)
            total += shufflesPerRound;
    }
    return total;
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
    for (const auto &laneRegs : src) {
        if (static_cast<int>(laneRegs.size()) < numRegsA) {
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
    for (const auto &round : xfers) {
        for (size_t lane = 0; lane < round.size(); ++lane) {
            if (lane >= static_cast<size_t>(warpSize)) {
                return makeExecDiag(ExecError::PlanShapeMismatch,
                                    "exec.shuffle.shape",
                                    "round addresses more lanes than "
                                    "the warp holds");
            }
            const ShuffleXfer &x = round[lane];
            if (x.srcLane < 0 || x.srcLane >= warpSize) {
                return makeExecDiag(
                    ExecError::LaneOutOfRange, "exec.shuffle.lane-range",
                    "source lane " + std::to_string(x.srcLane) +
                        " outside warp of " + std::to_string(warpSize));
            }
            for (const auto &[ra, rb] : x.regPairs) {
                if (ra < 0 || ra >= numRegsA || rb < 0 || rb >= numRegsB) {
                    return makeExecDiag(
                        ExecError::RegisterOutOfRange,
                        "exec.shuffle.reg-range",
                        "register pair (" + std::to_string(ra) + ", " +
                            std::to_string(rb) + ") outside " +
                            std::to_string(numRegsA) + "/" +
                            std::to_string(numRegsB));
                }
                dst[lane][static_cast<size_t>(rb)] =
                    src[static_cast<size_t>(x.srcLane)]
                       [static_cast<size_t>(ra)];
                ++elementsMoved;
            }
        }
    }
    static auto &roundsRun = metrics::counter("exec.shuffle.rounds");
    roundsRun.add(static_cast<int64_t>(xfers.size()));
    static auto &moved = metrics::counter("exec.shuffle.elements_moved");
    moved.add(elementsMoved);
    if (span.active()) {
        span.arg("rounds", static_cast<int64_t>(xfers.size()));
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
    f2::F2Matrix basisM(d, d);
    {
        int col = 0;
        for (uint64_t x : vec)
            basisM.setCol(col++, x);
        for (uint64_t x : iBasis)
            basisM.setCol(col++, x);
        for (uint64_t x : g)
            basisM.setCol(col++, x);
        for (uint64_t x : r)
            basisM.setCol(col++, x);
        for (uint64_t x : flatColumns(a, kWarp))
            basisM.setCol(col++, x);
        if (col != d)
            return degenerate("basis column count mismatch");
    }
    if (!basisM.isInvertible())
        return degenerate("conversion basis is singular");
    f2::F2Matrix coordOf = basisM.inverse();

    LinearLayout binv = b.invert();

    WarpShufflePlan plan;
    plan.vecElems = 1 << v;
    plan.rounds = 1 << rsz;
    plan.numRegsA = a.getInDimSize(kReg);
    plan.numRegsB = b.getInDimSize(kReg);
    plan.warpSize = spec.warpSize;
    plan.xfers.assign(
        static_cast<size_t>(plan.rounds),
        std::vector<ShuffleXfer>(static_cast<size_t>(spec.warpSize)));
    // Pre-size every payload so register pairs land at their V-slot.
    for (auto &round : plan.xfers) {
        for (auto &x : round)
            x.regPairs.assign(static_cast<size_t>(plan.vecElems),
                              {-1, -1});
    }

    const int regLogB = b.getInDimSizeLog2(kReg);
    for (uint64_t in = 0; in < (uint64_t(1) << dw); ++in) {
        int32_t srcReg = static_cast<int32_t>(
            in & ((uint64_t(1) << regLogA) - 1));
        int32_t srcLane = static_cast<int32_t>(in >> regLogA);
        uint64_t x = a.applyFlat(in);
        uint64_t coords = coordOf.apply(x);
        if ((coords >> dw) != 0)
            return degenerate("warp-0 element has nonzero warp coord");
        int32_t vSlot = static_cast<int32_t>(
            coords & ((uint64_t(1) << v) - 1));
        int32_t round = static_cast<int32_t>(
            (coords >> (v + i + gsz)) & ((uint64_t(1) << rsz) - 1));

        uint64_t dstIn = binv.applyFlat(x);
        int32_t dstReg = static_cast<int32_t>(
            dstIn & ((uint64_t(1) << regLogB) - 1));
        int32_t dstLane = static_cast<int32_t>(
            (dstIn >> regLogB) & ((uint64_t(1) << laneLog) - 1));
        if ((dstIn >> (regLogB + laneLog)) != 0)
            return degenerate("warp-0 element maps outside warp 0 in B");

        ShuffleXfer &xfer = plan.xfers[static_cast<size_t>(round)]
                                      [static_cast<size_t>(dstLane)];
        if (xfer.srcLane == -1) {
            xfer.srcLane = srcLane;
        } else if (xfer.srcLane != srcLane) {
            // The theorem guarantees one source lane per slice per
            // destination; a violation means the plan is infeasible.
            return degenerate("slice contains two source lanes for one "
                              "destination lane");
        }
        auto &slot = xfer.regPairs[static_cast<size_t>(vSlot)];
        if (slot.first != -1)
            return degenerate("duplicate V-slot in shuffle payload");
        slot = {srcReg, dstReg};
    }

    // Every payload slot must be filled.
    for (const auto &round : plan.xfers) {
        for (const auto &x : round) {
            if (x.srcLane < 0)
                return degenerate("lane received no data in a round");
            for (const auto &[ra, rb] : x.regPairs) {
                if (ra < 0 || rb < 0)
                    return degenerate("unfilled payload slot");
            }
        }
    }
    return plan;
}

} // namespace codegen
} // namespace ll
