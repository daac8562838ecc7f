#include "check/shuffle_reference.h"

#include <algorithm>

#include "codegen/shuffle.h"
#include "f2/matrix.h"
#include "f2/subspace.h"
#include "layout/dims.h"
#include "support/bits.h"
#include "support/failpoint.h"

namespace ll {
namespace check {

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

} // namespace

Result<ShuffleTable>
shuffleTable_reference(const LinearLayout &a, const LinearLayout &bIn,
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
    if (!codegen::conversionIsIntraWarp(a, b))
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

    ShuffleTable plan;
    plan.vecElems = 1 << v;
    plan.rounds = 1 << rsz;
    plan.numRegsA = a.getInDimSize(kReg);
    plan.numRegsB = b.getInDimSize(kReg);
    plan.warpSize = spec.warpSize;
    plan.receives.assign(
        static_cast<size_t>(plan.rounds),
        std::vector<ShuffleReceive>(static_cast<size_t>(spec.warpSize)));
    // Pre-size every payload so register pairs land at their V-slot.
    for (auto &round : plan.receives) {
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

        ShuffleReceive &xfer = plan.receives[static_cast<size_t>(round)]
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
    for (const auto &round : plan.receives) {
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


std::string
diffShuffleTable(const Result<codegen::WarpShufflePlan> &plan,
                 const Result<ShuffleTable> &table)
{
    if (!plan.ok() || !table.ok()) {
        if (plan.ok())
            return "the planner accepts; the reference rejects with " +
                   table.diag().toString();
        if (table.ok())
            return "the reference accepts; the planner rejects with " +
                   plan.diag().toString();
        if (plan.diag().toString() != table.diag().toString())
            return "the planner rejects with " + plan.diag().toString() +
                   "; the reference with " + table.diag().toString();
        return "";
    }
    const codegen::WarpShufflePlan &p = *plan;
    const ShuffleTable &t = *table;
    if (p.vecElems != t.vecElems || p.rounds != t.rounds ||
        p.numRegsA != t.numRegsA || p.numRegsB != t.numRegsB ||
        p.warpSize != t.warpSize)
        return "plan sizes (vec, rounds, regsA, regsB, warp) differ";
    // The table's count: rounds in which some lane reads another lane.
    int communicating = 0;
    for (const auto &round : t.receives) {
        for (size_t lane = 0; lane < round.size(); ++lane) {
            if (round[lane].srcLane != static_cast<int32_t>(lane)) {
                ++communicating;
                break;
            }
        }
    }
    if (p.communicatingRounds() != communicating)
        return "the plan counts " + std::to_string(p.communicatingRounds()) +
               " communicating round(s), the table " +
               std::to_string(communicating);
    for (int round = 0; round < t.rounds; ++round) {
        for (int lane = 0; lane < t.warpSize; ++lane) {
            const ShuffleReceive &want =
                t.receives[static_cast<size_t>(round)]
                          [static_cast<size_t>(lane)];
            for (int slot = 0; slot < t.vecElems; ++slot) {
                const auto [srcReg, dstReg] =
                    want.regPairs[static_cast<size_t>(slot)];
                const codegen::ShuffleTransfer have =
                    p.transfer(round, lane, slot);
                if (have == codegen::ShuffleTransfer{want.srcLane, srcReg,
                                                     dstReg})
                    continue;
                return "round " + std::to_string(round) + " lane " +
                       std::to_string(lane) + " slot " +
                       std::to_string(slot) + ": the plan moves lane " +
                       std::to_string(have.srcLane) + " reg " +
                       std::to_string(have.srcReg) + " -> reg " +
                       std::to_string(have.dstReg) +
                       ", the reference lane " +
                       std::to_string(want.srcLane) + " reg " +
                       std::to_string(srcReg) + " -> reg " +
                       std::to_string(dstReg);
            }
        }
    }
    return "";
}

} // namespace check
} // namespace ll
