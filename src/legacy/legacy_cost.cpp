#include "legacy/legacy_cost.h"

#include "layout/dims.h"
#include "legacy/legacy.h"
#include "sim/memory_sim.h"
#include "support/bits.h"

namespace ll {
namespace legacy {

namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;

int
regCount(const LinearLayout &l)
{
    return l.hasInDim(kReg) ? l.getInDimSize(kReg) : 1;
}

int
warpCount(const LinearLayout &l)
{
    return l.hasInDim(kWarp) ? l.getInDimSize(kWarp) : 1;
}

int64_t
legacyGlobalSectors(const LinearLayout &layout, int elemBits,
                    const sim::GpuSpec &spec)
{
    const int warpSize =
        layout.hasInDim(kLane) ? layout.getInDimSize(kLane) : 1;
    const int regs = regCount(layout);
    const int instElems = std::max(
        1, legacyAccessBitwidth(layout, elemBits) / elemBits);
    const int instsPerThread = std::max(1, regs / instElems);
    const int regLog =
        layout.hasInDim(kReg) ? layout.getInDimSizeLog2(kReg) : 0;
    std::vector<int64_t> addrs;
    for (int lane = 0; lane < warpSize; ++lane) {
        uint64_t flat = layout.applyFlat(static_cast<uint64_t>(lane)
                                         << regLog);
        addrs.push_back(static_cast<int64_t>(
            flat * static_cast<uint64_t>(elemBits) / 8));
    }
    sim::GlobalMemory gmem(spec);
    int64_t sectorsPerInst =
        gmem.countSectors(addrs, std::max(1, instElems * elemBits / 8));
    return sectorsPerInst * instsPerThread * warpCount(layout);
}

} // namespace

int
legacyAccessBitwidth(const LinearLayout &layout, int elemBits,
                     int maxVectorBits)
{
    if (!layout.hasInDim(kReg) || layout.getNumOutDims() == 0)
        return elemBits;
    // Contiguity that stays inside the first (fastest) out dim only.
    auto flat = layout.flattenedBases(kReg);
    int fastLog = log2Exact(static_cast<uint64_t>(
        layout.getOutDimSize(layout.getOutDimNames()[0])));
    int k = 0;
    while (k < static_cast<int>(flat.size()) && k < fastLog &&
           flat[static_cast<size_t>(k)] == (uint64_t(1) << k)) {
        ++k;
    }
    int64_t bits =
        std::min<int64_t>((int64_t(1) << k) * elemBits, maxVectorBits);
    bits = int64_t(1) << log2Floor(static_cast<uint64_t>(bits));
    return static_cast<int>(std::max<int64_t>(bits, elemBits));
}

engine::KernelCost
estimateLegacyKernelCost(const ir::Function &f, const sim::GpuSpec &spec,
                         int numWarps)
{
    engine::KernelCost cost;
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased)
            continue;
        switch (o.kind) {
          case ir::OpKind::Load:
          case ir::OpKind::Store: {
            int v = o.kind == ir::OpKind::Load ? o.results[0]
                                               : o.operands[0];
            const auto &val = f.value(v);
            if (!val.layout)
                break;
            int64_t sectors = legacyGlobalSectors(
                *val.layout, bitWidth(val.type.dtype), spec);
            cost.globalSectors += sectors;
            cost.cycles +=
                static_cast<double>(sectors) * spec.globalSectorCycles;
            break;
          }
          case ir::OpKind::ConvertLayout: {
            const auto &src = f.value(o.operands[0]);
            const auto &dst = f.value(o.results[0]);
            if (!src.layout || !dst.layout)
                break;
            ++cost.converts;
            ++cost.localLoads;
            ++cost.localStores;
            ++cost.sharedConversions;
            int elemBytes = byteWidth(src.type.dtype);
            if (src.type.rank() == 2) {
                auto padded = paddedConversionCost(
                    *src.layout, *dst.layout, src.type.shape,
                    elemBytes, spec);
                cost.cycles += padded.cycles;
            } else {
                // Rank != 2: flat unswizzled staging, scalar-ish access.
                int regs = regCount(*src.layout);
                cost.cycles += spec.sharedRoundTripCycles +
                               2.0 * regs * spec.sharedWavefrontCycles;
            }
            break;
          }
          case ir::OpKind::Dot: {
            const auto &ta = f.value(o.operands[0]).type;
            const auto &tacc = f.value(o.results[0]).type;
            double macs = double(tacc.shape[0]) * tacc.shape[1] *
                          ta.shape[1];
            const bool fma = ir::dotWidth(f, o).fma;
            double throughput =
                fma ? double(numWarps) * spec.warpSize *
                          spec.aluOpsPerLanePerCycle
                    : double(numWarps) * spec.mmaMacsPerCyclePerWarp;
            cost.cycles += macs / throughput;
            break;
          }
          case ir::OpKind::Reduce: {
            const auto &src = f.value(o.operands[0]);
            if (!src.layout)
                break;
            const LinearLayout &l = *src.layout;
            const std::string axisDim = dims::out(o.axis);
            int laneBits = 0, warpBits = 0;
            if (l.hasInDim(kLane)) {
                for (int b = 0; b < l.getInDimSizeLog2(kLane); ++b)
                    laneBits += l.getBasis(kLane, b, axisDim) != 0;
            }
            if (l.hasInDim(kWarp)) {
                for (int b = 0; b < l.getInDimSizeLog2(kWarp); ++b)
                    warpBits += l.getBasis(kWarp, b, axisDim) != 0;
            }
            int resultRegs = std::max(1, regCount(l) >> laneBits);
            cost.cycles +=
                double(laneBits) * resultRegs * spec.shuffleCycles;
            if (warpBits > 0 || laneBits > 0) {
                // Legacy funnels all cross-thread traffic through
                // shared memory and stores duplicates too.
                ++cost.localStores;
                ++cost.localLoads;
                int64_t stores =
                    legacyReductionSharedStores(l, o.axis, spec);
                int64_t linear =
                    linearReductionSharedStores(l, o.axis, spec);
                cost.cycles +=
                    spec.sharedRoundTripCycles +
                    double(stores) / double(std::max<int64_t>(linear, 1)) *
                        2.0 * std::max(warpBits, 1) *
                        spec.sharedWavefrontCycles;
            }
            break;
          }
          case ir::OpKind::Gather: {
            const auto &src = f.value(o.operands[0]);
            if (!src.layout)
                break;
            ++cost.localStores;
            ++cost.localLoads;
            int regs = regCount(*src.layout);
            cost.cycles += spec.sharedRoundTripCycles +
                           2.0 * regs * spec.sharedWavefrontCycles;
            break;
          }
          case ir::OpKind::Scan: {
            const auto &src = f.value(o.operands[0]);
            if (!src.layout)
                break;
            // Legacy runs the same Hillis-Steele shuffles but, unable
            // to prove which threads hold duplicates or whether warps
            // participate, always finishes with a shared round trip of
            // every register (the buggy per-layout index math the paper
            // cites made exactly these ops conservative).
            const LinearLayout &l = *src.layout;
            const std::string axisDim = dims::out(o.axis);
            int laneBits = 0;
            if (l.hasInDim(kLane)) {
                for (int bIdx = 0; bIdx < l.getInDimSizeLog2(kLane);
                     ++bIdx)
                    laneBits += l.getBasis(kLane, bIdx, axisDim) != 0;
            }
            int regs = regCount(l);
            ++cost.localStores;
            ++cost.localLoads;
            cost.cycles += double(regs) +
                           double(laneBits) * regs * spec.shuffleCycles +
                           spec.sharedRoundTripCycles +
                           2.0 * regs * spec.sharedWavefrontCycles;
            break;
          }
          case ir::OpKind::Elementwise: {
            const auto &res = f.value(o.results[0]);
            if (!res.layout)
                break;
            cost.cycles += double(regCount(*res.layout)) /
                           spec.aluOpsPerLanePerCycle;
            break;
          }
          default:
            break;
        }
    }
    return cost;
}

} // namespace legacy
} // namespace ll
