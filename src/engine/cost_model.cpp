#include "engine/cost_model.h"

#include <optional>
#include <sstream>

#include "codegen/conversion.h"
#include "codegen/gather.h"
#include "layout/dims.h"
#include "support/bits.h"
#include "synth/candidates.h"

namespace ll {
namespace engine {

namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;

int
regCount(const LinearLayout &l)
{
    return l.hasInDim(kReg) ? l.getInDimSize(kReg) : 1;
}

/** Global traffic of one load/store of a tensor in `layout`. The
 *  replay lives in synth::globalMemorySectors so the synthesis node
 *  cost and this estimate are one function, not two copies. */
int64_t
globalSectorsFor(const LinearLayout &layout, int elemBits,
                 const sim::GpuSpec &spec)
{
    return synth::globalMemorySectors(layout, elemBits, spec);
}

} // namespace

std::string
KernelCost::toString() const
{
    std::ostringstream oss;
    oss << "converts=" << converts << " local_load=" << localLoads
        << " local_store=" << localStores << " (noop=" << noopConversions
        << " permute=" << permuteConversions
        << " shuffle=" << shuffleConversions
        << " shared=" << sharedConversions << ")"
        << " sectors=" << globalSectors << " cycles=" << cycles;
    return oss.str();
}

KernelCost
estimateKernelCost(const ir::Function &f, const sim::GpuSpec &spec,
                   int numWarps)
{
    KernelCost cost;
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
            int64_t sectors = globalSectorsFor(
                *val.layout, bitWidth(val.type.dtype), spec);
            cost.globalSectors += sectors;
            cost.cycles += static_cast<double>(sectors) *
                           spec.globalSectorCycles;
            break;
          }
          case ir::OpKind::ConvertLayout: {
            const auto &src = f.value(o.operands[0]);
            const auto &dst = f.value(o.results[0]);
            if (!src.layout || !dst.layout)
                break;
            ++cost.converts;
            int elemBytes = byteWidth(src.type.dtype);
            // Price the plan the engine verified and attached; only ops
            // it never tried (synthesis's trial copies, hand-built IR)
            // are planned here. An op it rejected stays unplanned.
            const codegen::ConversionPlan *plan = o.plan.get();
            std::optional<codegen::ConversionPlan> fresh;
            if (plan == nullptr && o.tag != ir::kUnplannedConvertTag) {
                auto planned = codegen::tryPlanConversion(
                    *src.layout, *dst.layout, elemBytes, spec);
                if (planned)
                    plan = &fresh.emplace(std::move(*planned));
            }
            if (plan == nullptr) {
                // An unplannable or rejected conversion gets priced like
                // a scalar shared round trip rather than sinking the
                // whole estimate.
                ++cost.sharedConversions;
                ++cost.localLoads;
                ++cost.localStores;
                cost.cycles +=
                    synth::unplannableConversionCycles(*src.layout, spec);
                break;
            }
            switch (plan->kind) {
              case codegen::ConversionKind::NoOp:
                ++cost.noopConversions;
                break;
              case codegen::ConversionKind::RegisterPermute:
                ++cost.permuteConversions;
                break;
              case codegen::ConversionKind::WarpShuffle:
                ++cost.shuffleConversions;
                break;
              case codegen::ConversionKind::SharedMemory:
              case codegen::ConversionKind::SharedPadded:
              case codegen::ConversionKind::SharedScalar:
                ++cost.sharedConversions;
                ++cost.localLoads;
                ++cost.localStores;
                break;
            }
            cost.cycles +=
                plan->estimateCycles(*src.layout, elemBytes, spec);
            break;
          }
          case ir::OpKind::Dot: {
            const auto &ta = f.value(o.operands[0]).type;
            const auto &tacc = f.value(o.results[0]).type;
            double macs = double(tacc.shape[0]) * tacc.shape[1] *
                          ta.shape[1];
            bool fma = o.tag.find("fma") != std::string::npos;
            double throughput =
                fma ? double(numWarps) * spec.warpSize *
                          spec.aluOpsPerLanePerCycle
                    : double(numWarps) * spec.mmaMacsPerCyclePerWarp;
            cost.cycles += macs / throughput;
            // Tensor cores read their operands through shared memory
            // (modeled by the ConvertLayout ops the engine inserted).
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
            cost.cycles += double(laneBits) * resultRegs *
                           spec.shuffleCycles;
            if (warpBits > 0) {
                ++cost.localStores;
                ++cost.localLoads;
                cost.cycles += spec.sharedRoundTripCycles +
                               2.0 * warpBits *
                                   spec.sharedWavefrontCycles;
            }
            break;
          }
          case ir::OpKind::Gather: {
            const auto &src = f.value(o.operands[0]);
            if (!src.layout)
                break;
            auto plan = codegen::planGather(*src.layout, o.axis, spec);
            int regs = regCount(*src.layout);
            double sharedCycles = spec.sharedRoundTripCycles +
                                  2.0 * regs *
                                      spec.sharedWavefrontCycles;
            double shuffleCycles =
                plan.has_value()
                    ? double(plan->countShuffleInstructions()) *
                          spec.shuffleCycles
                    : sharedCycles + 1.0;
            // Pick the cheaper lowering, as the compiler does: many
            // shuffle rounds lose to one shared round trip (the
            // Figure 8 crossover).
            if (plan.has_value() && shuffleCycles <= sharedCycles) {
                cost.cycles += shuffleCycles;
            } else {
                ++cost.localStores;
                ++cost.localLoads;
                cost.cycles += sharedCycles;
            }
            break;
          }
          case ir::OpKind::Scan: {
            const auto &src = f.value(o.operands[0]);
            if (!src.layout)
                break;
            const LinearLayout &l = *src.layout;
            const std::string axisDim = dims::out(o.axis);
            int laneBits = 0, warpBits = 0, regBits = 0;
            if (l.hasInDim(kLane)) {
                for (int bIdx = 0; bIdx < l.getInDimSizeLog2(kLane);
                     ++bIdx)
                    laneBits += l.getBasis(kLane, bIdx, axisDim) != 0;
            }
            if (l.hasInDim(kWarp)) {
                for (int bIdx = 0; bIdx < l.getInDimSizeLog2(kWarp);
                     ++bIdx)
                    warpBits += l.getBasis(kWarp, bIdx, axisDim) != 0;
            }
            if (l.hasInDim(kReg)) {
                for (int bIdx = 0; bIdx < l.getInDimSizeLog2(kReg);
                     ++bIdx)
                    regBits += l.getBasis(kReg, bIdx, axisDim) != 0;
            }
            // Sequential within registers, Hillis-Steele across lanes
            // (one shuffle per axis lane-bit per register), partials
            // through shared memory across warps.
            int regs = regCount(l);
            cost.cycles += double(regs); // in-register prefix
            cost.cycles +=
                double(laneBits) * regs * spec.shuffleCycles;
            if (warpBits > 0) {
                ++cost.localStores;
                ++cost.localLoads;
                cost.cycles += spec.sharedRoundTripCycles +
                               2.0 * warpBits *
                                   spec.sharedWavefrontCycles;
            }
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
            break; // shape ops and constants are free
        }
    }
    return cost;
}

} // namespace engine
} // namespace ll
