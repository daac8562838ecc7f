#include "codegen/gather.h"

#include "layout/dims.h"
#include "support/bits.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace codegen {

using dims::kLane;
using dims::kReg;
using dims::kWarp;

std::optional<GatherPlan>
planGather(const LinearLayout &layout, int axis, const sim::GpuSpec &spec)
{
    if (!layout.hasInDim(kReg) || !layout.hasInDim(kLane) ||
        !layout.hasOutDim(dims::out(axis))) {
        return std::nullopt;
    }
    if (!layout.isInvertible())
        return std::nullopt;
    if (layout.getInDimSize(kLane) != spec.warpSize)
        return std::nullopt;

    // Warp-local iff no warp basis vector moves along the gathered axis.
    const std::string axisDim = dims::out(axis);
    if (layout.hasInDim(kWarp)) {
        for (int32_t i = 0; i < layout.getInDimSizeLog2(kWarp); ++i) {
            if (layout.getBasis(kWarp, i, axisDim) != 0)
                return std::nullopt;
        }
    }

    GatherPlan plan;
    plan.axis = axis;
    plan.numRegs = layout.getInDimSize(kReg);
    plan.warpSize = spec.warpSize;
    int threadBits = 0;
    for (int32_t i = 0; i < layout.getInDimSizeLog2(kLane); ++i) {
        if (layout.getBasis(kLane, i, axisDim) != 0)
            ++threadBits;
    }
    plan.rounds = 1 << threadBits;
    return plan;
}

Result<std::vector<std::vector<uint64_t>>, ExecDiagnostic>
executeGather(const GatherPlan &plan, const LinearLayout &layout,
              int32_t warp, const std::vector<std::vector<uint64_t>> &regs,
              const std::vector<std::vector<int32_t>> &idx)
{
  trace::Span span("exec.gather", "exec");
  static auto &runs = metrics::counter("exec.gather.runs");
  runs.inc();
  try {
    const int warpSize = plan.warpSize;
    const int numRegs = plan.numRegs;
    const std::string axisDim = dims::out(plan.axis);
    if (static_cast<int>(regs.size()) != warpSize ||
        static_cast<int>(idx.size()) != warpSize || warpSize <= 0) {
        return makeExecDiag(ExecError::PlanShapeMismatch, "exec.gather",
                            "register/index files do not span the warp");
    }
    for (int lane = 0; lane < warpSize; ++lane) {
        if (static_cast<int>(regs[static_cast<size_t>(lane)].size()) <
                numRegs ||
            static_cast<int>(idx[static_cast<size_t>(lane)].size()) <
                numRegs) {
            return makeExecDiag(ExecError::PlanShapeMismatch,
                                "exec.gather",
                                "a lane holds fewer registers than the "
                                "plan reads");
        }
    }
    if (!layout.isInvertible()) {
        return makeExecDiag(ExecError::NonInvertibleStep,
                            "exec.gather.invert",
                            "gather layout is not invertible");
    }
    LinearLayout inv = layout.invert();
    const int64_t axisSize = layout.getOutDimSize(axisDim);

    std::vector<std::vector<uint64_t>> out(
        static_cast<size_t>(warpSize),
        std::vector<uint64_t>(static_cast<size_t>(numRegs)));
    for (int lane = 0; lane < warpSize; ++lane) {
        for (int reg = 0; reg < numRegs; ++reg) {
            int32_t index = idx[static_cast<size_t>(lane)]
                               [static_cast<size_t>(reg)];
            if (index < 0 || index >= axisSize) {
                return makeExecDiag(
                    ExecError::RegisterOutOfRange,
                    "exec.gather.index-range",
                    "gather index " + std::to_string(index) +
                        " outside axis of " + std::to_string(axisSize));
            }
            auto coords = layout.apply(
                {{kReg, reg}, {kLane, lane}, {kWarp, warp}});
            // Redirect the axis coordinate through the index tensor.
            for (auto &[dim, value] : coords) {
                if (dim == axisDim)
                    value = index;
            }
            auto srcIdx = inv.apply(coords);
            int32_t srcReg = 0, srcLane = 0, srcWarp = 0;
            for (const auto &[dim, value] : srcIdx) {
                if (dim == kReg)
                    srcReg = value;
                else if (dim == kLane)
                    srcLane = value;
                else if (dim == kWarp)
                    srcWarp = value;
            }
            if (srcWarp != warp) {
                return makeExecDiag(
                    ExecError::CrossWarpSource, "exec.gather.cross-warp",
                    "gather source landed in warp " +
                        std::to_string(srcWarp) +
                        " despite a warp-local plan");
            }
            if (srcLane < 0 || srcLane >= warpSize || srcReg < 0 ||
                srcReg >= numRegs) {
                return makeExecDiag(
                    ExecError::LaneOutOfRange, "exec.gather.cross-warp",
                    "gather source (reg " + std::to_string(srcReg) +
                        ", lane " + std::to_string(srcLane) +
                        ") outside the register file");
            }
            out[static_cast<size_t>(lane)][static_cast<size_t>(reg)] =
                regs[static_cast<size_t>(srcLane)]
                    [static_cast<size_t>(srcReg)];
        }
    }
    static auto &moved = metrics::counter("exec.gather.elements_moved");
    moved.add(static_cast<int64_t>(warpSize) * numRegs);
    if (span.active()) {
        span.arg("rounds", static_cast<int64_t>(plan.rounds));
        span.arg("warp_size", warpSize);
        span.arg("elements_moved",
                 static_cast<int64_t>(warpSize) * numRegs);
    }
    return out;
  } catch (const std::exception &e) {
    return makeExecDiag(ExecError::ExecInternalError, "exec.gather",
                        e.what());
  }
}

} // namespace codegen
} // namespace ll
