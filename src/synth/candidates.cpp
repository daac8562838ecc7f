#include "synth/candidates.h"

#include <algorithm>
#include <string>

#include "codegen/vectorize.h"
#include "layout/dims.h"
#include "sim/memory_sim.h"
#include "triton/encodings.h"

namespace ll {
namespace synth {

namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;
using ir::OpKind;

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

} // namespace

LinearLayout
defaultMemoryAnchor(const ir::TensorType &type, const sim::GpuSpec &spec,
                    int numWarps)
{
    llUserCheck(!type.shape.empty(),
                "memory anchor needs a ranked tensor type");
    for (auto d : type.shape)
        llUserCheck(d >= 1, "tensor dims must be positive, got " +
                                std::to_string(d));
    llUserCheck(bitWidth(type.dtype) >= 1,
                "element type has no width");
    int vec = std::max(1, 128 / bitWidth(type.dtype));
    auto enc = triton::BlockedEncoding::makeDefault(
        type.shape, numWarps, spec.warpSize, vec);
    return enc.toLinearLayout(type.shape);
}

LinearLayout
dotResultLayout(const ir::TensorType &accType, int operandBits,
                const sim::GpuSpec &spec, int numWarps)
{
    llUserCheck(accType.shape.size() == 2,
                "dot accumulator must be rank-2, got rank " +
                    std::to_string(accType.shape.size()));
    llUserCheck(operandBits >= 1 && operandBits <= 64,
                "dot operand width must be 1..64 bits, got " +
                    std::to_string(operandBits));
    const auto &shape = accType.shape;
    if (spec.warpSize == 64) {
        triton::MfmaEncoding enc;
        int32_t wM = std::min<int32_t>(numWarps,
                                       std::max(shape[0] / 32, 1));
        enc.warpsPerCta = {wM, numWarps / wM};
        return enc.toLinearLayout(shape);
    }
    triton::MmaEncoding enc;
    if (spec.hasWgmma && shape[0] >= 64 && operandBits <= 16 &&
        numWarps >= 4) {
        enc.version = 3;
        enc.instrN = std::min<int32_t>(shape[1], 256);
        int32_t groups = numWarps / 4;
        int32_t gM = std::min<int32_t>(groups, std::max(shape[0] / 64, 1));
        enc.warpsPerCta = {4 * gM, groups / gM};
    } else {
        enc.version = 2;
        int32_t wM = std::min<int32_t>(numWarps,
                                       std::max(shape[0] / 16, 1));
        enc.warpsPerCta = {wM, std::max(numWarps / wM, 1)};
    }
    return enc.toLinearLayout(shape);
}

LinearLayout
dotOperandLayout(const ir::TensorType &operandType,
                 const ir::TensorType &accType, int opIdx,
                 int operandBits, const sim::GpuSpec &spec, int numWarps)
{
    llUserCheck(opIdx == 0 || opIdx == 1,
                "dot operand index must be 0 or 1, got " +
                    std::to_string(opIdx));
    llUserCheck(operandType.shape.size() == 2 &&
                    accType.shape.size() == 2,
                "dot operands and accumulator must be rank-2");
    llUserCheck(operandType.shape[opIdx == 0 ? 0 : 1] ==
                    accType.shape[opIdx == 0 ? 0 : 1],
                "dot operand shape does not match the accumulator: "
                "operand " +
                    std::to_string(opIdx) + " is " +
                    std::to_string(operandType.shape[0]) + "x" +
                    std::to_string(operandType.shape[1]) +
                    " against a " + std::to_string(accType.shape[0]) +
                    "x" + std::to_string(accType.shape[1]) +
                    " accumulator");
    triton::DotOperandEncoding enc;
    if (spec.warpSize == 64) {
        // Model the mfma operand path with the v2 tile over 32 lanes
        // plus lane broadcast; for cost purposes the conversion through
        // shared memory dominates either way. Use the v2 construction.
        enc.parent.version = 2;
    } else if (spec.hasWgmma && accType.shape[0] >= 64 &&
               operandBits <= 16 && numWarps >= 4) {
        enc.parent.version = 3;
    } else {
        enc.parent.version = 2;
    }
    // Match the warp distribution chosen for the result.
    if (enc.parent.version == 3) {
        int32_t groups = numWarps / 4;
        int32_t gM = std::min<int32_t>(
            groups, std::max(accType.shape[0] / 64, 1));
        enc.parent.warpsPerCta = {4 * gM, groups / gM};
    } else {
        int32_t wM = std::min<int32_t>(
            numWarps, std::max(accType.shape[0] / 16, 1));
        enc.parent.warpsPerCta = {wM, std::max(numWarps / wM, 1)};
    }
    enc.opIdx = opIdx;
    enc.bitwidth = std::clamp(operandBits, 8, 32);
    return enc.toLinearLayout(operandType.shape);
}

int64_t
globalMemorySectors(const LinearLayout &layout, int elemBits,
                    const sim::GpuSpec &spec)
{
    const int warpSize =
        layout.hasInDim(kLane) ? layout.getInDimSize(kLane) : 1;
    const int regs = regCount(layout);
    const int instElems =
        std::max(1, codegen::accessBitwidth(layout, elemBits) / elemBits);
    const int instsPerThread = std::max(1, regs / instElems);
    const int regLog = layout.hasInDim(kReg)
                           ? layout.getInDimSizeLog2(kReg)
                           : 0;

    // Representative warp access: register group 0 of warp 0.
    std::vector<int64_t> addrs;
    for (int lane = 0; lane < warpSize; ++lane) {
        uint64_t in = static_cast<uint64_t>(lane) << regLog;
        uint64_t flat = layout.applyFlat(in);
        addrs.push_back(
            static_cast<int64_t>(flat * static_cast<uint64_t>(elemBits) /
                                 8));
    }
    sim::GlobalMemory gmem(spec);
    int64_t sectorsPerInst =
        gmem.countSectors(addrs, std::max(1, instElems * elemBits / 8));
    return sectorsPerInst * instsPerThread * warpCount(layout);
}

double
unplannableConversionCycles(const LinearLayout &src,
                            const sim::GpuSpec &spec)
{
    return spec.sharedRoundTripCycles +
           2.0 * regCount(src) * spec.sharedWavefrontCycles;
}

PropagationMap
propagationMap(const ir::Function &f, const sim::GpuSpec &spec,
               int numWarps)
{
    PropagationMap map;
    map.carrier.assign(static_cast<size_t>(f.numValues()), -1);
    map.fixed.assign(static_cast<size_t>(f.numValues()), std::nullopt);
    auto inherit = [&](int result, int from) {
        map.carrier[static_cast<size_t>(result)] =
            map.carrier[static_cast<size_t>(from)];
        map.fixed[static_cast<size_t>(result)] =
            map.fixed[static_cast<size_t>(from)];
    };
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased)
            continue;
        switch (o.kind) {
          case OpKind::Load:
          case OpKind::Constant:
            map.carrier[static_cast<size_t>(o.results[0])] =
                o.results[0];
            break;
          case OpKind::Elementwise:
          case OpKind::Scan:
          case OpKind::Gather:
          case OpKind::ConvertLayout:
            // These forward operand 0's layout unchanged (gather results
            // take the source tensor's layout; the index operand is
            // converted to it).
            inherit(o.results[0], o.operands[0]);
            break;
          case OpKind::Dot: {
            const auto &ta = f.value(o.operands[0]).type;
            const auto &tb = f.value(o.operands[1]).type;
            const auto &tacc = f.value(o.results[0]).type;
            int bits = std::max(bitWidth(ta.dtype), bitWidth(tb.dtype));
            try {
                map.fixed[static_cast<size_t>(o.results[0])] =
                    bits > 32
                        ? defaultMemoryAnchor(tacc, spec, numWarps)
                        : dotResultLayout(tacc, bits, spec, numWarps);
            } catch (const std::exception &) {
                // An unconstructible MMA layout simply leaves the
                // result unpinned; the engine's own path will face the
                // same failure and fall back.
            }
            break;
          }
          default:
            // Shape transfers (Reduce/Trans/Reshape/ExpandDims/
            // Broadcast/Join/Split) and stores break the carried-anchor
            // chain: their result layouts are derived, not carried.
            break;
        }
    }
    return map;
}

std::vector<int>
anchorValues(const ir::Function &f)
{
    std::vector<int> anchors;
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased)
            continue;
        if (o.kind == OpKind::Load || o.kind == OpKind::Constant)
            anchors.push_back(o.results[0]);
    }
    return anchors;
}

std::vector<LayoutCandidate>
anchorCandidates(const ir::Function &f, int anchor,
                 const PropagationMap &prop, const sim::GpuSpec &spec,
                 int numWarps, int maxPerAnchor)
{
    const ir::TensorType &type = f.value(anchor).type;
    std::vector<LayoutCandidate> out;
    auto add = [&](const std::string &provenance, auto &&build) {
        if (static_cast<int>(out.size()) >= std::max(1, maxPerAnchor))
            return;
        try {
            LinearLayout l = build();
            for (const auto &c : out)
                if (c.layout == l)
                    return;
            out.push_back({std::move(l), provenance});
        } catch (const std::exception &) {
            // A candidate that cannot be constructed for this shape is
            // skipped, never fatal: the default below always exists.
        }
    };

    // Index 0: today's default. anchorCandidates callers (and the beam)
    // rely on this position for the never-worse guarantee.
    add("default",
        [&] { return defaultMemoryAnchor(type, spec, numWarps); });
    llAssert(!out.empty(), "default anchor candidate must construct");

    auto carrierOf = [&](int v) {
        return prop.carrier[static_cast<size_t>(v)];
    };
    auto fixedOf = [&](int v) -> const std::optional<LinearLayout> & {
        return prop.fixed[static_cast<size_t>(v)];
    };
    auto sameShape = [&](int v) {
        return f.value(v).type.shape == type.shape;
    };

    // Consumer preferences and propagated neighbors, in op order so
    // enumeration is deterministic.
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased)
            continue;
        if (o.kind == OpKind::Dot) {
            const auto &ta = f.value(o.operands[0]).type;
            const auto &tb = f.value(o.operands[1]).type;
            const auto &tacc = f.value(o.results[0]).type;
            int bits = std::max(bitWidth(ta.dtype), bitWidth(tb.dtype));
            if (bits > 32)
                continue; // FMA dots want the default blocked anchor
            for (int s = 0; s < 2; ++s) {
                if (carrierOf(o.operands[s]) != anchor ||
                    !sameShape(o.operands[s]))
                    continue;
                add("dot-operand:" + std::to_string(s), [&] {
                    return dotOperandLayout(f.value(o.operands[s]).type,
                                            tacc, s, bits, spec,
                                            numWarps);
                });
            }
            continue;
        }
        // Ops that convert trailing operands to operand 0's layout:
        // either side of such an edge can adopt the other's layout to
        // make the conversion a no-op.
        if (o.kind != OpKind::Elementwise && o.kind != OpKind::Join &&
            o.kind != OpKind::Gather)
            continue;
        const int lead = o.operands[0];
        for (size_t s = 1; s < o.operands.size(); ++s) {
            const int other = o.operands[s];
            // This anchor feeds a trailing slot: adopt the lead
            // operand's layout.
            if (carrierOf(other) == anchor && sameShape(other)) {
                if (fixedOf(lead).has_value() && sameShape(lead))
                    add("consumer-fixed",
                        [&] { return *fixedOf(lead); });
                const int leadAnchor = carrierOf(lead);
                if (leadAnchor >= 0 && leadAnchor != anchor &&
                    sameShape(lead))
                    add("neighbor", [&] {
                        return defaultMemoryAnchor(
                            f.value(leadAnchor).type, spec, numWarps);
                    });
            }
            // This anchor feeds the lead slot: adopt a trailing
            // operand's layout instead.
            if (carrierOf(lead) == anchor && sameShape(lead)) {
                if (fixedOf(other).has_value() && sameShape(other))
                    add("consumer-fixed",
                        [&] { return *fixedOf(other); });
                const int otherAnchor = carrierOf(other);
                if (otherAnchor >= 0 && otherAnchor != anchor &&
                    sameShape(other))
                    add("neighbor", [&] {
                        return defaultMemoryAnchor(
                            f.value(otherAnchor).type, spec, numWarps);
                    });
            }
        }
    }

    // Blocked variants at other vectorization widths (the default's
    // width is deduplicated away by `add`).
    for (int vec : {1, 2, 4, 8, 16}) {
        add("blocked/vec" + std::to_string(vec), [&] {
            auto enc = triton::BlockedEncoding::makeDefault(
                type.shape, numWarps, spec.warpSize, vec);
            return enc.toLinearLayout(type.shape);
        });
    }
    return out;
}

} // namespace synth
} // namespace ll
