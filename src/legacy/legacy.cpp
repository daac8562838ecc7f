#include "legacy/legacy.h"

#include <algorithm>

#include "layout/dims.h"
#include "sim/memory_sim.h"
#include "support/bits.h"

namespace ll {
namespace legacy {

namespace {

codegen::MemoryInstruction
instructionFromBits(int bits)
{
    codegen::MemoryInstruction inst;
    if (bits <= 32) {
        inst.vecWords = 1;
        inst.wordBits = bits;
    } else {
        inst.vecWords = bits / 32;
        inst.wordBits = 32;
    }
    return inst;
}

} // namespace

codegen::MemoryInstruction
legacyMemoryInstruction(const triton::BlockedEncoding &enc,
                        const triton::Shape &shape, int elemBits,
                        int maxVectorBits)
{
    const int fast = enc.order[0];
    int64_t contig;
    if (shape[static_cast<size_t>(fast)] == 1) {
        // The fastest dim holds one element: legacy falls back to the
        // pointer-increment analysis on the next dim, which proves at
        // most a 4-element alignment (the Section 5.1 / Table 3 bug).
        contig = std::min<int64_t>(
            4, enc.sizePerThread[static_cast<size_t>(enc.order[1])]);
    } else {
        contig = std::min<int64_t>(
            enc.sizePerThread[static_cast<size_t>(fast)],
            shape[static_cast<size_t>(fast)]);
    }
    int64_t bits = std::min<int64_t>(contig * elemBits, maxVectorBits);
    bits = int64_t(1) << log2Floor(static_cast<uint64_t>(bits));
    return instructionFromBits(
        static_cast<int>(std::max<int64_t>(bits, elemBits)));
}

std::string
toString(LayoutKind kind)
{
    switch (kind) {
      case LayoutKind::Blocked:
        return "Blocked";
      case LayoutKind::Mma:
        return "MMA";
      case LayoutKind::MmaInput:
        return "MMA Input";
      case LayoutKind::SlicedBlocked:
        return "Sliced<Blocked>";
      case LayoutKind::SlicedMma:
        return "Sliced<MMA>";
      case LayoutKind::SlicedMmaInput:
        return "Sliced<MMA Input>";
      case LayoutKind::Custom:
        return "Custom";
    }
    return "?";
}

bool
legacySupportsReduction(LayoutKind kind)
{
    // Table 4: legacy reduction codegen only handles the layouts it has
    // hand-written index math for.
    switch (kind) {
      case LayoutKind::Blocked:
      case LayoutKind::Mma:
      case LayoutKind::SlicedBlocked:
        return true;
      case LayoutKind::MmaInput:
      case LayoutKind::SlicedMma:
      case LayoutKind::SlicedMmaInput:
      case LayoutKind::Custom:
        return false;
    }
    return false;
}

int64_t
legacyReductionSharedStores(const LinearLayout &layout, int axis,
                            const sim::GpuSpec &spec)
{
    (void)spec;
    // After the intra-thread tree, each thread holds one partial per
    // register position not moving along the axis; legacy stores every
    // one of them from every thread.
    const std::string axisDim = dims::out(axis);
    int regBitsAlongAxis = 0;
    for (int b = 0; b < layout.getInDimSizeLog2(dims::kReg); ++b)
        regBitsAlongAxis +=
            layout.getBasis(dims::kReg, b, axisDim) != 0;
    int64_t resultRegs =
        layout.getInDimSize(dims::kReg) >> regBitsAlongAxis;
    int64_t threads = int64_t(layout.getInDimSize(dims::kLane)) *
                      (layout.hasInDim(dims::kWarp)
                           ? layout.getInDimSize(dims::kWarp)
                           : 1);
    return threads * std::max<int64_t>(resultRegs, 1);
}

int64_t
linearReductionSharedStores(const LinearLayout &layout, int axis,
                            const sim::GpuSpec &spec)
{
    // Free variables (zero or dependent columns) identify threads and
    // warps holding duplicated data (Section 5.1); their stores are
    // skipped.
    int64_t all = legacyReductionSharedStores(layout, axis, spec);
    auto masks = layout.getFreeVariableMasks();
    int dupBits = 0;
    if (masks.contains(dims::kLane))
        dupBits += popcount(static_cast<uint64_t>(
            static_cast<uint32_t>(masks.at(dims::kLane))));
    if (masks.contains(dims::kWarp))
        dupBits += popcount(static_cast<uint64_t>(
            static_cast<uint32_t>(masks.at(dims::kWarp))));
    return std::max<int64_t>(all >> dupBits, 1);
}

PaddedConversionCost
paddedConversionCost(const LinearLayout &src, const LinearLayout &dst,
                     const triton::Shape &shape, int elemBytes,
                     const sim::GpuSpec &spec, int padElems)
{
    llUserCheck(shape.size() == 2, "padding heuristic is 2D");
    if (padElems < 0)
        padElems = std::max(1, 16 / elemBytes); // one 128-bit vector
    const int64_t rows = shape[0], cols = shape[1];
    const int64_t stride = cols + padElems;

    PaddedConversionCost cost;
    cost.sharedBytes = rows * stride * elemBytes;

    // Vectorization: padding preserves contiguity only inside a row, so
    // the usable width is the per-thread run within the fast dim.
    auto rowVec = [&](const LinearLayout &l) {
        int v = l.getNumConsecutiveInOut();
        // The layout's first out dim is its fastest; runs cannot cross
        // the padded row boundary, and one access moves <= 128 bits.
        v = std::min<int>(v, l.getOutDimSize(l.getOutDimNames()[0]));
        v = std::min<int>(v, std::max(1, 16 / elemBytes));
        return std::max(1, 1 << log2Floor(static_cast<uint64_t>(v)));
    };
    cost.storeVecElems = rowVec(src);
    cost.loadVecElems = rowVec(dst.transposeOuts(src.getOutDimNames()));

    // Padded addresses of a representative warp access on each side.
    // Row-major (i, j) is (dim0, dim1) by name, whatever the layout's
    // out-dim order: each is a shift-and-mask field of the flat output.
    auto addrsFor = [&](const LinearLayout &l, int vec) {
        const int regLog = l.getInDimSizeLog2(dims::kReg);
        const int warpSize = l.getInDimSize(dims::kLane);
        struct Field
        {
            int shift = 0;
            uint64_t mask = 0; // 0 leaves the coordinate at 0
        } iField, jField;
        int shift = 0;
        for (const auto &[name, size] : l.getOutDims()) {
            Field &f = name == "dim0" ? iField : jField;
            f = {shift, static_cast<uint64_t>(size) - 1};
            shift += log2Exact(static_cast<uint64_t>(size));
        }
        std::vector<int64_t> addrs;
        addrs.reserve(static_cast<size_t>(warpSize));
        for (int lane = 0; lane < warpSize; ++lane) {
            const uint64_t flat =
                l.applyFlat(static_cast<uint64_t>(lane) << regLog);
            const auto i =
                static_cast<int64_t>((flat >> iField.shift) & iField.mask);
            const auto j =
                static_cast<int64_t>((flat >> jField.shift) & jField.mask);
            int64_t off = i * stride + j;
            addrs.push_back(off / vec * vec * elemBytes);
        }
        return addrs;
    };
    auto srcAligned = src;
    auto dstAligned = dst.transposeOuts(src.getOutDimNames());
    cost.storeWavefronts = sim::SharedMemory::countWavefronts(
        spec, addrsFor(srcAligned, cost.storeVecElems),
        cost.storeVecElems * elemBytes);
    cost.loadWavefronts = sim::SharedMemory::countWavefronts(
        spec, addrsFor(dstAligned, cost.loadVecElems),
        cost.loadVecElems * elemBytes);

    auto regsOf = [](const LinearLayout &l) {
        return l.hasInDim(dims::kReg) ? l.getInDimSize(dims::kReg) : 1;
    };
    double storeInsts =
        std::max(1, regsOf(srcAligned) / cost.storeVecElems);
    double loadInsts =
        std::max(1, regsOf(dstAligned) / cost.loadVecElems);
    // A tile bigger than one CTA's budget runs in repeated passes, as
    // legacy Triton's repeated tiles do; each pays its own round trip.
    cost.passes = std::max<int64_t>(
        1, (cost.sharedBytes + spec.sharedMemPerCta - 1) /
               spec.sharedMemPerCta);
    cost.cycles = storeInsts * double(cost.storeWavefronts) *
                      spec.sharedWavefrontCycles +
                  loadInsts * double(cost.loadWavefronts) *
                      spec.sharedWavefrontCycles +
                  double(cost.passes) * spec.sharedRoundTripCycles;
    return cost;
}

std::pair<int, int>
legacyDotPassCounts(ir::DType a, ir::DType b)
{
    using ir::DType;
    struct Entry
    {
        DType a, b;
        int passed, total;
    };
    // Verbatim from Table 5 of the paper.
    static const Entry kTable[] = {
        {DType::I16, DType::F16, 32, 64},
        {DType::I16, DType::F32, 32, 32},
        {DType::I16, DType::F64, 32, 32},
        {DType::I16, DType::F8, 36, 96},
        {DType::I32, DType::F16, 32, 32},
        {DType::I32, DType::F64, 16, 32},
        {DType::I32, DType::F8, 18, 48},
        {DType::I64, DType::F16, 32, 32},
        {DType::I64, DType::F32, 16, 32},
        {DType::I64, DType::F8, 18, 48},
        {DType::I8, DType::F16, 36, 96},
        {DType::I8, DType::F32, 18, 48},
        {DType::I8, DType::F64, 18, 48},
        {DType::I8, DType::F8, 30, 144},
    };
    for (const Entry &e : kTable) {
        if ((e.a == a && e.b == b) || (e.a == b && e.b == a))
            return {e.passed, e.total};
    }
    llPanic("dtype pair not part of the Table 5 sweep");
}

} // namespace legacy
} // namespace ll
