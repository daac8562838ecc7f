#include "check/wavefront_reference.h"

#include "codegen/shared_exec.h"
#include "layout/dims.h"
#include "sim/memory_sim.h"

namespace ll {
namespace check {
namespace reference {

int64_t
enumerateWavefronts(const codegen::SwizzledShared &swz,
                    const LinearLayout &distIn, int elemBytes,
                    const sim::GpuSpec &spec)
{
    LinearLayout dist = codegen::canonicalIns(
        distIn.transposeOuts(swz.memLayout.getOutDimNames()));
    const int warpSize = dist.getInDimSize(dims::kLane);
    const int numWarps = dist.getInDimSize(dims::kWarp);
    const int accessBytes = swz.vecElems() * elemBytes;
    auto reps = codegen::registerGroupReps(swz, dist);
    const int64_t numElems = swz.memLayout.getTotalInDimSize();
    const int64_t window = swz.allocElems(numElems);
    const int64_t passes = swz.passesFor(numElems);
    int64_t total = 0;
    for (int64_t pass = 0; pass < passes; ++pass) {
        const int64_t lo = pass * window;
        for (int warp = 0; warp < numWarps; ++warp) {
            for (int32_t rep : reps) {
                auto offsets =
                    codegen::warpAccessOffsets(swz, dist, rep, warp, warpSize);
                std::vector<int64_t> byteAddrs;
                byteAddrs.reserve(offsets.size());
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

} // namespace reference
} // namespace check
} // namespace ll
