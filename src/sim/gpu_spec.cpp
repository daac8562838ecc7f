#include "sim/gpu_spec.h"

#include <bit>

#include "support/hash.h"

namespace ll {
namespace sim {

uint64_t
GpuSpec::fingerprint() const
{
    WordHash h;
    h.bytes(name);
    for (int v : {warpSize, numBanks, bankWidthBytes, maxVectorBits,
                  wavefrontBytes, sharedMemPerCta})
        h.word(static_cast<uint32_t>(v));
    h.word(uint64_t(hasLdmatrix) | uint64_t(hasStmatrix) << 1 |
           uint64_t(hasWgmma) << 2 | uint64_t(hasTma) << 3);
    for (double v : {sharedWavefrontCycles, shuffleCycles,
                     sharedRoundTripCycles, globalSectorCycles,
                     ldmatrixCyclesPerTile, mmaMacsPerCyclePerWarp,
                     aluOpsPerLanePerCycle})
        h.word(std::bit_cast<uint64_t>(v));
    return h.value();
}

GpuSpec
GpuSpec::rtx4090()
{
    GpuSpec s;
    s.name = "RTX4090";
    s.warpSize = 32;
    s.hasLdmatrix = true;
    s.hasStmatrix = false; // sm_89 has ldmatrix but no stmatrix
    s.hasWgmma = false;
    s.hasTma = false;
    s.sharedMemPerCta = 100 * 1024;
    s.mmaMacsPerCyclePerWarp = 512.0;
    s.globalSectorCycles = 2.0;
    return s;
}

GpuSpec
GpuSpec::gh200()
{
    GpuSpec s;
    s.name = "GH200";
    s.warpSize = 32;
    s.hasLdmatrix = true;
    s.hasStmatrix = true;
    s.hasWgmma = true;
    s.hasTma = true;
    s.sharedMemPerCta = 228 * 1024;
    s.mmaMacsPerCyclePerWarp = 1024.0;
    s.globalSectorCycles = 1.0;
    return s;
}

GpuSpec
GpuSpec::mi250()
{
    GpuSpec s;
    s.name = "MI250";
    s.warpSize = 64;
    s.hasLdmatrix = false;
    s.hasStmatrix = false;
    s.hasWgmma = false;
    s.hasTma = false;
    s.sharedMemPerCta = 64 * 1024;
    s.mmaMacsPerCyclePerWarp = 512.0;
    s.globalSectorCycles = 1.5;
    // CDNA2 shared memory: 64-lane wavefronts split into 32-lane halves;
    // modeled by the same bank counter with 32 banks.
    return s;
}

} // namespace sim
} // namespace ll
