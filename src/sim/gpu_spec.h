/**
 * @file
 * Parameterized GPU model descriptions.
 *
 * The paper evaluates on NVIDIA RTX4090 (Ada), NVIDIA GH200 (Hopper), and
 * AMD MI250 (CDNA2) — Table 2. No GPU is available in this environment,
 * so every experiment runs against a counting model of the relevant
 * microarchitectural mechanisms: shared-memory banks and wavefront
 * serialization, global-memory coalescing, warp shuffles, and the
 * presence/absence of specialized instructions (ldmatrix/stmatrix/wgmma)
 * that the paper's speedups hinge on. All measured effects in the paper
 * are counted quantities (transactions, wavefronts, instructions), so the
 * model preserves the comparative shapes even though absolute times
 * differ from silicon.
 */

#ifndef LL_SIM_GPU_SPEC_H
#define LL_SIM_GPU_SPEC_H

#include <cstdint>
#include <string>

namespace ll {
namespace sim {

struct GpuSpec
{
    std::string name;

    int warpSize = 32;
    int numBanks = 32;
    int bankWidthBytes = 4;
    /** Maximum vector width of a single shared-memory access. */
    int maxVectorBits = 128;
    /** Maximum bytes a single shared-memory wavefront can service. */
    int wavefrontBytes = 128;

    bool hasLdmatrix = false;
    bool hasStmatrix = false;
    bool hasWgmma = false;
    /** Tensor memory accelerator (bulk async copies). */
    bool hasTma = false;

    /** Shared memory available to one CTA, in bytes. */
    int sharedMemPerCta = 48 * 1024;

    // --- cost model (cycles) -------------------------------------------
    /** Issue cost of one shared-memory wavefront. */
    double sharedWavefrontCycles = 1.0;
    /** Issue cost of one warp-shuffle instruction. */
    double shuffleCycles = 1.0;
    /** Extra latency of a round trip through shared memory vs registers
     *  (amortized per conversion, models the barrier + ld/st latency). */
    double sharedRoundTripCycles = 30.0;
    /** Cost of one 32-byte global-memory sector access. */
    double globalSectorCycles = 2.0;
    /** ldmatrix moves a full 8x8 tile per issue: effective discount vs
     *  plain vectorized shared loads. */
    double ldmatrixCyclesPerTile = 2.0;
    /** Tensor-core multiply-accumulates per warp per cycle (16-bit). */
    double mmaMacsPerCyclePerWarp = 512.0;
    /** Plain ALU ops per lane per cycle. */
    double aluOpsPerLanePerCycle = 1.0;

    static GpuSpec rtx4090();
    static GpuSpec gh200();
    static GpuSpec mi250();

    /**
     * Value identity over every field (name, geometry, feature flags,
     * cost-model constants), hashed a word at a time (support/hash.h).
     * Two specs with equal fingerprints plan identically, so the
     * service-layer plan cache uses this as the GpuSpec component of
     * its keys; a tweaked cost constant changes the fingerprint and
     * naturally misses the cache. In-memory keys only: never persist
     * it.
     */
    uint64_t fingerprint() const;
};

} // namespace sim
} // namespace ll

#endif // LL_SIM_GPU_SPEC_H
