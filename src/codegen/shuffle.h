/**
 * @file
 * Warp-shuffle layout conversion (Section 5.4, "Intra-warp Data
 * Exchange").
 *
 * When the conversion map B^-1 . A keeps warps fixed, data can move
 * between layouts A and B entirely through registers and warp shuffles,
 * bypassing shared memory (the FlashAttention-3 trick the paper
 * generalizes). The plan construction follows the paper exactly:
 *
 *   V  — vectorized register basis shared by A and B (per-shuffle
 *        payload, capped at 32 bits);
 *   I  — thread basis common to A and B (no movement needed);
 *   E/F — thread bases unique to A resp. B; G = { e_i xor f_i } spans
 *        the exchange directions;
 *   R  — completion of V u I u G inside the warp-0 element space; each
 *        of the 2^|R| affine slices R(i) + span(V u I u G) holds exactly
 *        one vectorized element per thread of A and per thread of B, and
 *        is exchanged in one shuffle round.
 *
 * The resulting plan is fully concrete — per round and destination lane
 * it records the source lane and the register pairs — so the simulator
 * can execute it on data and the tests can verify every element lands
 * where layout B demands.
 */

#ifndef LL_CODEGEN_SHUFFLE_H
#define LL_CODEGEN_SHUFFLE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/result.h"

namespace ll {
namespace codegen {

/** One lane's receive action in one shuffle round. */
struct ShuffleXfer
{
    int32_t srcLane = -1;
    /** (source register in A, destination register in B) pairs; the
     *  vectorized payload of this round. */
    std::vector<std::pair<int32_t, int32_t>> regPairs;
};

struct WarpShufflePlan
{
    int vecElems = 1; ///< elements exchanged per shuffle (2^|V|)
    int rounds = 0;   ///< 2^|R| shuffle rounds
    /** xfers[round][dstLane]: what each lane receives. Identical for
     *  every warp (the conversion is warp-invariant by construction). */
    std::vector<std::vector<ShuffleXfer>> xfers;
    int numRegsA = 0;
    int numRegsB = 0;
    int warpSize = 0;

    /**
     * Warp-level shuffle instructions issued: rounds where at least one
     * lane receives from another lane cost ceil(payloadBytes / 4)
     * shuffles; all-local rounds are register moves and cost zero.
     */
    int64_t countShuffleInstructions(int elemBytes) const;

    /**
     * Execute on one warp's register file: src[lane][regA] are the
     * values held under layout A; returns values arranged per layout B.
     * Total over any input: a malformed register file or a corrupted
     * plan comes back as an ExecDiagnostic (PlanShapeMismatch at stage
     * "exec.shuffle.shape", LaneOutOfRange at "exec.shuffle.lane-range",
     * RegisterOutOfRange at "exec.shuffle.reg-range") instead of
     * aborting, so the check that runs the plan fails on it.
     */
    Result<std::vector<std::vector<uint64_t>>, ExecDiagnostic>
    execute(const std::vector<std::vector<uint64_t>> &src) const;
};

/**
 * Build a shuffle plan converting layout A to layout B. Returns a
 * Diagnostic instead when the rung does not apply
 * (DiagCode::ShuffleNotApplicable — the conversion crosses warps, or
 * layouts broadcast, which the shared-memory path handles instead) or
 * when the exchange structure cannot be proven safe
 * (DiagCode::ShuffleDegenerate). Never throws for valid distributed
 * layouts; the failpoint site "shuffle.pair-basis" forces the
 * degenerate outcome for testing.
 */
Result<WarpShufflePlan> planWarpShuffle(const LinearLayout &a,
                                        const LinearLayout &b,
                                        int elemBytes,
                                        const sim::GpuSpec &spec);

/**
 * True when B^-1 . A is the identity modulo broadcast bits: the
 * conversion is a no-op (the welford case in Section 6.2).
 */
bool conversionIsNoOp(const LinearLayout &a, const LinearLayout &b);

/**
 * True when the conversion only permutes registers within each thread
 * (the intra-thread case of Section 5.4).
 */
bool conversionIsRegisterPermute(const LinearLayout &a,
                                 const LinearLayout &b);

/** True when the conversion keeps data within warps. */
bool conversionIsIntraWarp(const LinearLayout &a, const LinearLayout &b);

} // namespace codegen
} // namespace ll

#endif // LL_CODEGEN_SHUFFLE_H
