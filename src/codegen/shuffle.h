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
 * The plan stores that construction as one F2 map, from the transfer
 * index `slot | dstLane << v | round << (v + laneLog)` to the packed
 * word `srcReg | srcLane << regLogA | dstReg << (regLogA + laneLog)`:
 * dw columns, one per index bit. transfer() decodes any (round, lane,
 * slot), so the simulator can execute the plan on data and the tests
 * can verify every element lands where layout B demands.
 */

#ifndef LL_CODEGEN_SHUFFLE_H
#define LL_CODEGEN_SHUFFLE_H

#include <cstdint>
#include <vector>

#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/result.h"

namespace ll {
namespace codegen {

/** One payload element of one lane's receive in one shuffle round. */
struct ShuffleTransfer
{
    int32_t srcLane = 0;
    int32_t srcReg = 0; ///< register in A read on srcLane
    int32_t dstReg = 0; ///< register in B written on the receiving lane

    bool operator==(const ShuffleTransfer &) const = default;
};

struct WarpShufflePlan
{
    int vecElems = 1; ///< elements exchanged per shuffle (2^|V|)
    int rounds = 0;   ///< 2^|R| shuffle rounds
    int numRegsA = 0;
    int numRegsB = 0;
    int warpSize = 0;
    /**
     * columns[k] is the packed word of transfer index 1 << k; the word
     * of any index is the xor of the columns of its set bits. Identical
     * for every warp (the conversion is warp-invariant by
     * construction).
     */
    std::vector<uint64_t> columns;

    /** Decode the transfer of payload `slot` that `lane` receives in
     *  `round`. srcReg and srcLane are masked to A's register file and
     *  the warp; dstReg is everything above them, so a corrupted column
     *  can decode past B's register file. */
    ShuffleTransfer transfer(int round, int lane, int slot) const;

    /** Rounds in which some lane receives from another lane. */
    int communicatingRounds() const;

    /**
     * Warp-level shuffle instructions issued: communicating rounds cost
     * ceil(payloadBytes / 4) shuffles; all-local rounds are register
     * moves and cost zero.
     */
    int64_t countShuffleInstructions(int elemBytes) const;

    /**
     * Execute on one warp's register file: src[lane][regA] are the
     * values held under layout A; returns values arranged per layout B.
     * Total over any input: a malformed register file or a corrupted
     * plan comes back as an ExecDiagnostic (PlanShapeMismatch at stage
     * "exec.shuffle.shape", RegisterOutOfRange at
     * "exec.shuffle.reg-range") instead of aborting, so the check that
     * runs the plan fails on it.
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
