/**
 * @file
 * The per-element warp-shuffle builder (Section 5.4): the reference
 * twin of codegen::planWarpShuffle.
 *
 * The planner stores a shuffle plan as the F2 map from transfer index to
 * packed (srcReg, srcLane, dstReg) word and proves it feasible with one
 * rank test. This builder is the construction that map replaced: it
 * visits every warp-0 element, files it under its (round, destination
 * lane, V-slot) and re-proves the theorem element by element. No
 * production code calls it; the shuffle differential test and
 * plan_audit hold the planner's decision, diagnostic and decoded table
 * to it.
 */

#ifndef LL_CHECK_SHUFFLE_REFERENCE_H
#define LL_CHECK_SHUFFLE_REFERENCE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "codegen/shuffle.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/result.h"

namespace ll {
namespace check {

/** One lane's receive action in one shuffle round. */
struct ShuffleReceive
{
    int32_t srcLane = -1;
    /** (source register in A, destination register in B) per V-slot. */
    std::vector<std::pair<int32_t, int32_t>> regPairs;
};

/** A shuffle plan as a materialized per-lane table. */
struct ShuffleTable
{
    int vecElems = 1;
    int rounds = 0;
    int numRegsA = 0;
    int numRegsB = 0;
    int warpSize = 0;
    /** receives[round][dstLane]: what each lane receives. */
    std::vector<std::vector<ShuffleReceive>> receives;
};

/**
 * The table planWarpShuffle(a, b, elemBytes, spec) describes, built
 * element by element, or the planner's diagnostic when it rejects.
 */
Result<ShuffleTable> shuffleTable_reference(const LinearLayout &a,
                                            const LinearLayout &b,
                                            int elemBytes,
                                            const sim::GpuSpec &spec);

/**
 * Empty when `plan` and `table`, the planner's and the reference's
 * outcome for the same conversion, agree: both reject with the same
 * code, stage and text, or both accept with the same sizes, the same
 * number of rounds in which some lane reads another lane, and the same
 * (srcLane, srcReg, dstReg) at every (round, lane, slot). Otherwise the
 * first disagreement.
 */
std::string diffShuffleTable(const Result<codegen::WarpShufflePlan> &plan,
                             const Result<ShuffleTable> &table);

} // namespace check
} // namespace ll

#endif // LL_CHECK_SHUFFLE_REFERENCE_H
