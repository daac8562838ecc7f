/**
 * @file
 * Executable shared-memory layout conversion.
 *
 * Runs a conversion plan's shared-memory path on the simulator: every
 * warp stores its fragment through the swizzled layout, then loads it
 * back in the destination layout, while the simulator counts
 * transactions and bank-conflict wavefronts. There is one executor,
 * runSharedRoundTrip, which moves an explicit source register file;
 * executeSharedConversion runs it on tagged registers (each holds its
 * own flattened tensor index) and verifies that every element lands in
 * exactly the register that the destination layout demands — the
 * correctness oracle behind the Figure 2, Table 5 and Figure 7
 * experiments and the planner's smoke run.
 */

#ifndef LL_CODEGEN_SHARED_EXEC_H
#define LL_CODEGEN_SHARED_EXEC_H

#include "codegen/swizzle.h"
#include "layout/linear_layout.h"
#include "sim/memory_sim.h"
#include "support/result.h"

namespace ll {
namespace codegen {

/** The data produced by one simulated shared round trip. */
struct SharedRoundTrip
{
    /** Values each destination register ends up holding, indexed by the
     *  flat dst input index; sim::SharedMemory::kPoison where no load
     *  reached the register. */
    std::vector<uint64_t> dstFile;
    sim::AccessStats storeStats;
    sim::AccessStats loadStats;
};

/**
 * Execute the shared round trip on an *explicit* source register file:
 * srcFile[flat src input index] holds the payload that thread register
 * carries. Nothing about the payloads is derived from the swizzle, so a
 * corrupted address map cannot self-consistently hide — aliased stores
 * lose data and stale cells surface as kPoison. Both layouts must have
 * their input dims in canonical (register, lane, warp) order
 * (canonicalIns); each side's warp size is its own lane-dim size. A
 * windowed swizzle (windowElems > 0) runs in multiple store+load passes
 * through one window-sized allocation, masking lanes whose offsets fall
 * outside the current window; an access whose lanes fit one window
 * (WarpAccessTable::lanesFit) is visited only in that window's pass,
 * with the same stores, loads, stats and masked-lane count as visiting
 * it in every pass. Total over any input: a mismatched register file,
 * an oversize allocation, an out-of-window offset, or a blown
 * bank-conflict budget comes back as an ExecDiagnostic instead of
 * aborting, so the check that runs the plan fails on it. Stages:
 * "exec.shared.file-size" (PlanShapeMismatch), "exec.shared.alloc"
 * and "exec.shared.window" (SharedWindowOverflow),
 * "exec.shared.bank-budget" (BankBudgetExceeded).
 */
Result<SharedRoundTrip, ExecDiagnostic>
runSharedRoundTrip(const SwizzledShared &swz, const LinearLayout &src,
                   const LinearLayout &dst,
                   const std::vector<uint64_t> &srcFile, int elemBytes,
                   const sim::GpuSpec &spec);

/**
 * Execute src -> shared(swz) -> dst for the whole tensor and verify
 * element placement: runSharedRoundTrip on flatImage(src), with every
 * dst register required to hold its own flatImage(dst) entry. Layouts
 * must be surjective over the same output space, in any input-dim
 * order. A register that loads poison or another element comes back
 * as ExecError::DataMismatch at stage "exec.shared.verify"; every other
 * failure is runSharedRoundTrip's.
 */
Result<SharedRoundTrip, ExecDiagnostic>
executeSharedConversion(const SwizzledShared &swz, const LinearLayout &src,
                        const LinearLayout &dst, int elemBytes,
                        const sim::GpuSpec &spec);

/** `layout` with its input dims in (register, lane, warp) order, adding
 *  size-1 dims where missing: the form the shared executor and the
 *  warp access tables take. */
LinearLayout canonicalIns(const LinearLayout &layout);

/**
 * applyFlat of every input index of `layout`, in input order, by one
 * prefix-XOR sweep over its columns: the tagged register file
 * executeSharedConversion stores (for src) and must load back (for dst).
 */
std::vector<uint64_t> flatImage(const LinearLayout &layout);

} // namespace codegen
} // namespace ll

#endif // LL_CODEGEN_SHARED_EXEC_H
