/**
 * @file
 * Differential correctness oracle for conversion plans.
 *
 * The planner of Section 5.4 claims every lowering it emits — no-op,
 * register permute, warp shuffle, swizzled shared memory — moves every
 * tensor element to exactly the register the destination layout demands.
 * This module checks that claim the slow, trusted way: enumerate every
 * (register, lane, warp) index of the source layout, tag it with its
 * flattened tensor element (dense F2 matrix application, no simulator
 * shortcuts), execute the plan on that register file, and compare the
 * result element-for-element against the destination layout's demands.
 *
 * Shared-memory plans are additionally audited for bank conflicts: the
 * wavefronts the simulator measures while executing must equal the
 * enumerated totals the plan was priced with and, where Lemma 9.4
 * applies, its analytic per-access count. Any divergence is a bug in
 * either the cost model or the simulator, and fails the check.
 */

#ifndef LL_CHECK_ORACLE_H
#define LL_CHECK_ORACLE_H

#include <functional>
#include <string>

#include "check/generators.h"
#include "codegen/conversion.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"

namespace ll {
namespace check {

/** Everything one oracle run learned about one plan. */
struct OracleReport
{
    codegen::ConversionKind kind = codegen::ConversionKind::NoOp;

    /** Plan shape matched the layouts (register counts, warp sizes). */
    bool structureOk = true;
    int64_t elementsChecked = 0;
    /** Destination registers holding the wrong element. */
    int64_t mismatches = 0;
    /** Data movements that broke the plan kind's locality promise
     *  (register permutes leaving the thread, etc.). */
    int64_t localityViolations = 0;

    // Per-access bank-conflict audit (unpadded shared plans: the
    // Lemma 9.4 analytic numbers must match what the simulator measures
    // on every access).
    bool audited = false;
    int64_t analyticStorePerAccess = 0;
    int64_t analyticLoadPerAccess = 0;
    int64_t storeInstructions = 0;
    int64_t loadInstructions = 0;
    int64_t measuredStoreWavefronts = 0;
    int64_t measuredLoadWavefronts = 0;

    // Whole-pass totals audit (every shared kind; the only valid audit
    // for SharedPadded, where padding breaks Lemma 9.4's per-access
    // uniformity): the enumerated totals the plan was priced with must
    // equal the wavefronts the simulator measured.
    bool totalsAudited = false;
    int64_t plannedStoreTotal = 0;
    int64_t plannedLoadTotal = 0;

    /** Fast-vs-reference comparisons diffF2 made, per family. */
    struct F2Comparisons
    {
        int64_t matrix = 0;    ///< F2Matrix ops
        int64_t subspace = 0;  ///< EchelonBasis and the span functions
        int64_t applyFlat = 0; ///< LinearLayout::applyFlat
        int64_t wavefront = 0; ///< enumerateWavefronts, countWavefronts

        F2Comparisons &
        operator+=(const F2Comparisons &o)
        {
            matrix += o.matrix;
            subspace += o.subspace;
            applyFlat += o.applyFlat;
            wavefront += o.wavefront;
            return *this;
        }
    } f2Compared;
    /** Comparisons where a fast path disagreed with its reference. */
    int64_t f2Divergences = 0;

    /** Human-readable description of the first failure, if any. */
    std::string detail;

    bool
    wavefrontsDiverge() const
    {
        return audited &&
               (measuredStoreWavefronts !=
                    analyticStorePerAccess * storeInstructions ||
                measuredLoadWavefronts !=
                    analyticLoadPerAccess * loadInstructions);
    }

    bool
    totalsDiverge() const
    {
        return totalsAudited &&
               (measuredStoreWavefronts != plannedStoreTotal ||
                measuredLoadWavefronts != plannedLoadTotal);
    }

    bool
    ok() const
    {
        return structureOk && mismatches == 0 &&
               localityViolations == 0 && !wavefrontsDiverge() &&
               !totalsDiverge() && f2Divergences == 0;
    }

    std::string toString() const;
};

/**
 * Verify one already-planned conversion. Layouts must be surjective
 * distributed-style layouts with register/lane/warp input dims over the
 * same output space.
 */
OracleReport checkPlan(const codegen::ConversionPlan &plan,
                       const LinearLayout &src, const LinearLayout &dst,
                       int elemBytes, const sim::GpuSpec &spec);

/** Hook to corrupt a plan between planning and checking (bug-injection
 *  self tests and shrinking of injected failures). */
using PlanMutator = std::function<void(codegen::ConversionPlan &)>;

/** Plan the case's conversion, optionally mutate the plan, then check.
 *  The case's failpoint set is active for the duration of planning and
 *  checking. Exceptions from planning/execution propagate to the
 *  caller. */
OracleReport checkConversionCase(const ConversionCase &c,
                                 const PlanMutator &mutate = nullptr);

/** A demotion-aware oracle run: what happened on the way down. */
struct DemotionReport
{
    /** The rung the planner picked before any execution failure. */
    codegen::ConversionKind initialKind = codegen::ConversionKind::NoOp;
    /** The rung whose execution finally succeeded (== the checked
     *  plan's kind), or the last rung that failed when !survived. */
    codegen::ConversionKind finalKind = codegen::ConversionKind::NoOp;
    /** Execution-triggered demotion steps taken. */
    int demotions = 0;
    /** False when execution failed on the terminal rung or a demoted
     *  re-plan could not be built; `report` is then default-initialized
     *  and must not be trusted. */
    bool survived = true;
    /** The full oracle verdict on the finally-executed plan. */
    OracleReport report;
    /** Execution failures, demotions and re-plan failures on the way
     *  (codegen::VerifiedPlan::notes). */
    std::vector<std::string> notes;
};

/**
 * Run one conversion case through codegen::planAndVerify — the same
 * plan -> smoke -> demote routine the engine and the service use —
 * under the case's failpoint set, then audit the surviving plan with
 * the full oracle. This is how the exec-fallback tests prove a demoted
 * re-plan still round-trips bit-exactly. Planning failures raise
 * UserError, like checkConversionCase.
 */
DemotionReport checkCaseWithDemotion(const ConversionCase &c);

/**
 * The word-parallel F2 core against its scalar `*_reference` twins,
 * called directly. Plans the case under its failpoints, then compares
 * every fast/reference pair on inputs taken from the case: the F2
 * matrices of src, dst, their conversion map and the shared plan's
 * memLayout (apply, transpose, multiply, rank, kernelBasis, solve,
 * rightInverse), EchelonBasis and the span functions on those
 * matrices' columns, applyFlat on every flat index of src and dst, and
 * for shared plans enumerateWavefronts and countWavefronts on both
 * sides. Counts land in f2Compared; the first divergence in detail.
 */
OracleReport diffF2(const ConversionCase &c);

/**
 * The canonical injected bug: zero the first nonzero basis vector of the
 * plan's tensor->offset map, aliasing two tensor elements onto one
 * shared-memory address — the classic dropped-swizzle-bit codegen bug.
 * Returns false (and leaves the plan alone) for non-shared plans.
 */
bool injectSwizzleAliasBug(codegen::ConversionPlan &plan);

} // namespace check
} // namespace ll

#endif // LL_CHECK_ORACLE_H
