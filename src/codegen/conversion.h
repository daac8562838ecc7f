/**
 * @file
 * Layout-conversion lowering selector (Sections 5.3-5.4).
 *
 * Given source and destination distributed layouts, pick the cheapest
 * correct lowering, mirroring the decision procedure linear layouts
 * enable in Triton:
 *
 *   1. no-op            — B^-1 . A is the identity modulo broadcast;
 *   2. register permute — data never leaves its thread;
 *   3. warp shuffles    — data never leaves its warp (and no broadcast);
 *   4. shared memory    — general case, through an optimally swizzled
 *                         scratch layout, with ldmatrix/stmatrix when
 *                         the hardware has them and the tiles divide;
 *                         a tile bigger than the CTA budget keeps its
 *                         swizzle and runs in windowed passes;
 *   5. padded shared    — unswizzled row-major scratch with bank-offset
 *                         padding, when no swizzle basis can be built;
 *   6. scalar shared    — element-wise round trip, correct for any pair
 *                         of surjective layouts, windowed like rung 4
 *                         when the tile does not fit; the terminal
 *                         rung.
 *
 * Rungs 4-6 form a fallback ladder: planning is a total function over
 * valid inputs. A rung that cannot be built (degenerate basis, failed
 * invariant, injected failpoint) contributes a Diagnostic to the plan's
 * notes and the planner steps down; only invalid *inputs* are rejected,
 * and only via the structured tryPlanConversion interface or the
 * UserError-throwing planConversion wrapper.
 *
 * The returned plan carries enough detail for the simulator to execute
 * it on data and for the cost model to price it, plus the diagnostics
 * explaining every rung that was skipped on the way down.
 */

#ifndef LL_CODEGEN_CONVERSION_H
#define LL_CODEGEN_CONVERSION_H

#include <optional>
#include <string>
#include <vector>

#include "codegen/shuffle.h"
#include "codegen/swizzle.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/result.h"

namespace ll {
namespace codegen {

enum class ConversionKind
{
    NoOp,
    RegisterPermute,
    WarpShuffle,
    SharedMemory,
    SharedPadded,
    SharedScalar,
};

std::string toString(ConversionKind kind);

/** Inverse of toString; empty for unrecognized spellings. */
std::optional<ConversionKind> parseConversionKind(const std::string &s);

struct ConversionPlan
{
    ConversionKind kind = ConversionKind::NoOp;

    /** Present when kind == WarpShuffle. */
    std::optional<WarpShufflePlan> shuffle;

    /** Present for the shared-memory kinds (SharedMemory, SharedPadded,
     *  SharedScalar). */
    std::optional<SwizzledShared> shared;
    bool usesLdmatrix = false;
    bool usesStmatrix = false;
    /** Enumerated whole-pass wavefront totals (warps x register groups);
     *  filled for every shared kind. The oracle audits them, and
     *  audits Lemma 9.4's per-access count separately where it
     *  applies (check::checkPlan). */
    int64_t storeWavefrontsTotal = 0;
    int64_t loadWavefrontsTotal = 0;

    /**
     * Why the planner ended up on this rung: one note per rung that was
     * tried and skipped above the selected one. Empty when the first
     * applicable rung was taken without incident.
     */
    PlanDiagnostics diagnostics;

    /**
     * Modeled cost in cycles for converting one CTA worth of data.
     * numWarps warps each hold regs-per-thread elements.
     *
     * The plan's one cost: rung 4's candidate choice, the engine's
     * cost model, layout synthesis and traces all read it. The shared
     * kinds are priced by storeWavefrontsTotal + loadWavefrontsTotal
     * serialized per warp plus one round-trip barrier per pass — the
     * totals smokeExecutePlan audits — with the ldmatrix/stmatrix
     * discount applied only where it is cheaper.
     */
    double estimateCycles(const LinearLayout &src, int elemBytes,
                          const sim::GpuSpec &spec) const;
};

/**
 * Plan the conversion of a tensor from layout `src` to layout `dst`
 * (both distributed layouts over the same logical tensor), stepping
 * down the fallback ladder as rungs fail. Total over valid inputs: a
 * Diagnostic comes back only for invalid inputs
 * (DiagCode::InvalidInput — mismatched output spaces, non-distributed
 * in-dims, unsupported element size, non-surjective layouts) or if
 * every rung including the terminal scalar one was disabled (only
 * reachable by failpoint injection).
 */
Result<ConversionPlan> tryPlanConversion(const LinearLayout &src,
                                         const LinearLayout &dst,
                                         int elemBytes,
                                         const sim::GpuSpec &spec);

/**
 * Throwing convenience wrapper over tryPlanConversion: raises UserError
 * carrying the Diagnostic text when planning fails.
 */
ConversionPlan planConversion(const LinearLayout &src,
                              const LinearLayout &dst, int elemBytes,
                              const sim::GpuSpec &spec);

/**
 * Re-plan after an execution failure of a plan of kind `failed`: resume
 * the fallback ladder at the rung strictly below it, without evaluating
 * (or even opening spans for) the rungs at or above. This is what the
 * engine's execution-triggered demotion uses; it is equivalent to
 * re-running tryPlanConversion under the demotionSitesFor(failed)
 * knockout set, minus the wasted rung evaluations and the
 * FailpointInjected notes that knockout would leave in the plan's
 * diagnostics. Returns a Diagnostic when `failed` is the terminal
 * SharedScalar rung (nowhere left to demote to) or when every remaining
 * rung also fails.
 */
Result<ConversionPlan> tryReplanBelow(ConversionKind failed,
                                      const LinearLayout &src,
                                      const LinearLayout &dst,
                                      int elemBytes,
                                      const sim::GpuSpec &spec);

/**
 * Every failpoint site the planner consults, in ladder order, minus the
 * terminal "plan.scalar" (activating that together with the rest leaves
 * no rung standing, which is an engine-survival scenario rather than a
 * fallback one). Used by llfuzz --failpoint-rate and the fallback tests.
 */
std::vector<std::string> plannerFailpointSites();

/**
 * Every failpoint site the Result-returning executors consult
 * (exec.shuffle.*, exec.gather.*, exec.shared.*). These guard the
 * execution-time error paths rather than planning rungs; activating one
 * with a limit of 1 fails exactly one execution attempt, so a demoted
 * re-plan's smoke execution succeeds. Used by llfuzz
 * --failpoint-coverage and the exec-fallback tests.
 */
std::vector<std::string> executionFailpointSites();

/**
 * The planner-failpoint knockout set that forces a re-plan strictly
 * below `kind` on the fallback ladder (every rung at or above it is
 * disabled). Empty for SharedScalar: the terminal rung has nowhere to
 * demote to, so an execution failure there is an engine failure.
 */
std::vector<std::string> demotionSitesFor(ConversionKind kind);

/**
 * Execute `plan` once on tagged data to prove its executors are sound
 * for these layouts: WarpShuffle runs its shuffle schedule for warp 0
 * (the schedule is warp-invariant), the shared kinds run
 * executeSharedConversion — the full simulated round trip, with every
 * destination register required to hold its own tensor coordinate (a
 * mismatch is a DataMismatch at stage "exec.shared.verify") — and then
 * check that the measured store/load wavefronts equal
 * the plan's storeWavefrontsTotal/loadWavefrontsTotal (a CostMismatch at
 * stage "exec.shared.cost"). NoOp and RegisterPermute have no executor
 * and trivially pass. Returns the first failure, or nullopt when
 * execution succeeded. The full audit — Lemma 9.4, every kind's data —
 * stays the oracle's job (src/check).
 */
std::optional<ExecDiagnostic>
smokeExecutePlan(const ConversionPlan &plan, const LinearLayout &src,
                 const LinearLayout &dst, int elemBytes,
                 const sim::GpuSpec &spec);

/** What planAndVerify made of one conversion. */
struct VerifiedPlan
{
    explicit VerifiedPlan(Result<ConversionPlan> planned)
        : plan(std::move(planned))
    {
    }

    /** The plan whose smoke execution passed or, when `execFailed`,
     *  the last plan whose execution failed (kept for diagnosis). A
     *  Diagnostic only when the initial planning failed. */
    Result<ConversionPlan> plan;
    /** The rung the planner picked before any execution failure. */
    ConversionKind initialKind = ConversionKind::NoOp;
    /** Execution-triggered demotion steps taken. */
    int demotions = 0;
    /** No rung survived execution: the terminal rung failed, or a
     *  demoted re-plan could not be built. */
    bool execFailed = false;
    /** One line per execution failure, demotion and failed re-plan, in
     *  the order they happened. */
    std::vector<std::string> notes;

    bool verified() const { return plan.ok() && !execFailed; }
};

/**
 * The one plan -> smoke -> demote routine every conversion goes
 * through (the layout engine via the service, the service itself, the
 * check oracles and llstat). Plans with tryPlanConversion (a planner
 * exception becomes a PlannerInternalError diagnostic), smoke-executes
 * the plan, and on an ExecDiagnostic resumes the ladder strictly below
 * the failing rung with tryReplanBelow until a rung survives. The
 * resume point moves strictly toward the terminal scalar rung, so the
 * loop terminates. Never throws on planner or executor trouble.
 *
 * Span: "convert.demotion-iter" per smoke execution, with "kind" and an
 * "outcome" of smoke-ok | demoted | terminal-failure | replan-failure.
 */
VerifiedPlan planAndVerify(const LinearLayout &src, const LinearLayout &dst,
                           int elemBytes, const sim::GpuSpec &spec);

/**
 * Deterministic, exhaustive rendering of a plan: kind, the shuffle
 * schedule digest (vec/rounds/regs plus a checksum over every
 * transfer), the shared scratch layouts with padding and window
 * parameters, ldmatrix/stmatrix selection, wavefront accounting, and
 * the diagnostic notes. Two plans render identically iff they describe
 * the same lowering, so cached plans can be compared bit-for-bit
 * against freshly planned ones. Plans are immutable after planning
 * (every member function is const), which is what lets the service
 * share one `shared_ptr<const ConversionPlan>` across threads.
 */
std::string describePlan(const ConversionPlan &plan);

} // namespace codegen
} // namespace ll

#endif // LL_CODEGEN_CONVERSION_H
