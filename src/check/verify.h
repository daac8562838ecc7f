/**
 * @file
 * Execution-triggered demotion, off the compile path.
 *
 * The engine and the service ship the plan codegen::tryPlanConversion
 * returns: the paper's lowerings are correct by construction, so
 * re-executing every plan at compile time is test machinery. This is
 * that machinery. verifyPlan plans a conversion, smoke-executes the
 * plan on the simulator (codegen::smokeExecutePlan) and, when an
 * executor fails, demotes one rung further down the fallback ladder
 * until a rung survives. The oracle (checkCaseWithDemotion), the cute
 * oracle, llstat, llfuzz and the plan_audit test call it; on healthy
 * executors it ends on the very plan the engine ships.
 */

#ifndef LL_CHECK_VERIFY_H
#define LL_CHECK_VERIFY_H

#include <string>
#include <vector>

#include "codegen/conversion.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/result.h"

namespace ll {
namespace check {

/** What verifyPlan made of one conversion. */
struct VerifiedPlan
{
    explicit VerifiedPlan(Result<codegen::ConversionPlan> planned)
        : plan(std::move(planned))
    {
    }

    /** The plan whose smoke execution passed or, when `execFailed`,
     *  the last plan whose execution failed (kept for diagnosis). A
     *  Diagnostic only when the initial planning failed. */
    Result<codegen::ConversionPlan> plan;
    /** The rung the planner picked before any execution failure. */
    codegen::ConversionKind initialKind = codegen::ConversionKind::NoOp;
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
 * Plan with codegen::tryPlanConversion (a planner exception becomes a
 * PlannerInternalError diagnostic), smoke-execute the plan, and on an
 * ExecDiagnostic resume the ladder strictly below the failing rung with
 * codegen::tryPlanConversionBelow until a rung survives. The resume
 * point moves strictly toward the terminal scalar rung, so the loop
 * terminates. Never throws on planner or executor trouble.
 *
 * Spans: "convert.demotion-iter" per smoke execution, with "kind" and an
 * "outcome" of smoke-ok | demoted | terminal-failure | replan-failure;
 * "plan.replan" per demoted re-plan, counted in "plan.replans".
 */
VerifiedPlan verifyPlan(const LinearLayout &src, const LinearLayout &dst,
                        int elemBytes, const sim::GpuSpec &spec);

} // namespace check
} // namespace ll

#endif // LL_CHECK_VERIFY_H
