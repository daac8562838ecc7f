#include "check/verify.h"

#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace check {

using codegen::ConversionKind;
using codegen::ConversionPlan;

namespace {
/** Run one planner entry point, turning an exception into a
 *  PlannerInternalError diagnostic attributed to `stage`. */
template <typename PlanFn>
Result<ConversionPlan>
planGuarded(const char *stage, PlanFn &&plan)
{
    try {
        return plan();
    } catch (const std::exception &e) {
        return makeDiag(DiagCode::PlannerInternalError, stage,
                        std::string("planner threw: ") + e.what());
    }
}

/** Re-plan below a non-terminal rung whose plan failed execution. */
Result<ConversionPlan>
replanBelow(ConversionKind failed, const LinearLayout &src,
            const LinearLayout &dst, int elemBytes,
            const sim::GpuSpec &spec)
{
    trace::Span span("plan.replan", "plan");
    static auto &replans = metrics::counter("plan.replans");
    replans.inc();
    auto result =
        codegen::tryPlanConversionBelow(failed, src, dst, elemBytes, spec);
    if (span.active()) {
        span.arg("below", toString(failed));
        span.arg("outcome",
                 result.ok() ? toString(result->kind) : "unplanned");
    }
    return result;
}
} // namespace

VerifiedPlan
verifyPlan(const LinearLayout &src, const LinearLayout &dst, int elemBytes,
           const sim::GpuSpec &spec)
{
    VerifiedPlan out(planGuarded("plan.verify", [&] {
        return codegen::tryPlanConversion(src, dst, elemBytes, spec);
    }));
    if (!out.plan.ok())
        return out;
    out.initialKind = out.plan->kind;
    while (true) {
        trace::Span iter("convert.demotion-iter", "plan");
        const std::string kind = toString(out.plan->kind);
        if (iter.active())
            iter.arg("kind", kind);
        auto fail =
            codegen::smokeExecutePlan(*out.plan, src, dst, elemBytes, spec);
        if (!fail.has_value()) {
            iter.arg("outcome", "smoke-ok");
            return out;
        }
        out.notes.push_back("convert:" + kind +
                            " execution failed: " + fail->toString());
        if (out.plan->kind == ConversionKind::SharedScalar) {
            // Nothing below the terminal rung to demote to.
            out.execFailed = true;
            iter.arg("outcome", "terminal-failure");
            return out;
        }
        auto replanned = planGuarded("plan.replan", [&] {
            return replanBelow(out.plan->kind, src, dst, elemBytes, spec);
        });
        if (!replanned.ok()) {
            out.notes.push_back("demoted re-plan failed: " +
                                replanned.diag().toString());
            out.execFailed = true;
            iter.arg("outcome", "replan-failure");
            return out;
        }
        ++out.demotions;
        out.plan = std::move(replanned);
        const std::string toKind = toString(out.plan->kind);
        if (iter.active()) {
            iter.arg("outcome", "demoted");
            iter.arg("to_kind", toKind);
        }
        out.notes.push_back("demoted to convert:" + toKind +
                            " after execution failure");
    }
}

} // namespace check
} // namespace ll
