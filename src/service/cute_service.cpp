#include "service/cute_service.h"

#include "service/conversion_service.h"
#include "support/trace.h"

namespace ll {
namespace service {

CuteConversionOutcome
serveCuteConversion(PlanCache *cache,
                    const cute::CuteConversionRequest &req,
                    const sim::GpuSpec &spec)
{
    trace::Span span("service.cute", "service");
    CuteConversionOutcome out;

    auto factored = [&]() -> Result<cute::CutePlan> {
        try {
            return cute::decomposeCuteConversion(req, spec);
        } catch (const std::exception &e) {
            return makeDiag(DiagCode::PlannerInternalError,
                            "service.cute",
                            std::string("decomposition threw: ") +
                                e.what());
        }
    }();
    if (!factored.ok()) {
        out.error = factored.diag().toString();
        span.arg("outcome", "invalid");
        return out;
    }
    cute::CutePlan plan = std::move(*factored);
    out.decomposed = plan.remainderElems > 0;

    if (!plan.needsCorePlan()) {
        out.plan = std::move(plan);
        span.arg("outcome", "scalar-only");
        return out;
    }

    // The core pair is an ordinary (src, dst, elemBytes, spec) request:
    // interned keys, sharded cache, singleflight-compatible.
    auto core = serveConversion(cache, plan.coreSrc, plan.coreDst,
                                req.elemBytes, spec);
    out.coreFromCache = core.fromCache;
    if (!core.plan) {
        out.error = core.error;
        span.arg("outcome", "core-plan-failed");
        return out;
    }
    plan.corePlan = *core.plan;
    plan.hasCorePlan = true;
    out.plan = std::move(plan);
    span.arg("outcome", out.decomposed ? "decomposed" : "bridged");
    return out;
}

} // namespace service
} // namespace ll
