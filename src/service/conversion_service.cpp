#include "service/conversion_service.h"

#include "support/trace.h"

namespace ll {
namespace service {

ConversionOutcome
outcomeFromCache(const CachedPlan &hit)
{
    ConversionOutcome out;
    out.fromCache = true;
    out.plan = hit.plan;
    return out;
}

ConversionOutcome
serveConversion(PlanCache *cache, const LinearLayout &src,
                const LinearLayout &dst, int elemBytes,
                const sim::GpuSpec &spec)
{
    trace::Span span("service.conversion", "service");
    std::optional<PlanKey> key;
    if (cache != nullptr) {
        key = cache->key(src, dst, elemBytes, spec);
        if (auto hit = cache->lookup(*key)) {
            span.arg("outcome", "cache-hit");
            return outcomeFromCache(*hit);
        }
    }

    return planAndPublish(cache, key ? &*key : nullptr, src, dst,
                          elemBytes, spec);
}

ConversionOutcome
planAndPublish(PlanCache *cache, const PlanKey *key,
               const LinearLayout &src, const LinearLayout &dst,
               int elemBytes, const sim::GpuSpec &spec)
{
    trace::Span span("service.conversion.plan", "service");
    ConversionOutcome out;

    auto planned = [&]() -> Result<codegen::ConversionPlan> {
        try {
            return codegen::tryPlanConversion(src, dst, elemBytes, spec);
        } catch (const std::exception &e) {
            return makeDiag(DiagCode::PlannerInternalError,
                            "service.conversion",
                            std::string("planner threw: ") + e.what());
        }
    }();
    if (!planned.ok()) {
        out.error = planned.diag().toString();
        span.arg("outcome", "plan-failed");
        return out;
    }

    out.plan = std::make_shared<const codegen::ConversionPlan>(
        std::move(*planned));
    if (key)
        cache->insert(*key, out.plan);
    span.arg("outcome", "planned");
    return out;
}

} // namespace service
} // namespace ll
