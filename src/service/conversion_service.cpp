#include "service/conversion_service.h"

#include "support/trace.h"

namespace ll {
namespace service {

ConversionOutcome
outcomeFromCache(const CachedPlan &hit)
{
    ConversionOutcome out;
    out.fromCache = true;
    if (hit.negative()) {
        out.cachedRejection = true;
        out.error = hit.rejection->toString();
    } else {
        out.plan = hit.plan;
    }
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
            span.arg("outcome",
                     hit->negative() ? "cached-rejection" : "cache-hit");
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

    auto verified = codegen::planAndVerify(src, dst, elemBytes, spec);
    if (!verified.plan.ok()) {
        out.error = verified.plan.diag().toString();
        if (key)
            cache->insertRejection(*key, verified.plan.diag());
        span.arg("outcome", "plan-failed");
        return out;
    }

    out.plan = std::make_shared<const codegen::ConversionPlan>(
        std::move(*verified.plan));
    out.demotions = verified.demotions;
    out.notes = std::move(verified.notes);
    if (verified.execFailed) {
        out.execFailed = true;
        out.error = out.notes.back();
        span.arg("outcome", "exec-failed");
        return out;
    }

    // Only undemoted plans are published: a demoted plan encodes this
    // request's execution failures, not the pure planning function of
    // the key. The cache applies its own failpoint policy on top.
    if (key && out.demotions == 0)
        cache->insert(*key, out.plan);
    span.arg("outcome", "planned");
    if (out.demotions > 0)
        span.arg("demotions", out.demotions);
    return out;
}

} // namespace service
} // namespace ll
