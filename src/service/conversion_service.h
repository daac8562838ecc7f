/**
 * @file
 * Cache-aware single-conversion service path.
 *
 * serveConversion() is what every conversion goes through, whether it
 * arrives as a service request or as a ConvertLayout op in the layout
 * engine: consult the plan cache, and on a miss plan with
 * codegen::tryPlanConversion and publish the plan for every later
 * requester. Nothing here executes a plan: the lowerings are correct
 * by construction, and the oracle, plan_audit and the tests execute
 * them, where a failure is a failed check. The engine passes its EngineOptions::planCache,
 * or a per-run plan memo of its own when none is configured.
 *
 * Span: "service.conversion" (cat "service") with an "outcome" arg of
 * cache-hit | planned | plan-failed.
 */

#ifndef LL_SERVICE_CONVERSION_SERVICE_H
#define LL_SERVICE_CONVERSION_SERVICE_H

#include <memory>
#include <string>

#include "codegen/conversion.h"
#include "service/plan_cache.h"

namespace ll {
namespace service {

struct ConversionOutcome
{
    /** The (possibly shared) plan; null when planning failed. */
    std::shared_ptr<const codegen::ConversionPlan> plan;
    bool fromCache = false;
    /** Planner failure rendering; empty on success. */
    std::string error;

    bool planned() const { return plan != nullptr; }
};

/** The outcome a cache hit serves: the shared plan. */
ConversionOutcome outcomeFromCache(const CachedPlan &hit);

/**
 * Serve one conversion request against `cache` (nullptr = plan fresh
 * every time, the --no-cache baseline). Never throws on planner
 * trouble: failures come back in the outcome.
 */
ConversionOutcome serveConversion(PlanCache *cache,
                                  const LinearLayout &src,
                                  const LinearLayout &dst, int elemBytes,
                                  const sim::GpuSpec &spec);

/**
 * The post-lookup half of serveConversion: tryPlanConversion (a planner
 * exception becomes a PlannerInternalError diagnostic), then publish
 * the plan to `cache` under `key` (both may be null — the --no-cache
 * path); the cache's failpoint policy decides whether it is kept. A
 * rejection is returned, never cached. The caller has already taken
 * the cache miss; this never performs (or counts) a lookup. The
 * singleflight leader calls this after its stat-free peek()
 * double-check so each request records exactly one cache lookup no
 * matter how the flight resolves.
 */
ConversionOutcome planAndPublish(PlanCache *cache, const PlanKey *key,
                                 const LinearLayout &src,
                                 const LinearLayout &dst, int elemBytes,
                                 const sim::GpuSpec &spec);

} // namespace service
} // namespace ll

#endif // LL_SERVICE_CONVERSION_SERVICE_H
