/**
 * @file
 * Cache-aware single-conversion service path.
 *
 * serveConversion() is what every conversion goes through, whether it
 * arrives as a service request or as a ConvertLayout op in the layout
 * engine: consult the plan cache, and on a miss run
 * codegen::planAndVerify (plan, smoke-execute, demote until a rung
 * survives) before publishing an undemoted plan for every later
 * requester. The engine passes its EngineOptions::planCache, or a
 * per-run cache of its own when none is configured.
 *
 * Span: "service.conversion" (cat "service") with an "outcome" arg of
 * cache-hit | cached-rejection | planned | plan-failed | exec-failed.
 */

#ifndef LL_SERVICE_CONVERSION_SERVICE_H
#define LL_SERVICE_CONVERSION_SERVICE_H

#include <memory>
#include <string>
#include <vector>

#include "codegen/conversion.h"
#include "service/plan_cache.h"

namespace ll {
namespace service {

struct ConversionOutcome
{
    /** The (possibly shared) plan; null when planning failed. */
    std::shared_ptr<const codegen::ConversionPlan> plan;
    bool fromCache = false;
    /** The failure was served from a memoized InvalidInput entry. */
    bool cachedRejection = false;
    /** Planning succeeded but no rung survived its smoke execution
     *  (the last failed plan is still returned for diagnosis; it was not
     *  cached). */
    bool execFailed = false;
    /** Execution-triggered demotions taken before the plan survived. A
     *  demoted plan is returned but never published to the cache. */
    int demotions = 0;
    /** codegen::VerifiedPlan::notes of a fresh plan: execution
     *  failures, demotions and failed re-plans, in order. */
    std::vector<std::string> notes;
    /** Planner / executor failure rendering; empty on success. */
    std::string error;

    bool planned() const { return plan != nullptr && !execFailed; }
};

/** The outcome a cache hit serves: the shared plan or the memoized
 *  rejection. */
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
 * The post-lookup half of serveConversion: planAndVerify, then publish
 * an undemoted plan (or a rejection) to `cache` under `key` (both may be
 * null — the --no-cache path). The caller has already taken the cache
 * miss; this never performs (or counts) a lookup. The singleflight
 * leader calls this after its
 * stat-free peek() double-check so each request records exactly one
 * cache lookup no matter how the flight resolves.
 */
ConversionOutcome planAndPublish(PlanCache *cache, const PlanKey *key,
                                 const LinearLayout &src,
                                 const LinearLayout &dst, int elemBytes,
                                 const sim::GpuSpec &spec);

} // namespace service
} // namespace ll

#endif // LL_SERVICE_CONVERSION_SERVICE_H
