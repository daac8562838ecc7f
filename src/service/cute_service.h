/**
 * @file
 * Cache-aware service entry for cute (non-pow2) conversion requests.
 *
 * The admission pass factors a CuteConversionRequest into a pow2 core
 * (two distributed LinearLayouts and a ladder plan between them) plus
 * a windowed scalar remainder. The core pair is exactly the shape of
 * thing the service layer already interns and caches: two structural
 * LinearLayouts, an element width, and a GpuSpec fingerprint. This
 * entry point routes the core through serveConversion(), so bridged
 * layouts share the interner and the sharded plan cache with every
 * ordinary F2 request — two different non-pow2 logical shapes whose
 * floor-pow2 cores coincide hit the same cached plan. Like every
 * conversion, the core ships as planned and unexecuted; the admission
 * oracle (check::checkCuteCase) executes and audits it.
 *
 * Where serveConversion rejects malformed requests with InvalidInput,
 * this entry distinguishes malformed (InvalidInput) from well-formed
 * non-pow2 (DiagCode::NonPow2Bridgeable, which is not a rejection at
 * all here: it simply marks the request as taking the decomposition
 * path).
 *
 * Span: "service.cute" (cat "service") with an "outcome" arg.
 */

#ifndef LL_SERVICE_CUTE_SERVICE_H
#define LL_SERVICE_CUTE_SERVICE_H

#include <optional>
#include <string>

#include "cute/admit.h"
#include "service/plan_cache.h"

namespace ll {
namespace service {

struct CuteConversionOutcome
{
    /** The assembled plan; disengaged when planning failed. */
    std::optional<cute::CutePlan> plan;
    /** The request's logical shape had a non-pow2 extent and went
     *  through the decomposition path. */
    bool decomposed = false;
    /** The core's ladder plan came from the shared plan cache. */
    bool coreFromCache = false;
    /** Failure rendering; empty on success. */
    std::string error;

    bool planned() const { return plan.has_value(); }
};

/**
 * Serve one cute conversion request against `cache` (nullptr = plan
 * fresh every time). Never throws on planner trouble.
 */
CuteConversionOutcome serveCuteConversion(
    PlanCache *cache, const cute::CuteConversionRequest &req,
    const sim::GpuSpec &spec);

} // namespace service
} // namespace ll

#endif // LL_SERVICE_CUTE_SERVICE_H
