/**
 * @file
 * CompileService: the compilation service's driver — a thread-pool
 * batch mode and an open-loop server mode over the layout engine, the
 * shared plan cache, and a per-key singleflight latch.
 *
 * A serving deployment compiles many kernels against one GPU model;
 * the conversions they need overlap heavily. In *batch* mode (run())
 * the service drains a fixed request list with N workers that all plan
 * against one PlanCache; concurrent misses on the same key coalesce
 * through the Singleflight latch so every cold key is planned exactly
 * once. In *server* mode (serve()) requests arrive on a
 * deterministic-seed Poisson process, pass a bounded admission queue
 * with a configurable shed policy, carry per-request deadlines, and
 * are accounted against a p99 latency SLO. A deadline bounds only
 * waiting — in the admission queue, or as a coalesced follower on
 * another request's flight — and never changes what gets planned: a
 * request whose deadline passes mid-compile ships its full plan.
 * Each request runs exactly one attempt: planning is a pure function
 * of the request, so a second attempt would fail the same way.
 *
 * Every request terminates with a definite outcome — Planned, Shed,
 * DeadlineExceeded, or Failed — under any load and any injected fault;
 * the report carries the split, never a folded failure count.
 *
 * Spans: "service.batch"/"service.server" wrap a run,
 * "service.request" (cat "service") wraps each request with
 * name/outcome args; the admission queue and singleflight emit their
 * own (see admission.h, singleflight.h). Metrics: service.requests,
 * service.request_failures, service.batch.runs, service.server.runs,
 * service.outcome.{planned,shed,deadline_exceeded,failed},
 * service.deadline.queue_expired, and the "service.request_latency_us"
 * histogram.
 *
 * Failpoints on the service path (llfuzz --failpoint-coverage forces
 * each of serviceFailpointSites() alongside the planner sites):
 * "svc.admit", "svc.singleflight.leader", "svc.queue.timeout" (a
 * popped job is treated as having out-waited its deadline).
 */

#ifndef LL_SERVICE_COMPILE_SERVICE_H
#define LL_SERVICE_COMPILE_SERVICE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/layout_engine.h"
#include "ir/function.h"
#include "service/admission.h"
#include "service/conversion_service.h"
#include "service/plan_cache.h"
#include "service/singleflight.h"

namespace ll {
namespace service {

/** A single-conversion request (e.g. one corpus case). */
struct ConversionRequest
{
    LinearLayout src;
    LinearLayout dst;
    int elemBytes = 2;
    sim::GpuSpec spec;
};

/** One unit of work: exactly one of `build` / `conversion` is set. */
struct CompileRequest
{
    std::string name;
    /** Kernel compilation: build the IR, run it through LayoutEngine. */
    std::function<ir::Function()> build;
    /** Single conversion served through the coalesced cache path.
     *  Shared so a --repeat stream does not copy layouts per
     *  occurrence. */
    std::shared_ptr<const ConversionRequest> conversion;
};

/** The definite terminal state every request reaches. */
enum class RequestOutcome
{
    Planned,          ///< served a correct plan (cached, coalesced or fresh)
    Shed,             ///< refused by admission control before any work
    DeadlineExceeded, ///< deadline passed in queue / waiting on a flight
    Failed,           ///< planning failed (diagnosed)
};

std::string toString(RequestOutcome outcome);

struct CompileResponse
{
    std::string name;
    bool ok = false;
    RequestOutcome outcome = RequestOutcome::Failed;
    std::string error;
    /** Arrival-to-terminal latency (server mode includes queue wait). */
    double latencyUs = 0.0;
    /** Time spent queued before a worker picked the job up. */
    double queueUs = 0.0;
    /** Served as a singleflight follower (another request's plan). */
    bool coalesced = false;
    /** This request ran the planner itself: a cold singleflight leader,
     *  neither a cache hit nor a follower. */
    bool freshPlan = false;
    /** Kernel requests: the engine's full per-run stats. Conversion
     *  requests: plan-cache fields only (planCacheHits et al.). */
    engine::EngineStats stats;
};

struct ServiceReport
{
    std::vector<CompileResponse> responses;
    int threads = 0;
    double wallMs = 0.0;
    int64_t requests = 0;
    /** Terminal-outcome split; planned + shed + deadlineExceeded +
     *  failed == requests. */
    int64_t planned = 0;
    int64_t shed = 0;
    int64_t deadlineExceeded = 0;
    int64_t failed = 0;
    /** Requests served as singleflight followers. */
    int64_t coalesced = 0;
    /** Conversion requests that ran the planner themselves (neither a
     *  cache hit nor a follower). On a cold stream with singleflight
     *  this equals the number of distinct keys — duplicates are 0. */
    int64_t freshPlans = 0;
    /** Sum over responses (kernel stats + conversion outcomes), except
     *  `metrics`: one registry delta around the whole run()/serve()
     *  call, exact as long as nothing outside the call is compiling. */
    engine::EngineStats totals;
    /** Latency percentiles over *admitted* requests (shed excluded;
     *  server mode measures arrival-to-terminal). */
    double p50LatencyUs = 0.0;
    double p90LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double requestsPerSec = 0.0;
    /** Server mode only. */
    double offeredRatePerSec = 0.0;
    double goodputPerSec = 0.0;
    double sloP99Ms = 0.0; ///< configured target; 0 = none
    bool sloOk = true;     ///< p99 (admitted) within the target
    AdmissionQueue::Stats queueStats;
    Singleflight::Stats flightStats;
};

class CompileService
{
  public:
    struct Options
    {
        int threads = 4;
        /** Shared plan cache; nullptr = every request plans fresh. */
        PlanCache *cache = nullptr;
        /** Engine configuration for kernel requests. The planCache
         *  field is overwritten with `cache` per run. */
        engine::EngineOptions engine;
        /** Minimum per-request service time in microseconds (spin after
         *  the real work). 0 = none. Lets overload drills and the
         *  saturation calibration model a heavier planner than the
         *  microsecond-cached reality, keeping arrival generation and
         *  sleep granularity out of the measurement. */
        double serviceFloorUs = 0.0;
    };

    /** Open-loop server configuration for serve(). */
    struct ServerConfig
    {
        /** Mean Poisson arrival rate, requests/second. */
        double ratePerSec = 100.0;
        /** Generation window in seconds (first arrival at t=0). */
        double durationSec = 1.0;
        /** Seed for the arrival process. */
        uint64_t seed = 42;
        /** Stop after this many arrivals; 0 = duration only. */
        int64_t maxRequests = 0;
        size_t queueCapacity = 64;
        AdmissionPolicy policy = AdmissionPolicy::ShedOldest;
        /** Per-request deadline from arrival; <= 0 = none. */
        double deadlineMs = 0.0;
        /** p99 target for admitted requests; <= 0 = no SLO check. */
        double sloP99Ms = 0.0;
    };

    explicit CompileService(Options options);

    /** Drain the batch with `threads` workers. Blocks until done. */
    ServiceReport run(const std::vector<CompileRequest> &requests);

    /**
     * Serve an open-loop Poisson stream: arrivals cycle through
     * `stream` in order at cfg.ratePerSec for cfg.durationSec, pass the
     * admission queue, and are drained by `threads` workers. Blocks
     * until every arrival has a terminal outcome.
     */
    ServiceReport serve(const std::vector<CompileRequest> &stream,
                        const ServerConfig &cfg);

    /** The singleflight latch shared by this service's runs. */
    Singleflight &flights() { return flights_; }

  private:
    Options options_;
    Singleflight flights_;
};

/** Sum `from` into `into`: every counter field; planDiagnostics are
 *  appended. `metrics` is not summed: engine runs leave it empty, and
 *  the batch takes one registry delta around the whole call. */
void accumulateStats(engine::EngineStats &into,
                     const engine::EngineStats &from);

/**
 * The deterministic open-loop arrival schedule serve() uses: offsets
 * from the stream start in microseconds, first arrival at 0, then
 * exponential gaps with mean 1/rate, truncated at `durationSec` (and
 * at `maxRequests` arrivals when > 0). Same seed, same schedule.
 */
std::vector<double> poissonArrivalOffsetsUs(double ratePerSec,
                                            double durationSec,
                                            uint64_t seed,
                                            int64_t maxRequests = 0);

/** Every failpoint site on the service path: svc.admit,
 *  svc.singleflight.leader, svc.queue.timeout. llfuzz
 *  --failpoint-coverage pools them with the planner sites. */
std::vector<std::string> serviceFailpointSites();

} // namespace service
} // namespace ll

#endif // LL_SERVICE_COMPILE_SERVICE_H
