#include "service/compile_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <random>
#include <thread>

#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace service {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
toUs(SteadyClock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t rank = static_cast<size_t>(
        p / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
}

metrics::Histogram &
latencyHistogram()
{
    static auto &h = metrics::Registry::instance().histogram(
        "service.request_latency_us",
        {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
         100000});
    return h;
}

void
recordOutcome(RequestOutcome outcome)
{
    switch (outcome) {
      case RequestOutcome::Planned: {
        static auto &c = metrics::counter("service.outcome.planned");
        c.inc();
        break;
      }
      case RequestOutcome::Shed: {
        static auto &c = metrics::counter("service.outcome.shed");
        c.inc();
        break;
      }
      case RequestOutcome::DeadlineExceeded: {
        static auto &c =
            metrics::counter("service.outcome.deadline_exceeded");
        c.inc();
        break;
      }
      case RequestOutcome::Failed: {
        static auto &c = metrics::counter("service.outcome.failed");
        c.inc();
        break;
      }
    }
}

/** Everything one request execution needs besides the request. */
struct ExecContext
{
    const engine::EngineOptions &engineOptions;
    PlanCache *cache = nullptr;
    Singleflight *flights = nullptr;
    double serviceFloorUs = 0.0;
};

/** Busy-wait out the remainder of the configured service floor so one
 *  request never completes faster than `floorUs` from `t0`. */
void
spinServiceFloor(SteadyClock::time_point t0, double floorUs)
{
    if (floorUs <= 0.0)
        return;
    const auto until =
        t0 + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double, std::micro>(floorUs));
    while (SteadyClock::now() < until) {
        // spin; the floor exists to model a heavier planner, so
        // occupying the worker is exactly the point
    }
}

/**
 * Run one request, once, into `resp` (ok / outcome / error /
 * stats / coalesced / freshPlan). Never throws. Latency and outcome
 * metrics are the caller's job — batch mode measures the attempt,
 * server mode measures arrival-to-terminal.
 */
void
executeAttempt(const CompileRequest &req, const ExecContext &ctx,
               std::optional<SteadyClock::time_point> deadline,
               CompileResponse &resp)
{
    trace::Span span("service.request", "service");
    if (span.active())
        span.arg("name", req.name);
    resp.name = req.name;
    const auto t0 = SteadyClock::now();
    try {
        if (req.build) {
            ir::Function f = req.build();
            engine::LayoutEngine eng{ctx.engineOptions};
            resp.stats = eng.run(f);
            resp.ok = resp.stats.planFailures == 0;
            resp.outcome = resp.ok ? RequestOutcome::Planned
                                   : RequestOutcome::Failed;
            if (!resp.ok)
                resp.error = "engine downgraded " +
                             std::to_string(resp.stats.planFailures) +
                             " conversion(s) to convert:unplanned";
        } else if (req.conversion) {
            const ConversionRequest &c = *req.conversion;
            FlightResult flight = serveConversionCoalesced(
                ctx.cache, ctx.flights, c.src, c.dst, c.elemBytes,
                c.spec, deadline);
            const ConversionOutcome &outcome = flight.outcome;
            resp.coalesced = flight.role == FlightRole::Follower;
            resp.error = outcome.error;
            if (flight.role == FlightRole::TimedOut) {
                resp.ok = false;
                resp.outcome = RequestOutcome::DeadlineExceeded;
                if (ctx.cache != nullptr)
                    resp.stats.planCacheMisses = 1;
            } else {
                resp.ok = outcome.planned();
                resp.outcome = resp.ok ? RequestOutcome::Planned
                                       : RequestOutcome::Failed;
                if (outcome.fromCache) {
                    resp.stats.planCacheHits = 1;
                    resp.stats.convertsPlanned = 1;
                } else {
                    if (ctx.cache != nullptr)
                        resp.stats.planCacheMisses = 1;
                    if (outcome.plan)
                        resp.stats.convertsPlanned = 1;
                    else
                        resp.stats.planFailures = 1;
                    resp.freshPlan = flight.role == FlightRole::Leader &&
                                     outcome.plan != nullptr;
                }
            }
        } else {
            resp.ok = false;
            resp.outcome = RequestOutcome::Failed;
            resp.error = "request carries neither a kernel builder nor "
                         "a conversion";
        }
    } catch (const std::exception &e) {
        resp.ok = false;
        resp.outcome = RequestOutcome::Failed;
        resp.error = e.what();
    }
    spinServiceFloor(t0, ctx.serviceFloorUs);
    if (span.active())
        span.arg("outcome", toString(resp.outcome));
}

/** Fold the per-response terminal states and latencies into the
 *  report: outcome split, totals, percentiles (admitted only). */
void
finalizeReport(ServiceReport &report)
{
    std::vector<double> latencies;
    latencies.reserve(report.responses.size());
    for (const auto &resp : report.responses) {
        switch (resp.outcome) {
          case RequestOutcome::Planned:
            ++report.planned;
            break;
          case RequestOutcome::Shed:
            ++report.shed;
            break;
          case RequestOutcome::DeadlineExceeded:
            ++report.deadlineExceeded;
            break;
          case RequestOutcome::Failed:
            ++report.failed;
            break;
        }
        if (resp.outcome != RequestOutcome::Shed)
            latencies.push_back(resp.latencyUs);
        if (resp.coalesced)
            ++report.coalesced;
        if (resp.freshPlan)
            ++report.freshPlans;
        accumulateStats(report.totals, resp.stats);
    }
    const int64_t unplanned =
        report.shed + report.deadlineExceeded + report.failed;
    if (unplanned > 0) {
        static auto &failures =
            metrics::counter("service.request_failures");
        failures.add(unplanned);
    }
    static auto &served = metrics::counter("service.requests");
    served.add(report.requests);
    report.p50LatencyUs = percentile(latencies, 50.0);
    report.p90LatencyUs = percentile(latencies, 90.0);
    report.p99LatencyUs = percentile(latencies, 99.0);
    report.requestsPerSec =
        report.wallMs > 0.0
            ? static_cast<double>(report.requests) * 1e3 / report.wallMs
            : 0.0;
}

Singleflight::Stats
flightStatsDelta(const Singleflight::Stats &before,
                 const Singleflight::Stats &after)
{
    Singleflight::Stats delta;
    delta.leaders = after.leaders - before.leaders;
    delta.followers = after.followers - before.followers;
    delta.timeouts = after.timeouts - before.timeouts;
    return delta;
}

} // namespace

std::string
toString(RequestOutcome outcome)
{
    switch (outcome) {
      case RequestOutcome::Planned:
        return "planned";
      case RequestOutcome::Shed:
        return "shed";
      case RequestOutcome::DeadlineExceeded:
        return "deadline-exceeded";
      case RequestOutcome::Failed:
        return "failed";
    }
    return "unknown";
}

void
accumulateStats(engine::EngineStats &into,
                const engine::EngineStats &from)
{
    into.convertsInserted += from.convertsInserted;
    into.convertsEliminated += from.convertsEliminated;
    into.convertsPlanned += from.convertsPlanned;
    into.planFallbacks += from.planFallbacks;
    into.planFailures += from.planFailures;
    into.transferFallbacks += from.transferFallbacks;
    into.planCacheHits += from.planCacheHits;
    into.planCacheMisses += from.planCacheMisses;
    into.synthConvertsEliminated += from.synthConvertsEliminated;
    into.synthAssignmentsEvaluated += from.synthAssignmentsEvaluated;
    into.synthChoseSynthesized += from.synthChoseSynthesized;
    into.planDiagnostics.insert(into.planDiagnostics.end(),
                                from.planDiagnostics.begin(),
                                from.planDiagnostics.end());
}

std::vector<double>
poissonArrivalOffsetsUs(double ratePerSec, double durationSec,
                        uint64_t seed, int64_t maxRequests)
{
    std::vector<double> offsets;
    if (ratePerSec <= 0.0 || durationSec <= 0.0)
        return offsets;
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(ratePerSec);
    double t = 0.0; // first arrival opens the window
    while (t < durationSec &&
           (maxRequests <= 0 ||
            static_cast<int64_t>(offsets.size()) < maxRequests)) {
        offsets.push_back(t * 1e6);
        t += gap(rng);
    }
    return offsets;
}

std::vector<std::string>
serviceFailpointSites()
{
    return {"svc.admit", "svc.singleflight.leader", "svc.queue.timeout"};
}

CompileService::CompileService(Options options)
    : options_(std::move(options))
{
}

ServiceReport
CompileService::run(const std::vector<CompileRequest> &requests)
{
    trace::Span span("service.batch", "service");
    // One delta around the whole call: engine runs take none, and
    // per-run deltas would overlap whenever two workers compile at once.
    const auto before = metrics::Registry::instance().counterSnapshot();
    static auto &runs = metrics::counter("service.batch.runs");
    runs.inc();

    ServiceReport report;
    report.threads = std::max(options_.threads, 1);
    report.requests = static_cast<int64_t>(requests.size());
    report.responses.resize(requests.size());

    engine::EngineOptions engineOptions = options_.engine;
    engineOptions.planCache = options_.cache;
    const ExecContext ctx{engineOptions, options_.cache, &flights_,
                          options_.serviceFloorUs};
    const Singleflight::Stats flightsBefore = flights_.stats();

    const auto wall0 = SteadyClock::now();
    std::atomic<size_t> next{0};
    auto worker = [&] {
        while (true) {
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= requests.size())
                return;
            CompileResponse &resp = report.responses[i];
            const auto t0 = SteadyClock::now();
            executeAttempt(requests[i], ctx, std::nullopt, resp);
            resp.latencyUs = toUs(SteadyClock::now() - t0);
            latencyHistogram().observe(resp.latencyUs);
            recordOutcome(resp.outcome);
        }
    };
    if (report.threads == 1 || requests.size() <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<size_t>(report.threads));
        for (int t = 0; t < report.threads; ++t)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
    }
    const auto wall1 = SteadyClock::now();
    report.wallMs =
        std::chrono::duration<double, std::milli>(wall1 - wall0).count();

    finalizeReport(report);
    report.flightStats =
        flightStatsDelta(flightsBefore, flights_.stats());
    if (span.active()) {
        span.arg("requests", report.requests);
        span.arg("threads", report.threads);
        span.arg("failed", report.failed);
    }
    report.totals.metrics =
        metrics::Registry::instance().counterDelta(before);
    return report;
}

ServiceReport
CompileService::serve(const std::vector<CompileRequest> &stream,
                      const ServerConfig &cfg)
{
    trace::Span span("service.server", "service");
    // As in run(): one counter delta around the whole call.
    const auto before = metrics::Registry::instance().counterSnapshot();
    static auto &runs = metrics::counter("service.server.runs");
    runs.inc();

    ServiceReport report;
    report.threads = std::max(options_.threads, 1);
    report.sloP99Ms = cfg.sloP99Ms;
    report.offeredRatePerSec = cfg.ratePerSec;
    if (stream.empty())
        return report;

    engine::EngineOptions engineOptions = options_.engine;
    engineOptions.planCache = options_.cache;
    const ExecContext ctx{engineOptions, options_.cache, &flights_,
                          options_.serviceFloorUs};
    const Singleflight::Stats flightsBefore = flights_.stats();

    const std::vector<double> offsets = poissonArrivalOffsetsUs(
        cfg.ratePerSec, cfg.durationSec, cfg.seed, cfg.maxRequests);
    report.requests = static_cast<int64_t>(offsets.size());

    AdmissionQueue queue({cfg.queueCapacity, cfg.policy});

    // Response slots live in a deque guarded by respMu: the generator
    // appends while workers write earlier slots, and deque growth never
    // moves an element. Exactly one thread writes any given slot — the
    // worker that popped its job, or the generator when it was shed.
    std::deque<CompileResponse> responses;
    std::mutex respMu;

    auto finalizeShed = [&](const ServerJob &job) {
        CompileResponse &resp = *job.response;
        resp.ok = false;
        resp.outcome = RequestOutcome::Shed;
        resp.error = "shed by admission control (" +
                     toString(cfg.policy) + ")";
        resp.latencyUs = toUs(SteadyClock::now() - job.arrival);
        recordOutcome(RequestOutcome::Shed);
    };

    auto worker = [&] {
        ServerJob job;
        while (queue.pop(job)) {
            CompileResponse &resp = *job.response;
            const auto tPop = SteadyClock::now();
            resp.queueUs = toUs(tPop - job.arrival);
            bool queueExpired = tPop >= job.deadline;
            if (LL_FAILPOINT("svc.queue.timeout"))
                queueExpired = true;
            if (queueExpired) {
                resp.ok = false;
                resp.name = job.request->name;
                resp.outcome = RequestOutcome::DeadlineExceeded;
                resp.error =
                    "[svc.queue.timeout] deadline-exceeded: request "
                    "out-waited its deadline in the admission queue";
                static auto &queueExpirations =
                    metrics::counter("service.deadline.queue_expired");
                queueExpirations.inc();
            } else {
                // The deadline bounds only a coalesced follower's wait;
                // it never changes what gets planned.
                std::optional<SteadyClock::time_point> deadline;
                if (job.deadline != SteadyClock::time_point::max())
                    deadline = job.deadline;
                executeAttempt(*job.request, ctx, deadline, resp);
            }
            resp.latencyUs = toUs(SteadyClock::now() - job.arrival);
            latencyHistogram().observe(resp.latencyUs);
            recordOutcome(resp.outcome);
        }
    };

    const auto wall0 = SteadyClock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(report.threads));
    for (int t = 0; t < report.threads; ++t)
        workers.emplace_back(worker);

    // This thread is the open-loop generator: arrivals fire on the
    // precomputed schedule whether or not the workers keep up.
    for (size_t i = 0; i < offsets.size(); ++i) {
        const auto due =
            wall0 + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double, std::micro>(
                            offsets[i]));
        // Sleep the bulk of the gap, spin the last stretch — sub-ms
        // sleeps routinely overshoot by a scheduler quantum, which
        // would silently lower the offered rate.
        while (true) {
            const auto now = SteadyClock::now();
            if (now >= due)
                break;
            const auto remain = due - now;
            if (remain > std::chrono::microseconds(200))
                std::this_thread::sleep_for(
                    remain - std::chrono::microseconds(150));
        }

        const CompileRequest &req = stream[i % stream.size()];
        CompileResponse *slot = nullptr;
        {
            std::lock_guard<std::mutex> lock(respMu);
            responses.emplace_back();
            slot = &responses.back();
        }
        slot->name = req.name;

        ServerJob job;
        job.request = &req;
        job.response = slot;
        job.arrival = SteadyClock::now();
        job.seq = static_cast<uint64_t>(i);
        if (cfg.deadlineMs > 0.0)
            job.deadline =
                job.arrival +
                std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double, std::milli>(
                        cfg.deadlineMs));
        const ServerJob offered = job;

        std::vector<ServerJob> shedOldest;
        const auto pushed = queue.push(std::move(job), shedOldest);
        for (const auto &old : shedOldest)
            finalizeShed(old);
        if (pushed == AdmissionQueue::PushResult::Shed)
            finalizeShed(offered);
    }
    queue.close();
    for (auto &t : workers)
        t.join();
    const auto wall1 = SteadyClock::now();
    report.wallMs =
        std::chrono::duration<double, std::milli>(wall1 - wall0).count();

    report.responses.reserve(responses.size());
    for (auto &resp : responses)
        report.responses.push_back(std::move(resp));
    finalizeReport(report);
    report.queueStats = queue.stats();
    report.flightStats =
        flightStatsDelta(flightsBefore, flights_.stats());
    report.goodputPerSec =
        report.wallMs > 0.0
            ? static_cast<double>(report.planned) * 1e3 / report.wallMs
            : 0.0;
    report.sloOk = cfg.sloP99Ms <= 0.0 ||
                   report.p99LatencyUs <= cfg.sloP99Ms * 1e3;
    if (span.active()) {
        span.arg("requests", report.requests);
        span.arg("threads", report.threads);
        span.arg("planned", report.planned);
        span.arg("shed", report.shed);
        span.arg("deadline_exceeded", report.deadlineExceeded);
        span.arg("failed", report.failed);
    }
    report.totals.metrics =
        metrics::Registry::instance().counterDelta(before);
    return report;
}

} // namespace service
} // namespace ll
