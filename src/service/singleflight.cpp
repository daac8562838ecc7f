#include "service/singleflight.h"

#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace service {

FlightResult
Singleflight::run(
    const PlanKey &key, const std::function<ConversionOutcome()> &work,
    std::optional<std::chrono::steady_clock::time_point> deadline)
{
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = flights_.find(key);
        if (it == flights_.end()) {
            flight = std::make_shared<Flight>();
            flights_.emplace(key, flight);
            leader = true;
            ++stats_.leaders;
        } else {
            flight = it->second;
            ++stats_.followers;
        }
    }

    FlightResult result;
    if (leader) {
        trace::Span span("service.singleflight", "service");
        span.arg("role", "leader");
        static auto &leaders =
            metrics::counter("service.singleflight.leader");
        leaders.inc();
        result.role = FlightRole::Leader;
        result.outcome = work();
        {
            std::lock_guard<std::mutex> lock(flight->mu);
            flight->outcome = result.outcome;
            flight->done = true;
        }
        flight->cv.notify_all();
        {
            // Close the flight: later callers re-consult the cache and,
            // only on a genuine miss, open a fresh one.
            std::lock_guard<std::mutex> lock(mu_);
            auto it = flights_.find(key);
            if (it != flights_.end() && it->second == flight)
                flights_.erase(it);
        }
        return result;
    }

    trace::Span span("service.singleflight", "service");
    span.arg("role", "follower");
    static auto &followers =
        metrics::counter("service.singleflight.follower");
    followers.inc();
    std::unique_lock<std::mutex> lock(flight->mu);
    ++flight->waiters;
    bool done;
    if (deadline.has_value()) {
        done = flight->cv.wait_until(lock, *deadline,
                                     [&] { return flight->done; });
    } else {
        flight->cv.wait(lock, [&] { return flight->done; });
        done = true;
    }
    --flight->waiters;
    if (!done) {
        lock.unlock();
        {
            std::lock_guard<std::mutex> slock(mu_);
            ++stats_.timeouts;
        }
        static auto &timeouts =
            metrics::counter("service.singleflight.timeout");
        timeouts.inc();
        span.arg("outcome", "timeout");
        result.role = FlightRole::TimedOut;
        result.outcome.error =
            "[svc.singleflight] deadline-exceeded: deadline expired "
            "while waiting on the in-flight plan";
        return result;
    }
    result.role = FlightRole::Follower;
    result.outcome = flight->outcome;
    return result;
}

int
Singleflight::waiters(const PlanKey &key) const
{
    std::shared_ptr<Flight> flight;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = flights_.find(key);
        if (it == flights_.end())
            return 0;
        flight = it->second;
    }
    std::lock_guard<std::mutex> lock(flight->mu);
    return flight->waiters;
}

Singleflight::Stats
Singleflight::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

FlightResult
serveConversionCoalesced(
    PlanCache *cache, Singleflight *flights, const LinearLayout &src,
    const LinearLayout &dst, int elemBytes, const sim::GpuSpec &spec,
    std::optional<std::chrono::steady_clock::time_point> deadline)
{
    FlightResult result;
    if (cache == nullptr || flights == nullptr) {
        result.outcome =
            serveConversion(cache, src, dst, elemBytes, spec);
        result.role = FlightRole::Leader;
        return result;
    }

    const PlanKey key = cache->key(src, dst, elemBytes, spec);
    if (auto hit = cache->lookup(key)) {
        result.role = FlightRole::Leader; // served directly, no flight
        result.outcome = outcomeFromCache(*hit);
        return result;
    }

    return flights->run(
        key,
        [&]() -> ConversionOutcome {
            if (LL_FAILPOINT("svc.singleflight.leader")) {
                ConversionOutcome out;
                out.error = makeDiag(DiagCode::FailpointInjected,
                                     "svc.singleflight.leader",
                                     "failpoint failed the singleflight "
                                     "leader before planning")
                                .toString();
                return out;
            }
            // Double-check: a previous flight may have published this
            // key between our counted miss and this flight opening.
            // peek() is stat-free, so the request still records exactly
            // one lookup, and an expired negative reads as a miss.
            if (auto hit = cache->peek(key))
                return outcomeFromCache(*hit);
            return planAndPublish(cache, &key, src, dst, elemBytes,
                                  spec);
        },
        deadline);
}

} // namespace service
} // namespace ll
