/**
 * @file
 * Per-cache-key singleflight latch for the compilation service.
 *
 * N threads missing the same cold PlanKey concurrently would each run
 * the full planning pipeline and race to insert the same immutable
 * plan — on a shuffled cold stream at 8 threads that is ~1.5x the ideal
 * miss count of wasted planner work. Singleflight coalesces them: the
 * first thread to open a flight for a key becomes the *leader* and runs
 * the work; every other thread arriving while the flight is open is a
 * *follower* that blocks on the flight's latch and receives a copy of
 * the leader's outcome. Failures propagate to followers exactly like
 * successes but are never cached (the leader's publish path enforces
 * the PR-5 failures-never-cached policy; followers never touch the
 * cache at all).
 *
 * A follower with a deadline waits only until the deadline: on timeout
 * it reports DeadlineExceeded and walks away while the flight keeps
 * flying for everyone else.
 *
 * Metrics: service.singleflight.{leader,follower,timeout}. Spans:
 * "service.singleflight" (cat "service") with a role arg. Failpoint:
 * "svc.singleflight.leader" fails the leader's work before planning —
 * the canonical leader-failure drill (followers all see the failure,
 * nothing is cached).
 */

#ifndef LL_SERVICE_SINGLEFLIGHT_H
#define LL_SERVICE_SINGLEFLIGHT_H

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "service/conversion_service.h"
#include "service/plan_cache.h"

namespace ll {
namespace service {

/** How a singleflight participant obtained its outcome. */
enum class FlightRole
{
    Leader,   ///< opened the flight and ran the work
    Follower, ///< waited on an open flight for the leader's outcome
    TimedOut, ///< follower whose deadline expired while waiting
};

struct FlightResult
{
    ConversionOutcome outcome;
    FlightRole role = FlightRole::Leader;
};

class Singleflight
{
  public:
    Singleflight() = default;
    Singleflight(const Singleflight &) = delete;
    Singleflight &operator=(const Singleflight &) = delete;

    /**
     * Coalesce `work` on `key`. Exactly one concurrent caller per key
     * runs `work` (the leader); the rest wait for its outcome, or until
     * `deadline` if one is given. The flight closes when the leader
     * publishes, so a later caller opens a fresh flight — it is the
     * caller's cache lookup (or the leader's peek) that prevents
     * re-planning an already published key.
     */
    FlightResult
    run(const PlanKey &key,
        const std::function<ConversionOutcome()> &work,
        std::optional<std::chrono::steady_clock::time_point> deadline =
            std::nullopt);

    /** Followers currently blocked on `key`'s flight (0 when no flight
     *  is open). Test/introspection hook — the leader of a controlled
     *  flight can hold its work open until every expected follower has
     *  joined, making coalescing deterministic to assert. */
    int waiters(const PlanKey &key) const;

    struct Stats
    {
        int64_t leaders = 0;
        int64_t followers = 0;
        int64_t timeouts = 0;
    };
    Stats stats() const;

  private:
    struct Flight
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        int waiters = 0;
        ConversionOutcome outcome;
    };

    mutable std::mutex mu_;
    std::unordered_map<PlanKey, std::shared_ptr<Flight>, PlanKeyHash>
        flights_;
    Stats stats_;
};

/**
 * The service's coalesced conversion path: one counted cache lookup,
 * then — on a miss — a singleflight on the key. The leader re-checks
 * the cache with a stat-free peek() (a racing flight may have published
 * between the miss and the flight opening) before running the
 * plan+publish pipeline; followers receive the leader's outcome
 * without touching the cache. With a null `cache` or `flights` the call
 * degrades to plain serveConversion.
 */
FlightResult serveConversionCoalesced(
    PlanCache *cache, Singleflight *flights, const LinearLayout &src,
    const LinearLayout &dst, int elemBytes, const sim::GpuSpec &spec,
    std::optional<std::chrono::steady_clock::time_point> deadline =
        std::nullopt);

} // namespace service
} // namespace ll

#endif // LL_SERVICE_SINGLEFLIGHT_H
