/**
 * @file
 * The server loop's contracts: singleflight coalesces concurrent cold
 * misses on one key into exactly one planner invocation (and failures
 * propagate to followers without ever being cached); the bounded
 * admission queue gives every offered job a definite outcome under all
 * three shed policies; a follower whose deadline passes while it waits
 * on a flight times out without changing what the leader plans or
 * caches; a failed request runs once and is not retried;
 * the open-loop Poisson schedule is a pure function of its seed; and
 * every serve() arrival lands in exactly one terminal-outcome bucket.
 * The multi-thread tests here are TSan targets (-DLL_SANITIZE=tsan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codegen/conversion.h"
#include "service/admission.h"
#include "service/compile_service.h"
#include "service/conversion_service.h"
#include "service/plan_cache.h"
#include "service/singleflight.h"
#include "sim/gpu_spec.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "triton/encodings.h"

namespace ll {
namespace {

LinearLayout
blocked(const triton::Shape &sizePerThread,
        const triton::Shape &threadsPerWarp,
        const triton::Shape &warpsPerCta,
        const std::vector<int32_t> &order, const triton::Shape &shape)
{
    triton::BlockedEncoding enc;
    enc.sizePerThread = sizePerThread;
    enc.threadsPerWarp = threadsPerWarp;
    enc.warpsPerCta = warpsPerCta;
    enc.order = order;
    return enc.toLinearLayout(shape);
}

/** A conversion whose plan lands on the swizzled shared-memory rung,
 *  not the terminal scalar one. */
struct SharedConversion
{
    LinearLayout src =
        blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {16, 64});
    LinearLayout dst =
        blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {16, 64});
    sim::GpuSpec spec = sim::GpuSpec::gh200();
};

service::CompileRequest
conversionRequest(const std::string &name, const LinearLayout &src,
                  const LinearLayout &dst, const sim::GpuSpec &spec)
{
    auto conv = std::make_shared<service::ConversionRequest>();
    conv->src = src;
    conv->dst = dst;
    conv->elemBytes = 2;
    conv->spec = spec;
    service::CompileRequest req;
    req.name = name;
    req.conversion = std::move(conv);
    return req;
}

struct CleanFailpoints : ::testing::Test
{
    void SetUp() override { failpoint::clearAll(); }
    void TearDown() override { failpoint::clearAll(); }
};

using SingleflightTest = CleanFailpoints;
using AdmissionTest = CleanFailpoints;
using ServerLoopTest = CleanFailpoints;

TEST(PoissonScheduleTest, SameSeedSameSchedule)
{
    const auto a = service::poissonArrivalOffsetsUs(500.0, 0.5, 42);
    const auto b = service::poissonArrivalOffsetsUs(500.0, 0.5, 42);
    EXPECT_EQ(a, b);
    ASSERT_FALSE(a.empty());
    // The first arrival opens the window, so serve() always has at
    // least one request even for tiny rate * duration products.
    EXPECT_EQ(a.front(), 0.0);
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i], a[i - 1]);
    EXPECT_LT(a.back(), 0.5 * 1e6);

    const auto c = service::poissonArrivalOffsetsUs(500.0, 0.5, 43);
    EXPECT_NE(a, c);

    const auto capped =
        service::poissonArrivalOffsetsUs(500.0, 0.5, 42, 7);
    EXPECT_EQ(capped.size(), 7u);
    EXPECT_TRUE(std::equal(capped.begin(), capped.end(), a.begin()));
}

TEST_F(SingleflightTest, FollowersReceiveTheLeadersOutcome)
{
    SharedConversion conv;
    service::PlanCache cache;
    const service::PlanKey key =
        cache.key(conv.src, conv.dst, 2, conv.spec);

    service::Singleflight flights;
    constexpr int kFollowers = 7;
    std::atomic<int> followerWork{0};

    // The leader's work holds the flight open until every follower is
    // blocked on it, so the coalescing below is structural, not a race
    // we got lucky on.
    std::thread leader([&] {
        auto result = flights.run(key, [&]() {
            while (flights.waiters(key) < kFollowers)
                std::this_thread::yield();
            service::ConversionOutcome out;
            out.error = "sentinel-leader-outcome";
            return out;
        });
        EXPECT_EQ(result.role, service::FlightRole::Leader);
    });
    while (flights.stats().leaders == 0)
        std::this_thread::yield();

    std::vector<std::thread> followers;
    std::vector<service::FlightResult> results(kFollowers);
    for (int i = 0; i < kFollowers; ++i) {
        followers.emplace_back([&, i] {
            results[static_cast<size_t>(i)] =
                flights.run(key, [&]() {
                    ++followerWork;
                    return service::ConversionOutcome{};
                });
        });
    }
    leader.join();
    for (auto &t : followers)
        t.join();

    // No follower ran its own work; all copied the leader's outcome.
    EXPECT_EQ(followerWork.load(), 0);
    for (const auto &r : results) {
        EXPECT_EQ(r.role, service::FlightRole::Follower);
        EXPECT_EQ(r.outcome.error, "sentinel-leader-outcome");
    }
    const auto stats = flights.stats();
    EXPECT_EQ(stats.leaders, 1);
    EXPECT_EQ(stats.followers, kFollowers);
    EXPECT_EQ(stats.timeouts, 0);
    // The flight closed when the leader published.
    EXPECT_EQ(flights.waiters(key), 0);
}

TEST_F(SingleflightTest, ColdMissBurstRunsThePlannerExactlyOnce)
{
    SharedConversion conv;
    service::PlanCache cache;
    service::Singleflight flights;
    constexpr int kThreads = 8;

    auto &noopEvals = metrics::counter("plan.rung.noop.evaluated");
    const int64_t evalsBefore = noopEvals.value();

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<service::FlightResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            ++ready;
            while (!go.load())
                std::this_thread::yield();
            results[static_cast<size_t>(i)] =
                service::serveConversionCoalesced(
                    &cache, &flights, conv.src, conv.dst, 2, conv.spec);
        });
    }
    while (ready.load() < kThreads)
        std::this_thread::yield();
    go.store(true);
    for (auto &t : threads)
        t.join();

    // The planner evaluates its first rung exactly once per
    // tryPlanConversion call: a delta of 1 pins "exactly one planner
    // invocation" no matter how the burst split between coalescing and
    // cache hits.
    EXPECT_EQ(noopEvals.value() - evalsBefore, 1);

    ASSERT_TRUE(results[0].outcome.planned());
    const std::string described =
        codegen::describePlan(*results[0].outcome.plan);
    for (const auto &r : results) {
        ASSERT_TRUE(r.outcome.planned()) << r.outcome.error;
        // Bit-identical rendering: followers share the leader's plan.
        EXPECT_EQ(codegen::describePlan(*r.outcome.plan), described);
    }
    EXPECT_EQ(cache.size(), 1);
    EXPECT_EQ(cache.stats().inserts, 1);
}

TEST_F(SingleflightTest, LeaderFailureReachesFollowersAndIsNotCached)
{
    SharedConversion conv;
    service::PlanCache cache;
    const service::PlanKey key =
        cache.key(conv.src, conv.dst, 2, conv.spec);
    service::Singleflight flights;
    constexpr int kFollowers = 3;

    std::thread leader([&] {
        auto result = flights.run(key, [&]() {
            while (flights.waiters(key) < kFollowers)
                std::this_thread::yield();
            // The real leader path: the svc.singleflight.leader drill
            // fails the work before planning.
            service::ConversionOutcome out;
            out.error = "[svc.singleflight.leader] failpoint-injected: "
                        "leader failed before planning";
            return out;
        });
        EXPECT_FALSE(result.outcome.planned());
    });
    while (flights.stats().leaders == 0)
        std::this_thread::yield();

    std::vector<std::thread> followers;
    std::vector<service::FlightResult> results(kFollowers);
    for (int i = 0; i < kFollowers; ++i) {
        followers.emplace_back([&, i] {
            results[static_cast<size_t>(i)] = flights.run(key, [&]() {
                ADD_FAILURE() << "follower ran leader work";
                return service::ConversionOutcome{};
            });
        });
    }
    leader.join();
    for (auto &t : followers)
        t.join();

    for (const auto &r : results) {
        EXPECT_EQ(r.role, service::FlightRole::Follower);
        EXPECT_FALSE(r.outcome.planned());
        EXPECT_NE(r.outcome.error.find("failpoint"), std::string::npos);
    }
    // Failures propagate but are never cached — by anyone.
    EXPECT_EQ(cache.size(), 0);
    EXPECT_EQ(cache.stats().inserts, 0);
}

TEST_F(SingleflightTest, LeaderFailpointFailsColdServeWithoutCaching)
{
    SharedConversion conv;
    service::PlanCache cache;
    service::Singleflight flights;

    failpoint::activate("svc.singleflight.leader", 1);
    auto forced = service::serveConversionCoalesced(
        &cache, &flights, conv.src, conv.dst, 2, conv.spec);
    failpoint::deactivate("svc.singleflight.leader");
    EXPECT_FALSE(forced.outcome.planned());
    EXPECT_NE(forced.outcome.error.find("failpoint-injected"),
              std::string::npos);
    EXPECT_EQ(cache.size(), 0);

    // The failure was not memoized: the next request plans fresh.
    auto clean = service::serveConversionCoalesced(
        &cache, &flights, conv.src, conv.dst, 2, conv.spec);
    EXPECT_TRUE(clean.outcome.planned()) << clean.outcome.error;
    EXPECT_EQ(cache.size(), 1);
}

TEST_F(SingleflightTest, FollowerPastItsDeadlineTimesOutAndLeaderShipsFullPlan)
{
    SharedConversion conv;
    service::PlanCache cache;
    const service::PlanKey key =
        cache.key(conv.src, conv.dst, 2, conv.spec);
    service::Singleflight flights;
    auto &timeoutCounter = metrics::counter("service.singleflight.timeout");
    const int64_t timeoutsBefore = timeoutCounter.value();

    // The leader's work holds the flight open until the test releases
    // it, so the follower below is guaranteed to find the flight open.
    std::atomic<bool> release{false};
    service::FlightResult leaderResult;
    std::thread leader([&] {
        leaderResult = flights.run(key, [&]() {
            while (!release.load())
                std::this_thread::yield();
            return service::planAndPublish(&cache, &key, conv.src,
                                           conv.dst, 2, conv.spec);
        });
    });
    while (flights.stats().leaders == 0)
        std::this_thread::yield();

    // A deadline already in the past: the follower returns at once,
    // without waiting for the leader and without planning.
    auto follower = service::serveConversionCoalesced(
        &cache, &flights, conv.src, conv.dst, 2, conv.spec,
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
    EXPECT_EQ(follower.role, service::FlightRole::TimedOut);
    EXPECT_FALSE(follower.outcome.planned());
    EXPECT_NE(follower.outcome.error.find("deadline-exceeded"),
              std::string::npos);
    EXPECT_EQ(flights.stats().timeouts, 1);
    EXPECT_EQ(timeoutCounter.value() - timeoutsBefore, 1);

    release.store(true);
    leader.join();

    // The timeout changed nothing about what was planned or cached.
    EXPECT_EQ(leaderResult.role, service::FlightRole::Leader);
    ASSERT_TRUE(leaderResult.outcome.planned())
        << leaderResult.outcome.error;
    auto direct =
        codegen::tryPlanConversion(conv.src, conv.dst, 2, conv.spec);
    ASSERT_TRUE(direct.has_value());
    EXPECT_NE(direct->kind, codegen::ConversionKind::SharedScalar);
    EXPECT_EQ(codegen::describePlan(*leaderResult.outcome.plan),
              codegen::describePlan(*direct));
    EXPECT_EQ(cache.size(), 1);
    EXPECT_EQ(cache.stats().insertRefusals, 0);
}

TEST_F(AdmissionTest, ShedNewestRefusesTheOfferedJob)
{
    service::AdmissionQueue queue(
        {2, service::AdmissionPolicy::ShedNewest});
    std::vector<service::ServerJob> shed;
    service::ServerJob job;
    job.seq = 1;
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Admitted);
    job.seq = 2;
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Admitted);
    job.seq = 3;
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Shed);
    EXPECT_TRUE(shed.empty());

    service::ServerJob out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.seq, 1u);
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.seq, 2u);
    const auto stats = queue.stats();
    EXPECT_EQ(stats.admitted, 2);
    EXPECT_EQ(stats.shedNewest, 1);
    EXPECT_EQ(stats.shedTotal(), 1);
    EXPECT_EQ(stats.maxDepth, 2);
}

TEST_F(AdmissionTest, ShedOldestEvictsTheHeadAndAdmitsTheOffer)
{
    service::AdmissionQueue queue(
        {2, service::AdmissionPolicy::ShedOldest});
    std::vector<service::ServerJob> shed;
    service::ServerJob job;
    job.seq = 1;
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Admitted);
    job.seq = 2;
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Admitted);
    job.seq = 3;
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Admitted);
    // The oldest job came back on the shed list for a definite
    // terminal outcome; the queue holds the two newest.
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0].seq, 1u);

    service::ServerJob out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.seq, 2u);
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.seq, 3u);
    const auto stats = queue.stats();
    EXPECT_EQ(stats.admitted, 3);
    EXPECT_EQ(stats.shedOldest, 1);
}

TEST_F(AdmissionTest, BlockPolicyWaitsForSpaceAndClosedQueueSheds)
{
    service::AdmissionQueue queue({1, service::AdmissionPolicy::Block});
    std::vector<service::ServerJob> shed;
    service::ServerJob job;
    job.seq = 1;
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Admitted);

    std::atomic<bool> secondAdmitted{false};
    std::thread producer([&] {
        std::vector<service::ServerJob> producerShed;
        service::ServerJob second;
        second.seq = 2;
        auto result = queue.push(second, producerShed); // blocks
        EXPECT_EQ(result,
                  service::AdmissionQueue::PushResult::Admitted);
        secondAdmitted.store(true);
    });
    EXPECT_FALSE(secondAdmitted.load());
    service::ServerJob out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.seq, 1u);
    producer.join();
    EXPECT_TRUE(secondAdmitted.load());
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.seq, 2u);

    queue.close();
    job.seq = 3;
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Shed);
    EXPECT_FALSE(queue.pop(out)); // closed and drained
    EXPECT_EQ(queue.stats().shedClosed, 1);
}

TEST_F(AdmissionTest, AdmitFailpointShedsRegardlessOfCapacity)
{
    service::AdmissionQueue queue(
        {8, service::AdmissionPolicy::ShedNewest});
    std::vector<service::ServerJob> shed;
    service::ServerJob job;
    failpoint::activate("svc.admit", 1);
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Shed);
    failpoint::deactivate("svc.admit");
    EXPECT_EQ(queue.stats().shedFailpoint, 1);
    EXPECT_EQ(queue.push(job, shed),
              service::AdmissionQueue::PushResult::Admitted);
}

TEST_F(ServerLoopTest, AFailedServeRequestRunsOnce)
{
    SharedConversion conv;
    service::PlanCache cache;
    service::CompileService::Options options;
    options.threads = 1;
    options.cache = &cache;
    service::CompileService svc{options};

    std::vector<service::CompileRequest> stream;
    stream.push_back(
        conversionRequest("once-probe", conv.src, conv.dst, conv.spec));

    service::CompileService::ServerConfig cfg;
    cfg.ratePerSec = 1e5;
    cfg.durationSec = 0.01;
    cfg.maxRequests = 1;
    cfg.seed = 7;

    // Two shots armed, one attempt made: the request fails on the
    // first and never asks again.
    failpoint::activate("svc.singleflight.leader", 2);
    auto report = svc.serve(stream, cfg);
    const int64_t leaderHits =
        failpoint::hitCount("svc.singleflight.leader");
    failpoint::deactivate("svc.singleflight.leader");

    EXPECT_EQ(report.requests, 1);
    EXPECT_EQ(report.failed, 1);
    EXPECT_EQ(report.planned, 0);
    EXPECT_EQ(leaderHits, 1);
    // The failure was never cached.
    EXPECT_EQ(cache.size(), 0);

    auto clean = svc.serve(stream, cfg);
    EXPECT_EQ(clean.planned, 1);
    EXPECT_EQ(cache.size(), 1);
}

TEST_F(ServerLoopTest, QueueTimeoutFailpointExpiresTheRequest)
{
    SharedConversion conv;
    service::PlanCache cache;
    service::CompileService::Options options;
    options.threads = 1;
    options.cache = &cache;
    service::CompileService svc{options};

    std::vector<service::CompileRequest> stream;
    stream.push_back(
        conversionRequest("timeout-probe", conv.src, conv.dst,
                          conv.spec));

    service::CompileService::ServerConfig cfg;
    cfg.ratePerSec = 1e5;
    cfg.durationSec = 0.01;
    cfg.maxRequests = 1;
    cfg.seed = 7;

    failpoint::activate("svc.queue.timeout", 1);
    auto report = svc.serve(stream, cfg);
    failpoint::deactivate("svc.queue.timeout");
    EXPECT_EQ(report.deadlineExceeded, 1);
    EXPECT_EQ(report.planned, 0);

    auto clean = svc.serve(stream, cfg);
    EXPECT_EQ(clean.planned, 1);
}

TEST_F(ServerLoopTest, EveryArrivalLandsInExactlyOneOutcomeBucket)
{
    SharedConversion conv;
    service::PlanCache cache;
    service::CompileService::Options options;
    options.threads = 2;
    options.cache = &cache;
    // A 500us per-request floor makes 2 workers saturate at ~4k req/s,
    // so a 20k req/s offered rate must shed on the 4-deep queue.
    options.serviceFloorUs = 500.0;
    service::CompileService svc{options};

    std::vector<service::CompileRequest> stream;
    stream.push_back(
        conversionRequest("overload-a", conv.src, conv.dst, conv.spec));
    stream.push_back(
        conversionRequest("overload-b", conv.src, conv.src, conv.spec));

    service::CompileService::ServerConfig cfg;
    cfg.ratePerSec = 20000.0;
    cfg.durationSec = 0.5;
    cfg.maxRequests = 400;
    cfg.seed = 42;
    cfg.queueCapacity = 4;
    cfg.policy = service::AdmissionPolicy::ShedOldest;
    cfg.sloP99Ms = 1000.0;

    auto report = svc.serve(stream, cfg);
    EXPECT_EQ(report.requests, 400);
    EXPECT_EQ(static_cast<int64_t>(report.responses.size()),
              report.requests);
    // The split is a partition: every arrival terminated exactly once.
    EXPECT_EQ(report.planned + report.shed + report.deadlineExceeded +
                  report.failed,
              report.requests);
    EXPECT_GT(report.shed, 0) << "2x+ overload on a 4-deep queue must "
                                 "shed";
    EXPECT_EQ(report.failed, 0);
    EXPECT_EQ(report.shed, report.queueStats.shedTotal());
    for (const auto &resp : report.responses) {
        if (resp.outcome == service::RequestOutcome::Shed) {
            EXPECT_FALSE(resp.ok);
        }
    }
}

TEST_F(ServerLoopTest, BatchRunReportsTheOutcomeSplit)
{
    SharedConversion conv;
    service::PlanCache cache;
    service::CompileService::Options options;
    options.threads = 4;
    options.cache = &cache;
    service::CompileService svc{options};

    std::vector<service::CompileRequest> requests;
    for (int i = 0; i < 12; ++i)
        requests.push_back(conversionRequest(
            "batch-" + std::to_string(i), conv.src, conv.dst,
            conv.spec));

    auto report = svc.run(requests);
    EXPECT_EQ(report.requests, 12);
    EXPECT_EQ(report.planned, 12);
    EXPECT_EQ(report.shed, 0);
    EXPECT_EQ(report.deadlineExceeded, 0);
    EXPECT_EQ(report.failed, 0);
    // One fresh plan; the other eleven were coalesced or cache hits.
    EXPECT_EQ(report.freshPlans, 1);
    EXPECT_EQ(cache.size(), 1);
}

} // namespace
} // namespace ll
