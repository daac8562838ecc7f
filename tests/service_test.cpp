/**
 * @file
 * The compilation service's contracts: layout interning canonicalizes
 * structurally equal layouts to one pointer; the sharded plan cache
 * shares immutable plans, evicts LRU, memoizes only deterministic
 * InvalidInput rejections (with a lookup-count TTL), and refuses
 * inserts under fault injection; the engine distinguishes plan-cache
 * hits from its private per-run cache with no double counting;
 * cached plans are bit-identical to freshly planned ones over the
 * whole committed corpus; and the thread-pool batch driver aggregates
 * stats race-free. The ≥8-thread stress test is the TSan target
 * (-DLL_SANITIZE=tsan).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/case_io.h"
#include "check/generators.h"
#include "codegen/conversion.h"
#include "engine/layout_engine.h"
#include "kernels.h"
#include "layout/dims.h"
#include "service/compile_service.h"
#include "service/conversion_service.h"
#include "service/interner.h"
#include "service/plan_cache.h"
#include "service/singleflight.h"
#include "support/failpoint.h"

namespace ll {
namespace {

using check::ConversionCase;

const std::vector<ConversionCase> &
corpus()
{
    static const std::vector<ConversionCase> cases = [] {
        std::vector<std::string> paths;
        for (const auto &e :
             std::filesystem::directory_iterator(LL_CORPUS_DIR)) {
            if (e.path().extension() == ".txt")
                paths.push_back(e.path().string());
        }
        std::sort(paths.begin(), paths.end());
        std::vector<ConversionCase> out;
        for (const auto &p : paths)
            out.push_back(check::readCaseFile(p));
        return out;
    }();
    return cases;
}

LinearLayout
regLayout(int size)
{
    return LinearLayout::identity1D(size, dims::kReg, "dim0");
}

struct CleanFailpoints : ::testing::Test
{
    void SetUp() override { failpoint::clearAll(); }
    void TearDown() override { failpoint::clearAll(); }
};

using InternerTest = ::testing::Test;
using PlanCacheTest = CleanFailpoints;
using ServiceTest = CleanFailpoints;

TEST(InternerTest, StructurallyEqualLayoutsShareOneCanonicalObject)
{
    service::LayoutInterner interner;
    auto a = regLayout(8);
    auto b = regLayout(8); // equal, distinct object
    auto c = regLayout(16);

    service::LayoutRef ra = interner.intern(a);
    service::LayoutRef rb = interner.intern(b);
    service::LayoutRef rc = interner.intern(c);

    EXPECT_EQ(ra, rb);
    EXPECT_NE(ra, rc);
    EXPECT_NE(ra, &a); // canonical copy, not the caller's object
    EXPECT_EQ(*ra, a); // structurally identical
    EXPECT_EQ(interner.size(), 2);
    auto stats = interner.stats();
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.hits, 1);
}

TEST(InternerTest, StructuralHashAgreesWithEquality)
{
    // Equal layouts must hash equal (the interner's bucket invariant);
    // and the hash must see every component equality sees.
    EXPECT_EQ(regLayout(8).structuralHash(),
              regLayout(8).structuralHash());
    EXPECT_NE(regLayout(8).structuralHash(),
              regLayout(16).structuralHash());
    EXPECT_NE(
        regLayout(8).structuralHash(),
        LinearLayout::identity1D(8, dims::kLane, "dim0").structuralHash());
    for (const auto &c : corpus()) {
        LinearLayout copy = c.src;
        EXPECT_EQ(c.src.structuralHash(), copy.structuralHash());
    }
}

TEST(InternerTest, CorpusLayoutsInternToDistinctStableRefs)
{
    service::LayoutInterner interner;
    std::vector<service::LayoutRef> first;
    for (const auto &c : corpus())
        first.push_back(interner.intern(c.src));
    // Re-interning returns the same pointers: handles are stable, and
    // pointer equality is layout equality.
    for (size_t i = 0; i < corpus().size(); ++i)
        EXPECT_EQ(interner.intern(corpus()[i].src), first[i]);
}

TEST_F(PlanCacheTest, HitSharesTheInsertedPlanObject)
{
    service::PlanCache cache;
    const auto spec = sim::GpuSpec::gh200();
    const auto &c = corpus().front();
    auto key = cache.key(c.src, c.dst, c.elemBytes, spec);

    EXPECT_FALSE(cache.lookup(key).has_value());
    auto plan = std::make_shared<const codegen::ConversionPlan>();
    ASSERT_TRUE(cache.insert(key, plan));
    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->negative());
    EXPECT_EQ(hit->plan.get(), plan.get()); // same object, no copy

    auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.inserts, 1);
    EXPECT_EQ(cache.size(), 1);
}

TEST_F(PlanCacheTest, KeysAreCanonicalAcrossEqualLayoutCopies)
{
    service::PlanCache cache;
    const auto spec = sim::GpuSpec::gh200();
    const auto &c = corpus().front();
    LinearLayout srcCopy = c.src;
    LinearLayout dstCopy = c.dst;
    auto k1 = cache.key(c.src, c.dst, c.elemBytes, spec);
    auto k2 = cache.key(srcCopy, dstCopy, c.elemBytes, spec);
    EXPECT_TRUE(k1 == k2);
    // Same endpoints, different width or spec: different key.
    auto k3 = cache.key(c.src, c.dst, c.elemBytes * 2, spec);
    EXPECT_FALSE(k1 == k3);
    auto k4 =
        cache.key(c.src, c.dst, c.elemBytes, sim::GpuSpec::rtx4090());
    EXPECT_FALSE(k1 == k4);
}

TEST_F(PlanCacheTest, LruEvictionDropsTheColdestEntry)
{
    service::PlanCache::Config config;
    config.capacity = 2;
    config.shards = 1; // deterministic: one LRU list
    service::PlanCache cache(config);
    const auto spec = sim::GpuSpec::gh200();

    auto keyFor = [&](int size) {
        return cache.key(regLayout(size), regLayout(size), 4, spec);
    };
    ASSERT_TRUE(cache.insert(keyFor(2), codegen::ConversionPlan{}));
    ASSERT_TRUE(cache.insert(keyFor(4), codegen::ConversionPlan{}));
    // Touch the first entry so the second is now coldest.
    EXPECT_TRUE(cache.lookup(keyFor(2)).has_value());
    ASSERT_TRUE(cache.insert(keyFor(8), codegen::ConversionPlan{}));

    EXPECT_EQ(cache.size(), 2);
    EXPECT_TRUE(cache.lookup(keyFor(2)).has_value());
    EXPECT_FALSE(cache.lookup(keyFor(4)).has_value()); // evicted
    EXPECT_TRUE(cache.lookup(keyFor(8)).has_value());
    EXPECT_EQ(cache.stats().evictions, 1);
}

TEST_F(PlanCacheTest, OnlyInvalidInputRejectionsAreMemoized)
{
    service::PlanCache::Config config;
    config.negativeTtlLookups = 100;
    service::PlanCache cache(config);
    const auto spec = sim::GpuSpec::gh200();
    auto key = cache.key(regLayout(2), regLayout(4), 4, spec);

    // Non-deterministic failure codes are never cached.
    EXPECT_FALSE(cache.insertRejection(
        key, makeDiag(DiagCode::FailpointInjected, "t", "injected")));
    EXPECT_FALSE(cache.insertRejection(
        key, makeDiag(DiagCode::PlannerInternalError, "t", "boom")));
    EXPECT_FALSE(cache.lookup(key).has_value());

    ASSERT_TRUE(cache.insertRejection(
        key, makeDiag(DiagCode::InvalidInput, "t", "bad width")));
    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->negative());
    EXPECT_EQ(hit->rejection->code, DiagCode::InvalidInput);
    auto stats = cache.stats();
    EXPECT_EQ(stats.negativeInserts, 1);
    EXPECT_EQ(stats.negativeHits, 1);
    EXPECT_EQ(stats.insertRefusals, 2);
}

TEST_F(PlanCacheTest, NegativeEntriesExpireAfterTtlLookups)
{
    service::PlanCache::Config config;
    config.shards = 1;
    config.negativeTtlLookups = 3;
    service::PlanCache cache(config);
    const auto spec = sim::GpuSpec::gh200();
    auto key = cache.key(regLayout(2), regLayout(4), 4, spec);
    auto other = cache.key(regLayout(8), regLayout(8), 4, spec);

    ASSERT_TRUE(cache.insertRejection(
        key, makeDiag(DiagCode::InvalidInput, "t", "bad")));
    EXPECT_TRUE(cache.lookup(key).has_value());
    // Age the shard past the TTL with unrelated lookups.
    for (int i = 0; i < 4; ++i)
        (void)cache.lookup(other);
    EXPECT_FALSE(cache.lookup(key).has_value()); // expired
    EXPECT_EQ(cache.stats().negativeExpired, 1);

    // TTL <= 0 disables negative caching outright.
    service::PlanCache::Config off;
    off.negativeTtlLookups = 0;
    service::PlanCache noNeg(off);
    EXPECT_FALSE(noNeg.insertRejection(
        noNeg.key(regLayout(2), regLayout(4), 4, spec),
        makeDiag(DiagCode::InvalidInput, "t", "bad")));
}

TEST_F(PlanCacheTest, PeekIsStatFreeAndTreatsExpiredNegativesAsMisses)
{
    service::PlanCache::Config config;
    config.shards = 1;
    config.negativeTtlLookups = 2;
    service::PlanCache cache(config);
    const auto spec = sim::GpuSpec::gh200();
    auto key = cache.key(regLayout(2), regLayout(4), 4, spec);
    auto other = cache.key(regLayout(8), regLayout(8), 4, spec);

    ASSERT_TRUE(cache.insertRejection(
        key, makeDiag(DiagCode::InvalidInput, "t", "bad")));
    const auto before = cache.stats();
    auto fresh = cache.peek(key);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_TRUE(fresh->negative());
    // peek moved no counters and advanced no lookup generation.
    EXPECT_EQ(cache.stats().lookups(), before.lookups());
    EXPECT_EQ(cache.stats().negativeHits, before.negativeHits);

    // Age the shard past the TTL; the entry is left in place (peek
    // never reaps) but must read as a miss.
    for (int i = 0; i < 3; ++i)
        (void)cache.lookup(other);
    EXPECT_FALSE(cache.peek(key).has_value());
    EXPECT_EQ(cache.stats().negativeExpired, 0); // reaping is lookup's
}

TEST_F(ServiceTest, NegativeEntryExpiringMidFlightDoesNotSuppressPlan)
{
    // The PR-6 TTL edge: a negative entry that expires while a
    // singleflight leader holds the flight must not make the leader's
    // double-check peek() serve the stale rejection — the leader must
    // plan fresh and publish.
    service::PlanCache::Config config;
    config.shards = 1;
    config.negativeTtlLookups = 2;
    service::PlanCache cache(config);
    const auto spec = sim::GpuSpec::gh200();
    const auto src = regLayout(8);
    const auto dst = regLayout(8); // valid conversion (no-op plan)
    const auto key = cache.key(src, dst, 4, spec);
    const auto other = cache.key(regLayout(16), regLayout(16), 4, spec);

    service::Singleflight flights;
    auto result = flights.run(key, [&]() {
        // While the flight is open: a (fabricated) stale rejection
        // lands under our key, then ages past its TTL.
        EXPECT_TRUE(cache.insertRejection(
            key, makeDiag(DiagCode::InvalidInput, "t", "stale")));
        for (int i = 0; i < 3; ++i)
            (void)cache.lookup(other);
        // The leader's double-check must read the expired negative as
        // a miss and fall through to fresh planning.
        EXPECT_FALSE(cache.peek(key).has_value());
        return service::planAndPublish(&cache, &key, src, dst, 4,
                                       spec);
    });
    ASSERT_TRUE(result.outcome.planned()) << result.outcome.error;
    EXPECT_FALSE(result.outcome.fromCache);

    // The fresh plan displaced the expired rejection.
    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->negative());
}

TEST_F(PlanCacheTest, PositiveEntryIsNeverDisplacedByARejection)
{
    service::PlanCache cache;
    const auto spec = sim::GpuSpec::gh200();
    auto key = cache.key(regLayout(4), regLayout(4), 4, spec);
    ASSERT_TRUE(cache.insert(key, codegen::ConversionPlan{}));
    EXPECT_FALSE(cache.insertRejection(
        key, makeDiag(DiagCode::InvalidInput, "t", "late rejection")));
    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->negative());
}

TEST_F(PlanCacheTest, InsertsAreRefusedWhileAnyFailpointIsActive)
{
    service::PlanCache cache;
    const auto spec = sim::GpuSpec::gh200();
    auto key = cache.key(regLayout(4), regLayout(4), 4, spec);

    {
        failpoint::ScopedSet guard({"fp.cache.global"});
        EXPECT_FALSE(cache.insert(key, codegen::ConversionPlan{}));
        EXPECT_FALSE(cache.insertRejection(
            key, makeDiag(DiagCode::InvalidInput, "t", "bad")));
    }
    {
        failpoint::ScopedThreadLocal guard({"fp.cache.local"});
        EXPECT_FALSE(cache.insert(key, codegen::ConversionPlan{}));
    }
    EXPECT_EQ(cache.stats().insertRefusals, 3);
    EXPECT_EQ(cache.size(), 0);

    // A plan *shaped* by a failpoint (drained limit-N activation) is
    // refused even with nothing active anymore.
    codegen::ConversionPlan shaped;
    shaped.diagnostics.note(DiagCode::FailpointInjected, "plan.noop",
                            "injected during planning");
    EXPECT_FALSE(cache.insert(key, std::move(shaped)));
    // With no failpoint anywhere, the same insert goes through.
    EXPECT_TRUE(cache.insert(key, codegen::ConversionPlan{}));
}

TEST_F(ServiceTest, ServeConversionPlansOnceThenServesTheSharedPlan)
{
    service::PlanCache cache;
    const auto &c = corpus().front();
    const auto spec = c.spec();

    auto first =
        service::serveConversion(&cache, c.src, c.dst, c.elemBytes, spec);
    ASSERT_TRUE(first.planned()) << first.error;
    EXPECT_FALSE(first.fromCache);

    auto second =
        service::serveConversion(&cache, c.src, c.dst, c.elemBytes, spec);
    ASSERT_TRUE(second.planned());
    EXPECT_TRUE(second.fromCache);
    // The same immutable plan object, not a copy.
    EXPECT_EQ(second.plan.get(), first.plan.get());

    // Cacheless baseline plans fresh every time.
    auto fresh = service::serveConversion(nullptr, c.src, c.dst,
                                          c.elemBytes, spec);
    ASSERT_TRUE(fresh.planned());
    EXPECT_FALSE(fresh.fromCache);
    EXPECT_NE(fresh.plan.get(), first.plan.get());
}

// Over the whole committed corpus: the plan served from the cache must
// be indistinguishable — same detailed rendering, same modeled cost —
// from one planned fresh, so cache placement can never change codegen.
TEST_F(ServiceTest, CachedPlansAreBitIdenticalToFreshOnes)
{
    service::PlanCache cache;
    for (const auto &c : corpus()) {
        const auto spec = c.spec();
        auto warm = service::serveConversion(&cache, c.src, c.dst,
                                             c.elemBytes, spec);
        auto cached = service::serveConversion(&cache, c.src, c.dst,
                                               c.elemBytes, spec);
        auto fresh =
            codegen::tryPlanConversion(c.src, c.dst, c.elemBytes, spec);
        ASSERT_TRUE(warm.planned()) << c.summary << ": " << warm.error;
        ASSERT_TRUE(cached.fromCache) << c.summary;
        ASSERT_TRUE(fresh.ok()) << c.summary;
        EXPECT_EQ(codegen::describePlan(*cached.plan),
                  codegen::describePlan(*fresh))
            << c.summary;
        EXPECT_EQ(cached.plan->estimateCycles(c.src, c.elemBytes, spec),
                  fresh->estimateCycles(c.src, c.elemBytes, spec))
            << c.summary;
    }
}

// ≥8 threads hammer one interner and one deliberately tiny plan cache
// with overlapping keys, so lookups, inserts, LRU splices, and
// evictions collide constantly. Run under -DLL_SANITIZE=tsan this is
// the service's data-race proof; the functional assertions are
// liveness and conservation of the stats totals.
TEST_F(ServiceTest, StressInternerAndCacheUnderConcurrentEviction)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 400;
    constexpr int kKeys = 12;

    service::LayoutInterner interner;
    service::PlanCache::Config config;
    config.capacity = 4; // far fewer slots than hot keys
    config.shards = 2;
    config.negativeTtlLookups = 16;
    config.interner = &interner;
    service::PlanCache cache(config);
    const auto spec = sim::GpuSpec::gh200();

    std::atomic<int64_t> hits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const int which = (t + i) % kKeys;
                LinearLayout l = regLayout(1 << (which % 5));
                auto key = cache.key(l, regLayout(1 << (which % 4)),
                                     1 << (which % 3), spec);
                if (auto hit = cache.lookup(key)) {
                    if (!hit->negative() && hit->plan)
                        hits.fetch_add(1, std::memory_order_relaxed);
                } else if (which % 3 == 0) {
                    (void)cache.insertRejection(
                        key, makeDiag(DiagCode::InvalidInput, "stress",
                                      "synthetic"));
                } else {
                    (void)cache.insert(key,
                                       codegen::ConversionPlan{});
                }
                (void)interner.intern(l);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    auto stats = cache.stats();
    EXPECT_EQ(stats.lookups(), kThreads * kIters);
    EXPECT_GT(stats.evictions, 0); // capacity 4 really did churn
    EXPECT_GT(hits.load(), 0);
    EXPECT_LE(cache.size(), 4);
    // Interning the same handful of layouts from 8 threads produced
    // one canonical object per distinct layout, not one per thread.
    EXPECT_LE(interner.size(), 5 + kKeys);
}

// The engine's two caches must stay distinguishable: a run without a
// shared cache serves its repeats from a private per-run cache that is
// never counted as plan-cache traffic, while a second engine run over
// the same kernel serves every conversion from the shared plan cache
// — no double counting anywhere.
TEST_F(ServiceTest, EngineDistinguishesPlanCacheFromSmokeCache)
{
    auto suite = kernels::allKernels();
    ASSERT_FALSE(suite.empty());
    // Pick a kernel that actually plans conversions.
    const kernels::KernelSpec *pick = nullptr;
    engine::EngineStats base;
    for (const auto &spec : suite) {
        auto f = spec.build(spec.sizes.front());
        engine::LayoutEngine eng{engine::EngineOptions{}};
        base = eng.run(f);
        if (base.convertsPlanned > 0) {
            pick = &spec;
            break;
        }
    }
    ASSERT_NE(pick, nullptr) << "no kernel plans any conversion";
    EXPECT_EQ(base.planCacheHits, 0);
    EXPECT_EQ(base.planCacheMisses, 0); // no cache configured

    service::PlanCache cache;
    engine::EngineOptions options;
    options.planCache = &cache;

    auto f1 = pick->build(pick->sizes.front());
    engine::LayoutEngine cold{options};
    auto run1 = cold.run(f1);
    EXPECT_EQ(run1.convertsPlanned, base.convertsPlanned);
    EXPECT_GT(run1.planCacheMisses, 0);
    // Every planned op consulted the cache exactly once (hit or miss).
    EXPECT_GE(run1.planCacheHits + run1.planCacheMisses,
              run1.convertsPlanned);

    auto f2 = pick->build(pick->sizes.front());
    engine::LayoutEngine warm{options};
    auto run2 = warm.run(f2);
    EXPECT_EQ(run2.convertsPlanned, run1.convertsPlanned);
    EXPECT_EQ(run2.planCacheHits, run1.convertsPlanned);
    EXPECT_EQ(run2.planCacheMisses, 0);
    EXPECT_GT(run2.metrics.at("engine.plan_cache_hits"), 0);
    EXPECT_EQ(base.metrics.count("engine.plan_cache_hits"), 0u);

    // And the lowering is unchanged by cache placement: same tags.
    std::vector<std::string> tags1, tags2;
    for (int i = 0; i < f1.numOps(); ++i)
        if (!f1.op(i).erased)
            tags1.push_back(f1.op(i).tag);
    for (int i = 0; i < f2.numOps(); ++i)
        if (!f2.op(i).erased)
            tags2.push_back(f2.op(i).tag);
    EXPECT_EQ(tags1, tags2);
}

TEST_F(ServiceTest, BatchDriverAggregatesExactlyThePerResponseStats)
{
    service::PlanCache cache;
    std::vector<service::CompileRequest> requests;
    // Conversion requests: every corpus case, twice (the second pass
    // must hit the cache).
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &c : corpus()) {
            auto conv = std::make_shared<service::ConversionRequest>();
            conv->src = c.src;
            conv->dst = c.dst;
            conv->elemBytes = c.elemBytes;
            conv->spec = c.spec();
            service::CompileRequest req;
            req.name = c.summary;
            req.conversion = std::move(conv);
            requests.push_back(std::move(req));
        }
    }
    // Plus one whole-kernel compilation through the same cache.
    auto suite = kernels::allKernels();
    service::CompileRequest kernelReq;
    kernelReq.name = "kernel:" + suite.front().name;
    kernelReq.build = [build = suite.front().build,
                       size = suite.front().sizes.front()]() {
        return build(size);
    };
    requests.push_back(std::move(kernelReq));

    service::CompileService::Options options;
    options.threads = 4;
    options.cache = &cache;
    service::CompileService svc{options};
    auto report = svc.run(requests);

    EXPECT_EQ(report.requests,
              static_cast<int64_t>(requests.size()));
    EXPECT_EQ(report.responses.size(), requests.size());
    std::string failureText;
    for (const auto &r : report.responses)
        if (!r.ok)
            failureText += r.name + ": " + r.error + "\n";
    EXPECT_EQ(report.failures, 0) << failureText;
    EXPECT_GE(report.wallMs, 0.0);
    EXPECT_GE(report.p90LatencyUs, report.p50LatencyUs);

    // The totals are exactly the sum of the per-response stats — the
    // race-free-aggregation contract.
    engine::EngineStats sum;
    for (const auto &resp : report.responses)
        service::accumulateStats(sum, resp.stats);
    EXPECT_EQ(report.totals.convertsPlanned, sum.convertsPlanned);
    EXPECT_EQ(report.totals.planCacheHits, sum.planCacheHits);
    EXPECT_EQ(report.totals.planCacheMisses, sum.planCacheMisses);
    EXPECT_EQ(report.totals.planFailures, sum.planFailures);
    EXPECT_EQ(report.totals.execFailures, sum.execFailures);
    EXPECT_EQ(report.totals.planDiagnostics.size(),
              sum.planDiagnostics.size());

    // Every second-pass conversion hit: at least one hit per corpus
    // case, and every case was looked up at least twice.
    EXPECT_GE(report.totals.planCacheHits,
              static_cast<int>(corpus().size()));
    auto cs = cache.stats();
    EXPECT_GE(cs.lookups(),
              static_cast<int64_t>(2 * corpus().size()));
}

// Each engine run's metric map is a process-wide registry delta, so
// under concurrency it also holds the other workers' increments, and a
// sum of those deltas counts them again. The report's metrics are one
// delta around the whole batch: exactly one engine.runs per kernel
// request, and the same planner counts as a single-threaded batch.
TEST_F(ServiceTest, BatchMetricsCountEachKernelRunOnceAcrossThreads)
{
    std::vector<service::CompileRequest> requests;
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &spec : kernels::allKernels()) {
            service::CompileRequest req;
            req.name = "kernel:" + spec.name;
            req.build = [build = spec.build,
                         size = spec.sizes.front()]() {
                return build(size);
            };
            requests.push_back(std::move(req));
        }
    }
    auto metricsWith = [&](int threads) {
        service::CompileService::Options options;
        options.threads = threads;
        service::CompileService svc{options};
        auto report = svc.run(requests);
        EXPECT_EQ(report.failures, 0) << threads << " thread(s)";
        return report.totals.metrics;
    };
    const auto serial = metricsWith(1);
    const auto parallel = metricsWith(8);
    EXPECT_EQ(parallel.at("engine.runs"),
              static_cast<int64_t>(requests.size()));
    EXPECT_EQ(serial.at("engine.runs"),
              static_cast<int64_t>(requests.size()));
    EXPECT_EQ(parallel.at("plan.planned"), serial.at("plan.planned"));
}

TEST_F(ServiceTest, LedgerAttributesEachConversionOnceAcrossThreads)
{
    // The service-side attribution contract: a coalesced 8-thread run
    // over a repeated stream — where singleflight leaders are the only
    // planners and repeat passes are served from the cache — plans
    // each distinct conversion exactly once, and every cached plan
    // renders the same as a plain single-threaded planner call.
    service::PlanCache cache;
    std::vector<service::CompileRequest> requests;
    for (int pass = 0; pass < 3; ++pass) {
        for (const auto &c : corpus()) {
            auto conv = std::make_shared<service::ConversionRequest>();
            conv->src = c.src;
            conv->dst = c.dst;
            conv->elemBytes = c.elemBytes;
            conv->spec = c.spec();
            service::CompileRequest req;
            req.name = c.summary;
            req.conversion = std::move(conv);
            requests.push_back(std::move(req));
        }
    }
    service::CompileService::Options options;
    options.threads = 8;
    options.cache = &cache;
    service::CompileService svc{options};
    auto report = svc.run(requests);
    EXPECT_EQ(report.failures, 0);

    const auto distinct = static_cast<int64_t>(corpus().size());
    EXPECT_EQ(report.totals.metrics["plan.planned"], distinct);
    EXPECT_EQ(report.freshPlans, distinct);
    for (const auto &c : corpus()) {
        const auto spec = c.spec();
        auto cached =
            cache.peek(cache.key(c.src, c.dst, c.elemBytes, spec));
        auto direct =
            codegen::tryPlanConversion(c.src, c.dst, c.elemBytes, spec);
        ASSERT_TRUE(cached.has_value() && cached->plan) << c.summary;
        ASSERT_TRUE(direct.ok()) << c.summary;
        EXPECT_EQ(codegen::describePlan(*cached->plan),
                  codegen::describePlan(*direct))
            << c.summary;
    }
}

} // namespace
} // namespace ll
