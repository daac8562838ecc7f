/**
 * @file
 * The compilation service's contracts: layout interning canonicalizes
 * structurally equal layouts to one pointer; the sharded plan cache
 * shares immutable plans, evicts LRU, holds plans only (a rejected
 * request is validated afresh every time), and refuses inserts under
 * fault injection; the engine distinguishes plan-cache
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
#include <map>
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
#include "support/metrics.h"

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

TEST_F(PlanCacheTest, PeekIsStatFreeAndLruNeutral)
{
    service::PlanCache::Config config;
    config.capacity = 2;
    config.shards = 1; // deterministic: one LRU list
    service::PlanCache cache(config);
    const auto spec = sim::GpuSpec::gh200();
    auto keyFor = [&](int size) {
        return cache.key(regLayout(size), regLayout(size), 4, spec);
    };

    auto plan = std::make_shared<const codegen::ConversionPlan>();
    ASSERT_TRUE(cache.insert(keyFor(2), plan));
    ASSERT_TRUE(cache.insert(keyFor(4), codegen::ConversionPlan{}));
    const auto before = cache.stats();
    auto seen = cache.peek(keyFor(2));
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(seen->plan.get(), plan.get());
    EXPECT_FALSE(cache.peek(keyFor(8)).has_value());
    // peek moved no counters...
    EXPECT_EQ(cache.stats().lookups(), before.lookups());
    EXPECT_EQ(cache.stats().hits, before.hits);
    EXPECT_EQ(cache.stats().misses, before.misses);

    // ...and refreshed no recency: the peeked entry is still the
    // coldest, so the next insert evicts it.
    ASSERT_TRUE(cache.insert(keyFor(8), codegen::ConversionPlan{}));
    EXPECT_FALSE(cache.peek(keyFor(2)).has_value());
    EXPECT_TRUE(cache.peek(keyFor(4)).has_value());
    EXPECT_EQ(cache.stats().evictions, 1);
}

TEST_F(PlanCacheTest, InsertsAreRefusedWhileAnyFailpointIsActive)
{
    service::PlanCache cache;
    const auto spec = sim::GpuSpec::gh200();
    auto key = cache.key(regLayout(4), regLayout(4), 4, spec);

    {
        failpoint::ScopedSet guard({"fp.cache.global"});
        EXPECT_FALSE(cache.insert(key, codegen::ConversionPlan{}));
    }
    {
        failpoint::ScopedThreadLocal guard({"fp.cache.local"});
        EXPECT_FALSE(cache.insert(key, codegen::ConversionPlan{}));
    }
    EXPECT_EQ(cache.stats().insertRefusals, 2);
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

// Planning is a pure function of its key, so a rejection is never
// cached: every request for an InvalidInput pair is a miss that
// validates afresh, and each answer renders the same error.
TEST_F(ServiceTest, InvalidInputIsRejectedAfreshWithoutCaching)
{
    service::PlanCache cache;
    engine::EngineOptions options;
    options.planCache = &cache;
    const ir::TensorType type{ir::DType::F32, {128}};
    // The engine's own anchor against a layout of a smaller tensor:
    // the output spaces differ, so the planner rejects the pair.
    const LinearLayout src =
        engine::LayoutEngine{options}.anchorForMemory(type);
    const LinearLayout dst = LinearLayout::identity1D(
        2, dims::kReg, src.getOutDimNames().front());
    const auto &spec = options.spec;

    std::vector<std::string> errors;
    auto expectMissed = [&](const std::string &what) {
        const auto stats = cache.stats();
        EXPECT_EQ(stats.misses, static_cast<int64_t>(errors.size()))
            << what;
        EXPECT_EQ(stats.hits, 0) << what;
        EXPECT_EQ(stats.inserts, 0) << what;
        EXPECT_EQ(cache.size(), 0) << what;
    };
    for (int i = 0; i < 2; ++i) {
        auto served = service::serveConversion(&cache, src, dst, 4, spec);
        EXPECT_FALSE(served.planned());
        EXPECT_FALSE(served.fromCache);
        errors.push_back(served.error);
        expectMissed("serveConversion #" + std::to_string(i));
    }
    service::Singleflight flights;
    for (int i = 0; i < 2; ++i) {
        auto flight = service::serveConversionCoalesced(
            &cache, &flights, src, dst, 4, spec);
        EXPECT_EQ(flight.role, service::FlightRole::Leader);
        EXPECT_FALSE(flight.outcome.planned());
        EXPECT_FALSE(flight.outcome.fromCache);
        errors.push_back(flight.outcome.error);
        expectMissed("serveConversionCoalesced #" + std::to_string(i));
    }

    // The same pair as a kernel op: load, convert to `dst`, store.
    ir::Function f("invalid-convert");
    const int loaded = f.load(type);
    const int converted = f.convertLayout(loaded, dst);
    f.store(converted);
    auto stats = engine::LayoutEngine{options}.run(f);
    EXPECT_EQ(stats.planFailures, 1);
    EXPECT_EQ(stats.planCacheMisses, 1);
    EXPECT_EQ(stats.planCacheHits, 0);
    EXPECT_EQ(f.op(f.value(converted).defOp).tag,
              ir::kUnplannedConvertTag);
    ASSERT_EQ(stats.planDiagnostics.size(), 1u);
    const std::string prefix =
        "op " + std::to_string(f.value(converted).defOp) + ": ";
    ASSERT_EQ(stats.planDiagnostics[0].rfind(prefix, 0), 0u)
        << stats.planDiagnostics[0];
    errors.push_back(stats.planDiagnostics[0].substr(prefix.size()));
    expectMissed("kernel op");

    ASSERT_EQ(errors.size(), 5u);
    EXPECT_NE(errors[0].find(toString(DiagCode::InvalidInput)),
              std::string::npos)
        << errors[0];
    for (const auto &e : errors)
        EXPECT_EQ(e, errors[0]);
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
                    if (hit->plan)
                        hits.fetch_add(1, std::memory_order_relaxed);
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
    // The engine takes no per-run registry delta; this single-threaded
    // test takes its own around the runs it reads.
    auto &registry = metrics::Registry::instance();
    std::map<std::string, int64_t> baseMoved;
    for (const auto &spec : suite) {
        auto f = spec.build(spec.sizes.front());
        engine::LayoutEngine eng{engine::EngineOptions{}};
        const auto before = registry.counterSnapshot();
        base = eng.run(f);
        baseMoved = registry.counterDelta(before);
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
    const auto before = registry.counterSnapshot();
    auto run2 = warm.run(f2);
    const auto run2Moved = registry.counterDelta(before);
    EXPECT_EQ(run2.convertsPlanned, run1.convertsPlanned);
    EXPECT_EQ(run2.planCacheHits, run1.convertsPlanned);
    EXPECT_EQ(run2.planCacheMisses, 0);
    EXPECT_GT(run2Moved.at("engine.plan_cache_hits"), 0);
    EXPECT_EQ(baseMoved.count("engine.plan_cache_hits"), 0u);

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
    EXPECT_EQ(report.planned, report.requests) << failureText;
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
    EXPECT_EQ(report.totals.planFallbacks, sum.planFallbacks);
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
        EXPECT_EQ(report.planned, report.requests)
            << threads << " thread(s)";
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
    EXPECT_EQ(report.planned, report.requests);

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
