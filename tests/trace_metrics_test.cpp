/**
 * @file
 * Tests for the observability layer: span recording and nesting,
 * thread safety, Chrome trace-event JSON export (validated with the
 * same jsonlite parser llstat uses), histogram bucket semantics, the
 * Prometheus/JSON expositions, and the disabled-tracer guarantees
 * (no events, no allocations).
 *
 * Tests that record events flip the tracer on explicitly and restore
 * it; the binary is expected to run without LL_TRACE set (the
 * zero-allocation test skips itself otherwise).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/json_lite.h"
#include "support/metrics.h"
#include "support/trace.h"

// Allocation counter for the disabled-overhead guarantee. Counting
// operator new calls is global to the binary, so the assertion below
// only samples the delta across a tight, single-threaded window.
// GCC flags malloc/free inside replaced new/delete as mismatched even
// though the replacement set is consistent; silence that here only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<int64_t> gAllocs{0};

void *
operator new(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ll {
namespace {

/** RAII: tracing on with a clean buffer, restored to off afterwards. */
class ScopedTracing
{
  public:
    ScopedTracing()
    {
        trace::setEnabled(true);
        trace::clear();
    }
    ~ScopedTracing()
    {
        trace::setEnabled(false);
        trace::clear();
    }
};

const trace::Arg *
findArg(const trace::Event &e, const char *key)
{
    for (const auto &a : e.args) {
        if (std::string(a.key) == key)
            return &a;
    }
    return nullptr;
}

const trace::Event *
findEvent(const std::vector<trace::Event> &events, const char *name)
{
    for (const auto &e : events) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

TEST(Trace, SpansRecordNamesCategoriesAndArgs)
{
    ScopedTracing on;
    {
        trace::Span s("outer", "test");
        s.arg("count", 42);
        s.arg("cost", 1.5);
        s.arg("kind", "shared");
    }
    auto events = trace::snapshotEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].cat, "test");
    EXPECT_GE(events[0].durUs, 0.0);

    const auto *count = findArg(events[0], "count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->value, "42");
    EXPECT_FALSE(count->quoted);
    const auto *kind = findArg(events[0], "kind");
    ASSERT_NE(kind, nullptr);
    EXPECT_EQ(kind->value, "shared");
    EXPECT_TRUE(kind->quoted);
}

TEST(Trace, NestedSpansAreProperlyContained)
{
    ScopedTracing on;
    {
        trace::Span outer("outer", "test");
        {
            trace::Span mid("mid", "test");
            trace::Span inner("inner", "test");
            (void)inner;
            (void)mid;
        }
    }
    auto events = trace::snapshotEvents();
    ASSERT_EQ(events.size(), 3u);

    const auto *outer = findEvent(events, "outer");
    const auto *mid = findEvent(events, "mid");
    const auto *inner = findEvent(events, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(mid, nullptr);
    ASSERT_NE(inner, nullptr);

    // All on the same (dense) thread id, and each child's interval
    // inside its parent's.
    EXPECT_EQ(outer->tid, mid->tid);
    EXPECT_EQ(mid->tid, inner->tid);
    auto contains = [](const trace::Event &parent,
                       const trace::Event &child) {
        return parent.tsUs <= child.tsUs &&
               child.tsUs + child.durUs <= parent.tsUs + parent.durUs;
    };
    EXPECT_TRUE(contains(*outer, *mid));
    EXPECT_TRUE(contains(*mid, *inner));
}

TEST(Trace, FinishEndsASpanEarly)
{
    ScopedTracing on;
    trace::Span s("early", "test");
    ASSERT_TRUE(s.active());
    s.finish();
    EXPECT_FALSE(s.active());
    s.finish(); // idempotent
    EXPECT_EQ(trace::eventCount(), 1);
}

TEST(Trace, FourThreadsRecordWithoutLossOrTidCollision)
{
    // Mirrors failpoint_test's thread-smoke shape: four threads hammer
    // the recorder; every span must land, and each thread must get its
    // own dense tid.
    ScopedTracing on;
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 250;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                trace::Span s("worker", "test");
                s.arg("thread", t);
                s.arg("i", i);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    auto events = trace::snapshotEvents();
    ASSERT_EQ(events.size(),
              static_cast<size_t>(kThreads * kSpansPerThread));
    EXPECT_EQ(trace::droppedCount(), 0);

    // Each worker thread used one tid for all its spans, and no two
    // threads shared one.
    std::map<std::string, std::set<int>> tidsByThreadArg;
    for (const auto &e : events) {
        const auto *ta = findArg(e, "thread");
        ASSERT_NE(ta, nullptr);
        tidsByThreadArg[ta->value].insert(e.tid);
    }
    ASSERT_EQ(tidsByThreadArg.size(), static_cast<size_t>(kThreads));
    std::set<int> allTids;
    for (const auto &[arg, tids] : tidsByThreadArg) {
        EXPECT_EQ(tids.size(), 1u) << "thread arg " << arg;
        allTids.insert(*tids.begin());
    }
    EXPECT_EQ(allTids.size(), static_cast<size_t>(kThreads));
}

TEST(Trace, ChromeExportIsValidBalancedJson)
{
    // The golden-file shape check: the export must parse as JSON, wrap
    // a traceEvents array of complete ("ph":"X") events with numeric
    // ts/dur and object args, and the per-tid intervals must balance —
    // every pair of spans on a thread is either nested or disjoint,
    // never partially overlapping (the invariant scoped RAII spans
    // guarantee and Perfetto relies on to build flame graphs).
    ScopedTracing on;
    {
        trace::Span outer("outer", "test");
        outer.arg("kind", "shared \"quoted\" \\ with\nnewline");
        outer.arg("cycles", 12.75);
        { trace::Span inner("inner", "test"); }
        { trace::Span inner2("inner2", "test"); }
    }
    std::ostringstream os;
    trace::writeChromeTrace(os);

    auto parsed = jsonlite::parse(os.str());
    ASSERT_TRUE(parsed.has_value()) << os.str();
    ASSERT_TRUE(parsed->isObject());
    const auto *eventsJson = parsed->find("traceEvents");
    ASSERT_NE(eventsJson, nullptr);
    ASSERT_TRUE(eventsJson->isArray());
    ASSERT_EQ(eventsJson->items.size(), 3u);

    for (const auto &e : eventsJson->items) {
        ASSERT_TRUE(e.isObject());
        const auto *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_EQ(ph->str, "X");
        for (const char *field : {"ts", "dur", "pid", "tid"}) {
            const auto *v = e.find(field);
            ASSERT_NE(v, nullptr) << field;
            EXPECT_TRUE(v->isNumber()) << field;
        }
        const auto *name = e.find("name");
        ASSERT_NE(name, nullptr);
        EXPECT_TRUE(name->isString());
        // "args" is omitted for arg-less spans; when present it must
        // be an object.
        if (const auto *args = e.find("args")) {
            EXPECT_TRUE(args->isObject());
        }
    }

    // Balance check on the parsed output, per tid.
    struct Interval
    {
        double lo, hi;
    };
    std::map<double, std::vector<Interval>> byTid;
    for (const auto &e : eventsJson->items) {
        byTid[e.find("tid")->number].push_back(
            {e.find("ts")->number,
             e.find("ts")->number + e.find("dur")->number});
    }
    for (const auto &[tid, spans] : byTid) {
        for (size_t i = 0; i < spans.size(); ++i) {
            for (size_t j = i + 1; j < spans.size(); ++j) {
                const auto &a = spans[i];
                const auto &b = spans[j];
                const bool disjoint = a.hi <= b.lo || b.hi <= a.lo;
                const bool nested =
                    (a.lo <= b.lo && b.hi <= a.hi) ||
                    (b.lo <= a.lo && a.hi <= b.hi);
                EXPECT_TRUE(disjoint || nested)
                    << "partially overlapping spans on tid " << tid;
            }
        }
    }
}

TEST(Trace, FlushAndClearWritesConfiguredPathThenEmptiesBuffer)
{
    ScopedTracing on;
    const std::string saved = trace::outputPath();
    const std::string path =
        ::testing::TempDir() + "ll_trace_reset_test.json";
    trace::setOutputPath(path);

    { trace::Span s("segment-one", "test"); }
    ASSERT_EQ(trace::eventCount(), 1);
    EXPECT_TRUE(trace::flushAndClear());
    EXPECT_EQ(trace::eventCount(), 0);
    EXPECT_EQ(trace::droppedCount(), 0);

    // The flushed file holds the pre-reset segment.
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::ostringstream text;
    text << is.rdbuf();
    auto parsed = jsonlite::parse(text.str());
    ASSERT_TRUE(parsed.has_value());
    const auto *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items.size(), 1u);
    EXPECT_EQ(events->items[0].find("name")->str, "segment-one");

    // An empty buffer has nothing to flush; the clear is still a
    // no-op-safe reset.
    EXPECT_FALSE(trace::flushAndClear());
    trace::setOutputPath(saved);
    std::remove(path.c_str());
}

TEST(Trace, FlushAndClearResetsDroppedCountWithTheBuffer)
{
    ScopedTracing on;
    const std::string saved = trace::outputPath();
    trace::setOutputPath(""); // clear only, no file I/O
    // Overrun the soft cap so the recorder starts dropping.
    while (trace::droppedCount() == 0) {
        trace::Span s("filler", "test");
        (void)s;
    }
    EXPECT_GT(trace::droppedCount(), 0);
    EXPECT_FALSE(trace::flushAndClear()); // no path configured
    EXPECT_EQ(trace::eventCount(), 0);
    EXPECT_EQ(trace::droppedCount(), 0);
    trace::setOutputPath(saved);
}

TEST(Trace, DisabledSpanRecordsNothingAndNeverAllocates)
{
    if (std::getenv("LL_TRACE") != nullptr)
        GTEST_SKIP() << "LL_TRACE set; disabled-path test not valid";
    trace::setEnabled(false);
    trace::clear();

    const int64_t allocsBefore =
        gAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        trace::Span s("never", "test");
        s.arg("i", i);
        s.arg("cost", 0.5);
        s.arg("kind", "noop");
        EXPECT_FALSE(s.active());
    }
    const int64_t allocsAfter = gAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(allocsAfter, allocsBefore)
        << "disabled spans must not allocate";
    EXPECT_EQ(trace::eventCount(), 0);
}

TEST(Metrics, CountersAccumulateAndReset)
{
    auto &c = metrics::counter("test.counter_basic");
    c.reset();
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
    // Same name, same counter.
    EXPECT_EQ(&metrics::counter("test.counter_basic"), &c);
    c.reset();
    EXPECT_EQ(c.value(), 0);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpperBounds)
{
    auto &h = metrics::Registry::instance().histogram(
        "test.hist_bounds", {1.0, 10.0, 100.0});
    h.reset();
    for (double v : {0.5, 1.0, 5.0, 10.0, 100.0, 1000.0})
        h.observe(v);

    ASSERT_EQ(h.upperBounds().size(), 3u);
    auto buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u); // 3 bounds + overflow
    EXPECT_EQ(buckets[0], 2); // 0.5, 1.0 — bound is inclusive
    EXPECT_EQ(buckets[1], 2); // 5.0, 10.0
    EXPECT_EQ(buckets[2], 1); // 100.0
    EXPECT_EQ(buckets[3], 1); // 1000.0 overflows
    EXPECT_EQ(h.count(), 6);
    EXPECT_DOUBLE_EQ(h.sum(), 1116.5);
}

TEST(Metrics, PrometheusTextExpositionIsCumulativeAndSanitized)
{
    auto &c = metrics::counter("test.expo-counter");
    c.reset();
    c.add(7);
    auto &h = metrics::Registry::instance().histogram(
        "test.expo_hist", {1.0, 10.0});
    h.reset();
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);

    std::ostringstream os;
    metrics::Registry::instance().writeText(os);
    const std::string text = os.str();

    // Dots and dashes sanitize to underscores under the ll_ prefix.
    EXPECT_NE(text.find("ll_test_expo_counter 7"), std::string::npos)
        << text;
    // Histogram buckets are cumulative with a +Inf terminal.
    EXPECT_NE(text.find("ll_test_expo_hist_bucket{le=\"1\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("ll_test_expo_hist_bucket{le=\"10\"} 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("ll_test_expo_hist_bucket{le=\"+Inf\"} 3"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("ll_test_expo_hist_count 3"),
              std::string::npos)
        << text;
}

TEST(Metrics, ExponentialHistogramExposesInBothFormats)
{
    auto &h = metrics::Registry::instance().histogram(
        "test.expo_ratio_hist",
        {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    h.reset();
    h.observe(1.0);  // exactly on the le="1" bound — inclusive
    h.observe(0.01); // underflows into the first bucket
    h.observe(3.0);  // le="4"
    h.observe(500.0); // overflows past 128 into +Inf

    std::ostringstream os;
    metrics::Registry::instance().writeText(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("ll_test_expo_ratio_hist_bucket{le=\"0.125\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("ll_test_expo_ratio_hist_bucket{le=\"1\"} 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("ll_test_expo_ratio_hist_bucket{le=\"4\"} 3"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("ll_test_expo_ratio_hist_bucket{le=\"128\"} 3"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("ll_test_expo_ratio_hist_bucket{le=\"+Inf\"} 4"),
              std::string::npos)
        << text;

    std::ostringstream js;
    metrics::Registry::instance().writeJson(js);
    auto parsed = jsonlite::parse(js.str());
    ASSERT_TRUE(parsed.has_value()) << js.str();
    const auto *hist =
        parsed->find("histograms")->find("test.expo_ratio_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->number, 4.0);
    const auto *buckets = hist->find("buckets");
    ASSERT_TRUE(buckets->isArray());
    ASSERT_EQ(buckets->items.size(), 12u); // 11 bounds + overflow
    EXPECT_DOUBLE_EQ(buckets->items.front().find("le")->number, 0.125);
    // JSON buckets are per-bucket (not cumulative): the +Inf terminal
    // holds only the overflow observation.
    EXPECT_EQ(buckets->items.back().find("count")->number, 1.0);
}

TEST(Metrics, JsonExpositionParsesAndCarriesBuckets)
{
    auto &h = metrics::Registry::instance().histogram(
        "test.json_hist", {2.0});
    h.reset();
    h.observe(1.0);
    h.observe(3.0);

    std::ostringstream os;
    metrics::Registry::instance().writeJson(os);
    auto parsed = jsonlite::parse(os.str());
    ASSERT_TRUE(parsed.has_value()) << os.str();
    const auto *hists = parsed->find("histograms");
    ASSERT_NE(hists, nullptr);
    // writeJson exposes raw (unsanitized) registry names.
    const auto *hist = hists->find("test.json_hist");
    ASSERT_NE(hist, nullptr);
    const auto *count = hist->find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->number, 2.0);
    const auto *buckets = hist->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_TRUE(buckets->isArray());
    ASSERT_EQ(buckets->items.size(), 2u); // le=2 and overflow
}

} // namespace
} // namespace ll
