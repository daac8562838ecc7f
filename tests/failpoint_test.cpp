/**
 * @file
 * The failpoint registry's contract: deterministic single-thread
 * semantics (shot limits, hit counting whether or not a site is active,
 * env-style activation lifecycle) and safety of the process-global,
 * mutex-guarded site map under concurrent register/hit/clear traffic —
 * the prerequisite for running executors on multiple engine threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "support/failpoint.h"

namespace ll {
namespace {

// Each test starts from a clean registry; these sites are test-local so
// no production guard ever evaluates them.
struct RegistryReset : ::testing::Test
{
    void SetUp() override { failpoint::clearAll(); }
    void TearDown() override { failpoint::clearAll(); }
};

using FailpointTest = RegistryReset;
using FailpointThreads = RegistryReset;

TEST_F(FailpointTest, InactiveSiteNeverFiresButCountsHits)
{
    EXPECT_EQ(failpoint::hitCount("fp.test.idle"), 0);
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(LL_FAILPOINT("fp.test.idle"));
    EXPECT_EQ(failpoint::hitCount("fp.test.idle"), 5);
}

TEST_F(FailpointTest, ShotLimitConsumesExactlyThatManyEvaluations)
{
    failpoint::activate("fp.test.shots", 2);
    EXPECT_TRUE(LL_FAILPOINT("fp.test.shots"));
    EXPECT_TRUE(LL_FAILPOINT("fp.test.shots"));
    EXPECT_FALSE(LL_FAILPOINT("fp.test.shots"));
    EXPECT_EQ(failpoint::hitCount("fp.test.shots"), 3);
    // A drained limited activation no longer lists as active.
    for (const auto &s : failpoint::activeSites())
        EXPECT_NE(s, "fp.test.shots");
}

TEST_F(FailpointTest, UnlimitedActivationFiresUntilDeactivated)
{
    failpoint::activate("fp.test.unlimited");
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(LL_FAILPOINT("fp.test.unlimited"));
    failpoint::deactivate("fp.test.unlimited");
    EXPECT_FALSE(LL_FAILPOINT("fp.test.unlimited"));
}

TEST_F(FailpointTest, ScopedSetActivatesAllAndRestoresOnExit)
{
    {
        failpoint::ScopedSet guard({"fp.test.a", "fp.test.b"});
        EXPECT_TRUE(LL_FAILPOINT("fp.test.a"));
        EXPECT_TRUE(LL_FAILPOINT("fp.test.b"));
        EXPECT_EQ(failpoint::activeSites().size(), 2u);
    }
    EXPECT_FALSE(LL_FAILPOINT("fp.test.a"));
    EXPECT_FALSE(LL_FAILPOINT("fp.test.b"));
    EXPECT_TRUE(failpoint::activeSites().empty());
}

TEST_F(FailpointTest, ClearAllForgetsActivationsAndCounters)
{
    failpoint::activate("fp.test.clear");
    (void)LL_FAILPOINT("fp.test.clear");
    failpoint::clearAll();
    EXPECT_FALSE(LL_FAILPOINT("fp.test.clear"));
    // clearAll dropped the counter; the evaluation just above is the
    // only one remembered.
    EXPECT_EQ(failpoint::hitCount("fp.test.clear"), 1);
}

// The limit-N budget is one global atomic counter behind the registry
// mutex, not a per-thread allowance: with 8 threads evaluating a
// limit-8 site 200 times each, exactly 8 evaluations fire — no more
// (racing decrements), no fewer — and every evaluation is counted.
TEST_F(FailpointThreads, ShotLimitIsExactUnderThreadPool)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    constexpr int kShots = 8;
    failpoint::activate("fp.mt.budget", kShots);
    std::atomic<int64_t> fired{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&fired] {
            for (int i = 0; i < kIters; ++i) {
                if (LL_FAILPOINT("fp.mt.budget"))
                    fired.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(fired.load(), kShots);
    EXPECT_EQ(failpoint::hitCount("fp.mt.budget"),
              kThreads * kIters);
}

TEST_F(FailpointTest, ScopedThreadLocalFiresOnlyOnOwningThread)
{
    failpoint::ScopedThreadLocal guard({"fp.tl.mine"});
    EXPECT_TRUE(LL_FAILPOINT("fp.tl.mine"));
    EXPECT_TRUE(failpoint::anyActive());
    // The overlay is invisible to the global registry and to other
    // threads.
    EXPECT_TRUE(failpoint::activeSites().empty());
    bool firedElsewhere = true;
    bool activeElsewhere = true;
    std::thread([&] {
        firedElsewhere = LL_FAILPOINT("fp.tl.mine");
        activeElsewhere = failpoint::anyActive();
    }).join();
    EXPECT_FALSE(firedElsewhere);
    EXPECT_FALSE(activeElsewhere);
}

TEST_F(FailpointTest, ScopedThreadLocalRestoresAndNesting)
{
    EXPECT_FALSE(failpoint::anyActive());
    {
        failpoint::ScopedThreadLocal outer({"fp.tl.outer"});
        {
            failpoint::ScopedThreadLocal inner({"fp.tl.inner"});
            EXPECT_TRUE(LL_FAILPOINT("fp.tl.outer"));
            EXPECT_TRUE(LL_FAILPOINT("fp.tl.inner"));
            EXPECT_EQ(failpoint::threadLocalActiveSites().size(), 2u);
        }
        EXPECT_TRUE(LL_FAILPOINT("fp.tl.outer"));
        EXPECT_FALSE(LL_FAILPOINT("fp.tl.inner"));
    }
    EXPECT_FALSE(LL_FAILPOINT("fp.tl.outer"));
    EXPECT_FALSE(failpoint::anyActive());
}

// A thread-local overlay naming a site must not consume the *global*
// activation's shot budget on the owning thread: the global budget
// drains by exactly its limit, and the overlay keeps firing after.
TEST_F(FailpointTest, ScopedThreadLocalLeavesGlobalBudgetUntouched)
{
    failpoint::activate("fp.tl.shared", 2);
    failpoint::ScopedThreadLocal guard({"fp.tl.shared"});
    // Every evaluation fires: first two drain the global budget, the
    // rest come from the overlay.
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(LL_FAILPOINT("fp.tl.shared"));
    // Drained global activation no longer lists, overlay still fires.
    for (const auto &s : failpoint::activeSites())
        EXPECT_NE(s, "fp.tl.shared");
    EXPECT_TRUE(LL_FAILPOINT("fp.tl.shared"));
}

// Four threads hammer the registry concurrently — evaluations on a
// shared site, activations/deactivations, counter reads, listing, and
// periodic clearAll — exercising every public entry point against every
// other. The assertion is the sanitizer's (no race, no crash) plus a
// liveness check that evaluations were actually recorded.
TEST_F(FailpointThreads, FourThreadsRegisterHitClearConcurrently)
{
    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    std::atomic<int64_t> fired{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &fired] {
            const std::string shared = "fp.mt.shared";
            const std::string own =
                "fp.mt.thread" + std::to_string(t % 2);
            for (int i = 0; i < kIters; ++i) {
                failpoint::activate(own, 1);
                if (LL_FAILPOINT(own))
                    fired.fetch_add(1, std::memory_order_relaxed);
                (void)LL_FAILPOINT(shared);
                (void)failpoint::hitCount(shared);
                (void)failpoint::activeSites();
                failpoint::deactivate(own);
                if (i % 64 == t * 16)
                    failpoint::clearAll();
            }
        });
    }
    for (auto &th : threads)
        th.join();

    // Most one-shot activations fire (another thread's clearAll can
    // swallow a few); the exact count is scheduling-dependent, but a
    // silent registry would mean the mutex serialized nothing at all.
    EXPECT_GT(fired.load(), 0);
    // The registry is still functional after the storm.
    failpoint::clearAll();
    failpoint::activate("fp.mt.after", 1);
    EXPECT_TRUE(LL_FAILPOINT("fp.mt.after"));
    EXPECT_FALSE(LL_FAILPOINT("fp.mt.after"));
}

} // namespace
} // namespace ll
