/**
 * @file
 * Deterministic fault-injection registry (failpoints).
 *
 * Every planner stage guards itself with LL_FAILPOINT("site"): normally
 * the guard just increments the site's hit counter, but when a test (or
 * the LL_FAILPOINTS environment variable) activates the site, the guard
 * fires and the stage reports failure through its normal Result path.
 * This is how the fallback ladder's lower rungs are reached on demand:
 * forcing "plan.optimal-swizzle" off, say, proves the padded rung is
 * live and oracle-clean, without hand-crafting pathological layouts.
 *
 * Activation is process-global; the site map is guarded by a mutex so
 * concurrent register/hit/clear calls are safe (a prerequisite for the
 * multi-threaded engine work on the roadmap). Shot limits are one
 * global budget: a site activated with limit N fires for exactly N
 * evaluations process-wide no matter how many threads reach the guard
 * concurrently. Sites are plain strings so adding one requires no
 * central registration; `hitCount` lets tests assert a guard is
 * actually wired into the code path they think it is.
 *
 * A second, *thread-local* activation overlay exists for callers that
 * must disable sites for their own call stack without perturbing other
 * threads: under the compile service's thread pool a global knockout
 * would leak into every concurrently planning request. Thread-local activations fire for the owning thread only,
 * are unlimited while scoped, and never touch the global shot budget.
 *
 * Environment syntax: LL_FAILPOINTS="site-a,site-b:3" activates site-a
 * until deactivated and site-b for its next 3 guard evaluations.
 */

#ifndef LL_SUPPORT_FAILPOINT_H
#define LL_SUPPORT_FAILPOINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ll {
namespace failpoint {

/**
 * The guard: increments the site's deterministic hit counter and
 * returns true when the site is active (consuming one shot from a
 * limited activation). Call through LL_FAILPOINT for grep-ability.
 */
bool shouldFail(const std::string &site);

/** Activate a site; limit < 0 means "until deactivated", otherwise the
 *  site fires for its next `limit` evaluations only. */
void activate(const std::string &site, int64_t limit = -1);

void deactivate(const std::string &site);

/** Deactivate everything, including LL_FAILPOINTS activations, and
 *  forget all hit counters. */
void clearAll();

/** Times `shouldFail(site)` has been evaluated (active or not). */
int64_t hitCount(const std::string &site);

/** Currently active site names, sorted. */
std::vector<std::string> activeSites();

/** Sites active via the calling thread's local overlay, sorted. */
std::vector<std::string> threadLocalActiveSites();

/** True when any site is active for the calling thread — globally or
 *  through its thread-local overlay. The plan cache consults this to
 *  enforce "failures (and failpoint-shaped plans) are never cached". */
bool anyActive();

/** RAII activation for test scopes. */
class Scoped
{
  public:
    explicit Scoped(std::string site, int64_t limit = -1)
        : site_(std::move(site))
    {
        activate(site_, limit);
    }
    ~Scoped() { deactivate(site_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    std::string site_;
};

/** RAII activation of a whole site list (e.g. ConversionCase::failpoints). */
class ScopedSet
{
  public:
    explicit ScopedSet(std::vector<std::string> sites)
        : sites_(std::move(sites))
    {
        for (const auto &s : sites_)
            activate(s);
    }
    ~ScopedSet()
    {
        for (const auto &s : sites_)
            deactivate(s);
    }
    ScopedSet(const ScopedSet &) = delete;
    ScopedSet &operator=(const ScopedSet &) = delete;

  private:
    std::vector<std::string> sites_;
};

/**
 * RAII *thread-local* activation of a site list. Sites fire only for
 * evaluations on the constructing thread and are unlimited while the
 * scope lives; the global registry (and its shot budgets) is untouched.
 * Scopes nest: destruction removes exactly the sites this scope added.
 */
class ScopedThreadLocal
{
  public:
    explicit ScopedThreadLocal(std::vector<std::string> sites);
    ~ScopedThreadLocal();
    ScopedThreadLocal(const ScopedThreadLocal &) = delete;
    ScopedThreadLocal &operator=(const ScopedThreadLocal &) = delete;

  private:
    size_t restoreSize_;
};

} // namespace failpoint
} // namespace ll

#define LL_FAILPOINT(site) (::ll::failpoint::shouldFail(site))

#endif // LL_SUPPORT_FAILPOINT_H
