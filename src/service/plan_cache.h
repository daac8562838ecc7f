/**
 * @file
 * Sharded LRU cache of conversion plans for the compilation service.
 *
 * Planning a layout conversion is a pure function of
 * `(src, dst, elemBytes, GpuSpec)`; real deployments hit the same
 * handful of conversion pairs thousands of times across kernels, so
 * the cache stores immutable, shareable ConversionPlans (with their
 * PlanDiagnostics) behind shared_ptr<const ...> and hands the same
 * plan object to every requester. Keys are pointer-sized: interned
 * LayoutRefs (see interner.h) plus the element width and
 * GpuSpec::fingerprint().
 *
 * Policy, centralized here so every caller (the layout engine, the
 * conversion replay path, the batch driver) shares it:
 *
 *  - Entries are plans as tryPlanConversion returned them.
 *    insert() *refuses* (a) while any failpoint is active — globally or
 *    on the calling thread's overlay — and (b) plans whose diagnostics
 *    carry a FailpointInjected or DeadlineExceeded note (a drained
 *    limit-N activation is no longer "active" but still shaped the
 *    plan). Failures are never cached, and neither are fault-injected
 *    successes: a fuzzing run can never poison a shared cache.
 *  - There are no negative entries. A rejection is a pure function of
 *    the key too, so caching one would only save re-validation — a few
 *    word compares — at the price of an expiry policy; every request
 *    whose key plans to a failure runs the planner again.
 *  - Eviction is LRU per shard with capacity split evenly across
 *    shards; each shard has its own mutex so compilation threads do
 *    not serialize.
 *
 * Metric family: service.plan_cache.{hits,misses,inserts,evictions,
 * insert_refusals}.
 */

#ifndef LL_SERVICE_PLAN_CACHE_H
#define LL_SERVICE_PLAN_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "codegen/conversion.h"
#include "service/interner.h"
#include "sim/gpu_spec.h"

namespace ll {
namespace service {

/** Pointer-sized cache key: interned endpoints + width + spec id. */
struct PlanKey
{
    LayoutRef src = nullptr;
    LayoutRef dst = nullptr;
    int elemBytes = 0;
    uint64_t specId = 0;

    bool
    operator==(const PlanKey &other) const
    {
        return src == other.src && dst == other.dst &&
               elemBytes == other.elemBytes && specId == other.specId;
    }
};

struct PlanKeyHash
{
    size_t
    operator()(const PlanKey &k) const
    {
        uint64_t h = 1469598103934665603ull;
        auto mix = [&h](uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
            h ^= h >> 29;
        };
        mix(reinterpret_cast<uintptr_t>(k.src));
        mix(reinterpret_cast<uintptr_t>(k.dst));
        mix(static_cast<uint64_t>(k.elemBytes));
        mix(k.specId);
        return static_cast<size_t>(h);
    }
};

/** A cache hit: the shared plan. */
struct CachedPlan
{
    /** Immutable and safe to share across threads (every
     *  ConversionPlan member function is const). */
    std::shared_ptr<const codegen::ConversionPlan> plan;
};

struct PlanCacheStats
{
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;
    /** Inserts refused by the failpoint / deadline policy. */
    int64_t insertRefusals = 0;

    int64_t lookups() const { return hits + misses; }
};

class PlanCache
{
  public:
    struct Config
    {
        /** Total entries across all shards (split evenly; each shard
         *  keeps at least one slot). */
        size_t capacity = 4096;
        int shards = 8;
        /** Interner producing the keys' LayoutRefs; nullptr means the
         *  process-global interner. */
        LayoutInterner *interner = nullptr;
    };

    PlanCache() : PlanCache(Config()) {}
    explicit PlanCache(Config config);
    PlanCache(const PlanCache &) = delete;
    PlanCache &operator=(const PlanCache &) = delete;

    LayoutInterner &interner() const { return *interner_; }

    /** Intern both endpoints and assemble the key for this request. */
    PlanKey key(const LinearLayout &src, const LinearLayout &dst,
                int elemBytes, const sim::GpuSpec &spec);

    /** nullopt on miss. A hit refreshes the entry's LRU position. */
    std::optional<CachedPlan> lookup(const PlanKey &key);

    /**
     * Stat-free, LRU-neutral read: no counters move and recency is
     * untouched. This is the singleflight leader's double-check
     * between losing the lookup() race and planning: a racing
     * leader's freshly inserted plan is found without double-counting
     * the request's one recorded lookup.
     */
    std::optional<CachedPlan> peek(const PlanKey &key) const;

    /**
     * Store a successfully planned plan. Returns false (and
     * stores nothing) when the failpoint policy refuses — see the file
     * comment. Overwrites any entry under the same key.
     */
    bool insert(const PlanKey &key, codegen::ConversionPlan plan);

    /** As above, sharing the caller's plan object instead of copying —
     *  the inserting requester and every later hit then hold the same
     *  immutable plan. */
    bool insert(const PlanKey &key,
                std::shared_ptr<const codegen::ConversionPlan> plan);

    PlanCacheStats stats() const;
    int64_t size() const;
    size_t capacity() const { return capacity_; }
    void clear();

  private:
    struct Entry
    {
        PlanKey key;
        CachedPlan value;
    };

    struct Shard
    {
        mutable std::mutex mu;
        /** Most-recently-used at the front. */
        std::list<Entry> lru;
        std::unordered_map<PlanKey, std::list<Entry>::iterator,
                           PlanKeyHash>
            index;
        PlanCacheStats stats;
    };

    Shard &shardFor(const PlanKey &key);
    const Shard &shardFor(const PlanKey &key) const;

    LayoutInterner *interner_;
    std::vector<std::unique_ptr<Shard>> shards_;
    size_t capacity_;
    size_t capacityPerShard_;
};

} // namespace service
} // namespace ll

#endif // LL_SERVICE_PLAN_CACHE_H
