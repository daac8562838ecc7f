#include "service/plan_cache.h"

#include <algorithm>

#include "support/failpoint.h"
#include "support/metrics.h"

namespace ll {
namespace service {

namespace {

/** True when any diagnostic note records an injected failpoint: the
 *  plan's shape was forced by fault injection, not by the inputs, so it
 *  must not be shared. */
bool
planWasFaultShaped(const codegen::ConversionPlan &plan)
{
    for (const auto &note : plan.diagnostics.notes) {
        if (note.code == DiagCode::FailpointInjected)
            return true;
    }
    return false;
}

} // namespace

PlanCache::PlanCache(Config config)
    : interner_(config.interner ? config.interner
                                : &LayoutInterner::global()),
      capacity_(std::max<size_t>(config.capacity, 1))
{
    const int numShards = std::max(config.shards, 1);
    capacityPerShard_ =
        std::max<size_t>(capacity_ / static_cast<size_t>(numShards), 1);
    shards_.reserve(static_cast<size_t>(numShards));
    for (int i = 0; i < numShards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

PlanCache::Shard &
PlanCache::shardFor(const PlanKey &key)
{
    return *shards_[PlanKeyHash{}(key) % shards_.size()];
}

const PlanCache::Shard &
PlanCache::shardFor(const PlanKey &key) const
{
    return *shards_[PlanKeyHash{}(key) % shards_.size()];
}

PlanKey
PlanCache::key(const LinearLayout &src, const LinearLayout &dst,
               int elemBytes, const sim::GpuSpec &spec)
{
    PlanKey k;
    k.src = interner_->intern(src);
    k.dst = interner_->intern(dst);
    k.elemBytes = elemBytes;
    k.specId = spec.fingerprint();
    return k;
}

std::optional<CachedPlan>
PlanCache::lookup(const PlanKey &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        ++shard.stats.misses;
        static auto &misses =
            metrics::counter("service.plan_cache.misses");
        misses.inc();
        return std::nullopt;
    }
    ++shard.stats.hits;
    static auto &hits = metrics::counter("service.plan_cache.hits");
    hits.inc();
    // Refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
}

std::optional<CachedPlan>
PlanCache::peek(const PlanKey &key) const
{
    const Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end())
        return std::nullopt;
    return it->second->value;
}

bool
PlanCache::insert(const PlanKey &key, codegen::ConversionPlan plan)
{
    return insert(key, std::make_shared<const codegen::ConversionPlan>(
                           std::move(plan)));
}

bool
PlanCache::insert(const PlanKey &key,
                  std::shared_ptr<const codegen::ConversionPlan> plan)
{
    const bool refused = failpoint::anyActive() || planWasFaultShaped(*plan);
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (refused) {
        ++shard.stats.insertRefusals;
        static auto &refusals =
            metrics::counter("service.plan_cache.insert_refusals");
        refusals.inc();
        return false;
    }
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        it->second->value.plan = std::move(plan);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return true;
    }
    while (shard.lru.size() >= capacityPerShard_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++shard.stats.evictions;
        static auto &evictions =
            metrics::counter("service.plan_cache.evictions");
        evictions.inc();
    }
    shard.lru.push_front(Entry{key, CachedPlan{std::move(plan)}});
    shard.index.emplace(key, shard.lru.begin());
    ++shard.stats.inserts;
    static auto &inserts = metrics::counter("service.plan_cache.inserts");
    inserts.inc();
    return true;
}

PlanCacheStats
PlanCache::stats() const
{
    PlanCacheStats total;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        const PlanCacheStats &s = shard->stats;
        total.hits += s.hits;
        total.misses += s.misses;
        total.inserts += s.inserts;
        total.evictions += s.evictions;
        total.insertRefusals += s.insertRefusals;
    }
    return total;
}

int64_t
PlanCache::size() const
{
    int64_t n = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        n += static_cast<int64_t>(shard->lru.size());
    }
    return n;
}

void
PlanCache::clear()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->lru.clear();
        shard->index.clear();
    }
}

} // namespace service
} // namespace ll
