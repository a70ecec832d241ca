#include "serve/graph_cache.hpp"

#include <utility>

#include "common/logging.hpp"

namespace neusight::serve {

ModelGraphCache::ModelGraphCache(size_t capacity) : lru(capacity)
{
    ensure(capacity >= 1, "ModelGraphCache: capacity must be at least 1");
}

std::shared_ptr<const graph::KernelTable>
ModelGraphCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto *found = lru.find(key);
    if (found == nullptr) {
        missCount->inc();
        return nullptr;
    }
    hitCount->inc();
    return *found;
}

void
ModelGraphCache::insert(const std::string &key,
                        std::shared_ptr<const graph::KernelTable> table)
{
    std::lock_guard<std::mutex> lock(mutex);
    insertCount->inc();
    if (lru.put(key, std::move(table)) == LruPut::Evicted)
        evictionCount->inc();
}

std::shared_ptr<const graph::KernelTable>
ModelGraphCache::getOrBuild(
    const std::string &key,
    const std::function<graph::KernelTable()> &build)
{
    if (auto hit = lookup(key))
        return hit;
    auto built = std::make_shared<const graph::KernelTable>(build());
    insert(key, built);
    return built;
}

void
ModelGraphCache::registerMetrics(
    const std::shared_ptr<ModelGraphCache> &cache,
    obs::MetricsRegistry &registry, const std::string &prefix)
{
    ensure(cache != nullptr,
           "ModelGraphCache::registerMetrics: null cache");
    registry.adopt(prefix + ".hits", cache->hitCount);
    registry.adopt(prefix + ".misses", cache->missCount);
    registry.adopt(prefix + ".evictions", cache->evictionCount);
    registry.adopt(prefix + ".inserts", cache->insertCount);
    registry.probe(prefix + ".size", [cache] {
        return static_cast<double>(cache->size());
    });
    registry.probe(prefix + ".capacity", [cache] {
        return static_cast<double>(cache->capacity());
    });
}

CacheStats
ModelGraphCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    CacheStats s;
    s.hits = hitCount->value();
    s.misses = missCount->value();
    s.evictions = evictionCount->value();
    s.inserts = insertCount->value();
    s.size = lru.size();
    s.capacity = lru.capacity();
    return s;
}

size_t
ModelGraphCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return lru.size();
}

} // namespace neusight::serve
