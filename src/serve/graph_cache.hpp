/**
 * @file
 * Model-graph cache for the forecast-serving subsystem. At high
 * kernel-prediction-cache hit rates the residual per-request cost is
 * constructing the KernelGraph itself (thousands of KernelDesc nodes for
 * a large transformer), and production traffic asks about the same few
 * (model, batch, context) points over and over — so the server memoizes
 * each graph, compiled to its graph::KernelTable (the unique kernels
 * plus one slot per compute node), behind a canonical request
 * fingerprint. A hit then does no per-node work before pricing, and an
 * eviction frees two small vectors. Tables are GPU-independent (the
 * builders take only model/batch/dtype), shared as immutable shared_ptr
 * snapshots, and evicted LRU.
 */

#ifndef NEUSIGHT_SERVE_GRAPH_CACHE_HPP
#define NEUSIGHT_SERVE_GRAPH_CACHE_HPP

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "graph/latency_predictor.hpp"
#include "serve/lru.hpp"
#include "serve/prediction_cache.hpp"

namespace neusight::serve {

/**
 * Thread-safe LRU cache from a graph fingerprint to an immutable
 * compiled KernelTable. A single mutex guards the LRU map
 * (serve/lru.hpp, the core each PredictionCache stripe uses too):
 * entries are two orders of magnitude fewer (and far heavier) than
 * kernel predictions, so shard contention is not the bottleneck the
 * prediction cache has to dodge.
 */
class ModelGraphCache
{
  public:
    /** @param capacity maximum cached tables (>= 1). */
    explicit ModelGraphCache(size_t capacity = 128);

    /**
     * Find @p key; on a hit promote the entry and return it, else
     * nullptr. Counts one hit or one miss.
     */
    std::shared_ptr<const graph::KernelTable>
    lookup(const std::string &key);

    /** Insert (or refresh) @p key, evicting the LRU entry when full.
     *  A refresh counts as an insert. */
    void insert(const std::string &key,
                std::shared_ptr<const graph::KernelTable> table);

    /**
     * lookup(), falling back to @p build + insert on a miss. The
     * builder runs outside the lock; two threads racing on the same
     * cold key may both build (construction is idempotent) and the
     * later insert wins.
     */
    std::shared_ptr<const graph::KernelTable>
    getOrBuild(const std::string &key,
               const std::function<graph::KernelTable()> &build);

    /** Point-in-time counters. */
    CacheStats stats() const;

    /**
     * Adopt @p cache's live counters into @p registry as
     * "<prefix>.hits" etc., plus size/capacity probes, so registry
     * snapshots and stats() read the same objects (see
     * PredictionCache::registerMetrics).
     */
    static void registerMetrics(const std::shared_ptr<ModelGraphCache> &cache,
                                obs::MetricsRegistry &registry,
                                const std::string &prefix);

    /** Current number of cached tables. */
    size_t size() const;

    /** Maximum cached tables. */
    size_t capacity() const { return lru.capacity(); }

  private:
    mutable std::mutex mutex;
    LruMap<std::shared_ptr<const graph::KernelTable>> lru;
    /** obs counters (adoptable into a MetricsRegistry); incremented
     *  under the mutex but independently readable. */
    std::shared_ptr<obs::Counter> hitCount =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> missCount =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> evictionCount =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> insertCount =
        std::make_shared<obs::Counter>();
};

} // namespace neusight::serve

#endif // NEUSIGHT_SERVE_GRAPH_CACHE_HPP
