/**
 * @file
 * Kernel-prediction cache for the forecast-serving subsystem. The same
 * (kernel, GPU) pairs recur across nearly every model graph — all layers
 * of a transformer dispatch identically-shaped kernels — and a
 * PredictionDetail is tiny and immutable once the predictor is trained,
 * so memoizing per-kernel forecasts turns repeated graph predictions
 * into hash lookups.
 *
 * Each stripe is a mutex-guarded LRU map (serve/lru.hpp, the same core
 * the ModelGraphCache uses): a lookup or insert takes only its key's
 * stripe lock, so threads working on different stripes never contend.
 */

#ifndef NEUSIGHT_SERVE_PREDICTION_CACHE_HPP
#define NEUSIGHT_SERVE_PREDICTION_CACHE_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel_cache.hpp"
#include "core/predictor.hpp"
#include "gpusim/gpu_spec.hpp"
#include "gpusim/kernel_desc.hpp"
#include "graph/latency_predictor.hpp"
#include "obs/metrics.hpp"

namespace neusight::serve {

/**
 * The canonical (kernel, GPU) fingerprints live in core/kernel_cache.hpp
 * next to the cache seam they key (core::NeuSight consults them too);
 * re-exported here because they are part of the serving layer's wire
 * vocabulary (ForecastRequest::fingerprint builds on the GPU half).
 */
using core::cacheFingerprint;
using core::gpuFeatureFingerprint;

/** Monotonic counters of one cache (or a point-in-time snapshot). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
    size_t size = 0;
    size_t capacity = 0;

    /** Fraction of lookups served from the cache (0 when none yet). */
    double hitRate() const
    {
        const uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Striped LRU cache from fingerprint to PredictionDetail. All
 * operations are thread-safe; lookups promote the entry to
 * most-recently-used within its stripe, and inserts evict the stripe's
 * least-recently-used entry once the stripe is full. Implements the
 * core predictor's cache seam, so it plugs into
 * core::NeuSight::attachCache directly.
 */
class PredictionCache : public core::KernelPredictionCache
{
  public:
    /**
     * @param capacity   total entry budget, split evenly across stripes.
     * @param num_shards stripe count (lock granularity); 1 gives a
     *                   single global LRU order (deterministic
     *                   eviction, used by tests).
     */
    explicit PredictionCache(size_t capacity, size_t num_shards = 16);

    ~PredictionCache() override;

    /**
     * Find @p key; on a hit copy the entry into @p out, promote it, and
     * return true. Counts one hit or one miss.
     */
    bool lookup(const std::string &key,
                core::PredictionDetail &out) override;

    /**
     * Insert (or refresh) @p key. Evicts the shard's LRU entry when the
     * shard is at capacity. A refresh counts as neither an insert nor an
     * eviction.
     */
    void insert(const std::string &key,
                const core::PredictionDetail &detail) override;

    /** Point-in-time counters (consistent enough for reporting). */
    CacheStats stats() const;

    /**
     * Adopt @p cache's live hit/miss/eviction/insert counters into
     * @p registry as "<prefix>.hits" etc., plus size/capacity probes.
     * The registry then snapshots the very atomics stats() reads, so
     * the two views cannot drift. @p cache is captured by the probes
     * (kept alive as long as the registry holds them).
     */
    static void registerMetrics(const std::shared_ptr<PredictionCache> &cache,
                                obs::MetricsRegistry &registry,
                                const std::string &prefix);

    /// @name Persistence: JSON-lines snapshots keyed on the stable
    /// fingerprints, so a warm cache survives server restarts (the
    /// ROADMAP's cache-persistence item). Entries are written least-
    /// recently-used first, so re-inserting them in file order restores
    /// each shard's recency order.
    /// @{

    /** Write every entry as one JSON object per line; returns the
     *  number of entries written. */
    size_t saveTo(std::ostream &out) const;

    /** saveTo() the file at @p path; fatal() on I/O error. */
    size_t saveTo(const std::string &path) const;

    /**
     * Insert every snapshot line (blank lines and '#' comments are
     * skipped); returns the number of entries loaded. Counts as
     * ordinary inserts: loading more entries than the capacity evicts.
     * fatal() with the line number on malformed lines.
     */
    size_t loadFrom(std::istream &in);

    /** loadFrom() the file at @p path; fatal() when unreadable. */
    size_t loadFrom(const std::string &path);

    /// @}

    /** Drop every entry; counters keep accumulating. */
    void clear();

    /** Current number of cached entries. */
    size_t size() const;

    /** Total entry budget. */
    size_t capacity() const { return totalCapacity; }

  private:
    /** One stripe: a mutex and the LRU map it guards. */
    struct Stripe;

    Stripe &stripeFor(const std::string &key) const;

    std::vector<std::unique_ptr<Stripe>> stripes;
    size_t totalCapacity;
    /** Striped obs counters, so a MetricsRegistry can adopt the same
     *  objects stats() reads (registerMetrics). */
    std::shared_ptr<obs::Counter> hits = std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> misses = std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> evictions =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> inserts = std::make_shared<obs::Counter>();
};

/**
 * Key-scoping adapter over a shared PredictionCache: every lookup and
 * insert is prefixed with an opaque scope, so several predictor
 * backends can share one cache (one capacity budget, one stats line,
 * one persistence snapshot) without their entries ever colliding —
 * NeuSight's canonical fingerprints and a generic backend's raw-name
 * fingerprints can otherwise produce the same key for different
 * forecasts. The ForecastEngine attaches one scope per backend.
 */
class ScopedKernelCache : public core::KernelPredictionCache
{
  public:
    /** @p scope is typically the backend's registry name. */
    ScopedKernelCache(std::shared_ptr<PredictionCache> cache,
                      std::string scope);

    bool lookup(const std::string &key,
                core::PredictionDetail &out) override;

    void insert(const std::string &key,
                const core::PredictionDetail &detail) override;

  private:
    std::shared_ptr<PredictionCache> cachePtr;
    /** The scope plus the separator, ready to prepend. */
    std::string prefix;
};

/**
 * Caching decorator over any LatencyPredictor: per-kernel forecasts are
 * served from (and inserted into) a shared PredictionCache. Used to give
 * the non-NeuSight serving backends (simulator oracle, baselines) the
 * same cached path NeuSight gets natively through NeuSight::attachCache().
 * A graph forecast compiles the graph first, so the cache sees each
 * unique kernel once per forecast.
 */
class CachedPredictor : public graph::LatencyPredictor
{
  public:
    /**
     * @p inner must outlive this decorator. A non-empty @p key_scope
     * namespaces this decorator's entries inside a cache shared with
     * other backends (see ScopedKernelCache).
     */
    CachedPredictor(const graph::LatencyPredictor &inner,
                    std::shared_ptr<PredictionCache> cache,
                    std::string key_scope = "");

    std::string name() const override;

    double predictKernelMs(const gpusim::KernelDesc &desc,
                           const gpusim::GpuSpec &gpu) const override;

    /** One cache probe per descriptor; the GPU half of the key is
     *  rendered once per call. Misses ask the inner predictor. */
    std::vector<double>
    predictKernelsMs(const std::vector<gpusim::KernelDesc> &descs,
                     const gpusim::GpuSpec &gpu) const override;

    /** predictTableMs(compileGraph(g), gpu). */
    double predictGraphMs(const graph::KernelGraph &g,
                          const gpusim::GpuSpec &gpu) const override;

    /** The shared cache (for stats reporting). */
    const std::shared_ptr<PredictionCache> &cache() const
    {
        return cachePtr;
    }

  private:
    /** The cached forecast of @p desc, keyed with the rendered GPU
     *  half @p gpu_part of @p gpu. */
    double cachedMs(const gpusim::KernelDesc &desc,
                    const gpusim::GpuSpec &gpu,
                    const std::string &gpu_part) const;

    const graph::LatencyPredictor &inner;
    std::shared_ptr<PredictionCache> cachePtr;
    /** Key prefix (scope + separator), empty when unscoped. */
    std::string prefix;
};

/** The scope/key separator of ScopedKernelCache and CachedPredictor. */
inline constexpr char kCacheScopeSeparator = '\x1f';

} // namespace neusight::serve

#endif // NEUSIGHT_SERVE_PREDICTION_CACHE_HPP
