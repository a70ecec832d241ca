#include "serve/prediction_cache.hpp"

#include <fstream>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "serve/lru.hpp"

namespace neusight::serve {

using core::PredictionDetail;
using gpusim::GpuSpec;
using gpusim::KernelDesc;

// Cache-line aligned, so neighbouring stripes' locks never share a line.
struct alignas(64) PredictionCache::Stripe
{
    explicit Stripe(size_t capacity) : lru(capacity) {}

    std::mutex mutex;
    LruMap<PredictionDetail> lru;
};

namespace {

/**
 * Lock a stripe for a lookup or insert. A contended std::mutex puts the
 * thread to sleep in the kernel at once, while a stripe's critical
 * section lasts about 100 ns; yielding a bounded number of times first
 * lets the holder finish without that round trip.
 */
std::unique_lock<std::mutex>
lockStripe(std::mutex &mutex)
{
    for (int attempt = 0; attempt < 100; ++attempt) {
        if (mutex.try_lock())
            return std::unique_lock<std::mutex>(mutex, std::adopt_lock);
        std::this_thread::yield();
    }
    return std::unique_lock<std::mutex>(mutex);
}

} // namespace

PredictionCache::PredictionCache(size_t capacity, size_t num_shards)
{
    ensure(capacity > 0, "PredictionCache: capacity must be positive");
    ensure(num_shards > 0, "PredictionCache: need at least one shard");
    if (num_shards > capacity)
        num_shards = capacity;
    // Floor division so the stripes together never exceed the stated
    // budget (size() <= capacity() always holds); the clamp above
    // guarantees at least one entry per stripe.
    totalCapacity = capacity;
    stripes.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i)
        stripes.push_back(std::make_unique<Stripe>(capacity / num_shards));
}

PredictionCache::~PredictionCache() = default;

PredictionCache::Stripe &
PredictionCache::stripeFor(const std::string &key) const
{
    return *stripes[std::hash<std::string>{}(key) % stripes.size()];
}

bool
PredictionCache::lookup(const std::string &key, PredictionDetail &out)
{
    Stripe &stripe = stripeFor(key);
    bool hit = false;
    {
        const auto lock = lockStripe(stripe.mutex);
        if (const PredictionDetail *found = stripe.lru.find(key)) {
            out = *found;
            hit = true;
        }
    }
    (hit ? *hits : *misses).inc();
    return hit;
}

void
PredictionCache::insert(const std::string &key,
                        const PredictionDetail &detail)
{
    Stripe &stripe = stripeFor(key);
    const auto lock = lockStripe(stripe.mutex);
    const auto put = stripe.lru.put(key, detail);
    // A refresh counts as neither an insert nor an eviction.
    if (put == LruPut::Refreshed)
        return;
    inserts->inc();
    if (put == LruPut::Evicted)
        evictions->inc();
}

namespace {

/** One snapshot line: the key plus every PredictionDetail field. */
common::Json
entryToJson(const std::string &key, const PredictionDetail &detail)
{
    common::Json json;
    json.set("key", key);
    common::Json::Array tiles;
    tiles.reserve(detail.tileDims.size());
    for (const uint64_t dim : detail.tileDims)
        tiles.push_back(common::Json(dim));
    json.set("tile_dims", common::Json(std::move(tiles)));
    json.set("num_tiles", detail.numTiles);
    json.set("num_waves", detail.numWaves);
    json.set("alpha", detail.alpha);
    json.set("beta", detail.beta);
    json.set("utilization", detail.utilization);
    json.set("roofline_per_sm", detail.rooflinePerSm);
    json.set("latency_ms", detail.latencyMs);
    json.set("memory_fallback", detail.memoryFallback);
    return json;
}

PredictionDetail
entryFromJson(const common::Json &json, std::string &key_out)
{
    key_out = json.at("key").asString();
    PredictionDetail detail;
    for (const common::Json &dim : json.at("tile_dims").asArray())
        detail.tileDims.push_back(static_cast<uint64_t>(dim.asInt()));
    detail.numTiles =
        static_cast<uint64_t>(json.at("num_tiles").asInt());
    detail.numWaves =
        static_cast<uint64_t>(json.at("num_waves").asInt());
    detail.alpha = json.at("alpha").asDouble();
    detail.beta = json.at("beta").asDouble();
    detail.utilization = json.at("utilization").asDouble();
    detail.rooflinePerSm = json.at("roofline_per_sm").asDouble();
    detail.latencyMs = json.at("latency_ms").asDouble();
    detail.memoryFallback = json.at("memory_fallback").asBool();
    return detail;
}

} // namespace

size_t
PredictionCache::saveTo(std::ostream &out) const
{
    size_t written = 0;
    for (const auto &stripe : stripes) {
        std::lock_guard<std::mutex> lock(stripe->mutex);
        // Least recently used first, so loadFrom's in-order inserts
        // leave the most recent entries most recent.
        stripe->lru.forEachOldestFirst(
            [&](const std::string &key, const PredictionDetail &detail) {
                out << entryToJson(key, detail).dump(0) << '\n';
                ++written;
            });
    }
    return written;
}

size_t
PredictionCache::saveTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("PredictionCache: cannot write snapshot '" + path + "'");
    const size_t written = saveTo(static_cast<std::ostream &>(out));
    // Flush before the state check: buffered write failures (disk
    // full) would otherwise surface only in the destructor, silently.
    out.flush();
    if (!out)
        fatal("PredictionCache: I/O error writing snapshot '" + path +
              "'");
    return written;
}

size_t
PredictionCache::loadFrom(std::istream &in)
{
    size_t loaded = 0;
    size_t line_no = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++line_no;
        const size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::string key;
        PredictionDetail detail;
        try {
            detail = entryFromJson(common::Json::parse(line), key);
        } catch (const std::exception &e) {
            fatal("PredictionCache: snapshot line " +
                  std::to_string(line_no) + ": " + e.what());
        }
        insert(key, detail);
        ++loaded;
    }
    return loaded;
}

size_t
PredictionCache::loadFrom(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("PredictionCache: cannot read snapshot '" + path + "'");
    return loadFrom(static_cast<std::istream &>(in));
}

CacheStats
PredictionCache::stats() const
{
    CacheStats s;
    s.hits = hits->value();
    s.misses = misses->value();
    s.evictions = evictions->value();
    s.inserts = inserts->value();
    s.capacity = totalCapacity;
    s.size = size();
    return s;
}

void
PredictionCache::registerMetrics(
    const std::shared_ptr<PredictionCache> &cache,
    obs::MetricsRegistry &registry, const std::string &prefix)
{
    ensure(cache != nullptr,
           "PredictionCache::registerMetrics: null cache");
    registry.adopt(prefix + ".hits", cache->hits);
    registry.adopt(prefix + ".misses", cache->misses);
    registry.adopt(prefix + ".evictions", cache->evictions);
    registry.adopt(prefix + ".inserts", cache->inserts);
    registry.probe(prefix + ".size", [cache] {
        return static_cast<double>(cache->size());
    });
    registry.probe(prefix + ".capacity", [cache] {
        return static_cast<double>(cache->capacity());
    });
}

void
PredictionCache::clear()
{
    for (auto &stripe : stripes) {
        std::lock_guard<std::mutex> lock(stripe->mutex);
        stripe->lru.clear();
    }
}

size_t
PredictionCache::size() const
{
    size_t n = 0;
    for (const auto &stripe : stripes) {
        std::lock_guard<std::mutex> lock(stripe->mutex);
        n += stripe->lru.size();
    }
    return n;
}

ScopedKernelCache::ScopedKernelCache(
    std::shared_ptr<PredictionCache> cache, std::string scope)
    : cachePtr(std::move(cache)),
      prefix(std::move(scope) + kCacheScopeSeparator)
{
    ensure(cachePtr != nullptr, "ScopedKernelCache: null cache");
}

bool
ScopedKernelCache::lookup(const std::string &key, PredictionDetail &out)
{
    return cachePtr->lookup(prefix + key, out);
}

void
ScopedKernelCache::insert(const std::string &key,
                          const PredictionDetail &detail)
{
    cachePtr->insert(prefix + key, detail);
}

CachedPredictor::CachedPredictor(const graph::LatencyPredictor &inner_,
                                 std::shared_ptr<PredictionCache> cache,
                                 std::string key_scope)
    : inner(inner_), cachePtr(std::move(cache))
{
    ensure(cachePtr != nullptr, "CachedPredictor: null cache");
    if (!key_scope.empty())
        prefix = std::move(key_scope) + kCacheScopeSeparator;
}

std::string
CachedPredictor::name() const
{
    return inner.name() + "+cache";
}

double
CachedPredictor::predictKernelMs(const KernelDesc &desc,
                                 const GpuSpec &gpu) const
{
    return cachedMs(desc, gpu, core::gpuFeatureFingerprint(gpu));
}

std::vector<double>
CachedPredictor::predictKernelsMs(const std::vector<KernelDesc> &descs,
                                  const GpuSpec &gpu) const
{
    const std::string gpu_part = core::gpuFeatureFingerprint(gpu);
    std::vector<double> out;
    out.reserve(descs.size());
    for (const KernelDesc &desc : descs)
        out.push_back(cachedMs(desc, gpu, gpu_part));
    return out;
}

double
CachedPredictor::cachedMs(const KernelDesc &desc, const GpuSpec &gpu,
                          const std::string &gpu_part) const
{
    // Raw op name: the inner predictor may tell kernels apart that the
    // NeuSight canonicalization deliberately merges (the simulator's
    // ground truth does, via its per-kernel-name behaviour).
    std::string key = prefix;
    key += core::kernelFingerprintPart(desc, /*canonical_op=*/false);
    key += gpu_part;
    PredictionDetail detail;
    if (cachePtr->lookup(key, detail))
        return detail.latencyMs;
    detail = PredictionDetail{};
    detail.latencyMs = inner.predictKernelMs(desc, gpu);
    cachePtr->insert(key, detail);
    return detail.latencyMs;
}

double
CachedPredictor::predictGraphMs(const graph::KernelGraph &g,
                                const GpuSpec &gpu) const
{
    return predictTableMs(graph::compileGraph(g), gpu);
}

} // namespace neusight::serve
