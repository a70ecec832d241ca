#include "api/engine.hpp"

#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "core/predictor.hpp"
#include "graph/cnn.hpp"
#include "graph/model_io.hpp"
#include "graph/models.hpp"
#include "gpusim/spec_io.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace neusight::api {

namespace {

/** The multi-GPU server a Distributed/Hybrid/Sweep request targets. */
dist::ServerConfig
serverFromRequest(const ForecastRequest &req)
{
    dist::ServerConfig server;
    server.systemName = req.gpu.name + "-server";
    server.numGpus = req.numGpus;
    server.linkGBps = req.linkGBps;
    server.setGpu(req.gpu);
    return server;
}

} // namespace

ForecastEngine::ForecastEngine(EngineConfig config_)
    : config(std::move(config_))
{
    // Validate eagerly so a typo fails at construction, not inside the
    // first forecast (where it would surface as an ok=false result).
    core::parsePrecision(config.precisionLane);
    reg = config.registry;
    if (!reg)
        reg = PredictorRegistry::withBuiltins(config.neusightPath,
                                              config.trainingGpus);
    cache = config.sharedCache;
    if (!cache && config.cacheCapacity > 0)
        cache = std::make_shared<serve::PredictionCache>(
            config.cacheCapacity);
    graphCache = config.sharedGraphCache;
    if (!graphCache && config.graphCacheCapacity > 0)
        graphCache = std::make_shared<serve::ModelGraphCache>(
            config.graphCacheCapacity);
    comms = config.comms;
    if (!comms)
        comms = std::make_shared<dist::EstimatedCollectives>(
            config.referenceSystem, config.referenceLinkGBps);
    metricsReg = config.sharedMetrics;
    if (!metricsReg)
        metricsReg = std::make_shared<obs::MetricsRegistry>();
    requestsTotal = metricsReg->counter("engine.requests");
    failuresTotal = metricsReg->counter("engine.failures");
    // Engines per registry: 1 here, and N in a merged cross-shard
    // snapshot (obs::mergeMetricsSnapshots sums gauges), so a cluster
    // stats reply reports how many engine processes produced it.
    metricsReg->gauge("engine.instances")->add(1);
    // Sweeps executed through this engine report into its registry
    // unless the caller already pointed them elsewhere.
    if (!config.sweep.metrics)
        config.sweep.metrics = metricsReg;
    // Adopt the caches' live counters: the registry snapshot and
    // cacheStats() now read the same atomics and cannot drift.
    if (cache)
        serve::PredictionCache::registerMetrics(cache, *metricsReg,
                                                "cache.prediction");
    if (graphCache)
        serve::ModelGraphCache::registerMetrics(graphCache, *metricsReg,
                                                "cache.graph");
    if (!config.cacheLoadPath.empty())
        loadPredictionCache(config.cacheLoadPath);
}

const ForecastEngine::WiredBackend &
ForecastEngine::wire(const std::string &name) const
{
    {
        // Fast path: already-wired backends must never wait behind a
        // cold backend's construction (training a NeuSight framework
        // can take minutes; stalling every server worker on the wire
        // lock meanwhile would freeze the whole pool).
        std::lock_guard<std::mutex> lock(wireMutex);
        const auto it = wired.find(name);
        if (it != wired.end())
            return it->second;
    }

    // Construct outside the wire lock. The registry serializes
    // construction internally, so a name builds exactly once even when
    // several workers race on it.
    const graph::LatencyPredictor &raw = reg->get(name);

    std::lock_guard<std::mutex> lock(wireMutex);
    const auto it = wired.find(name);
    if (it != wired.end()) // Another worker wired it meanwhile.
        return it->second;

    WiredBackend backend;
    auto *neusight = dynamic_cast<core::NeuSight *>(reg->getOwned(name));
    const core::KernelPredictor::Precision lane =
        core::parsePrecision(config.precisionLane);
    if (neusight && neusight->precision() != lane) {
        // Apply the configured numeric lane before the backend is ever
        // handed out by this engine. Wiring happens once per name, ahead
        // of any prediction through this engine, so the weight snapshot
        // the switch takes is never concurrent with our own inference.
        neusight->setPrecision(lane);
    }
    // The f32 lane rounds differently from the reference f64 lane, so
    // its entries get their own key scope: a persisted snapshot reloaded
    // under the other lane must miss, not serve near-but-not-bit-equal
    // values. The default lane keeps the bare name — existing snapshots
    // stay valid.
    const std::string scope =
        lane == core::KernelPredictor::Precision::F64
            ? name
            : name + "@" + core::precisionName(lane);
    if (!cache) {
        backend.predictor = &raw;
    } else if (neusight && neusight->predictionCache() == nullptr) {
        // Registry-owned NeuSight with no cache yet: attach the engine
        // cache natively (keeps the batched dedup path) under a
        // per-backend key scope. The instance has not been handed out
        // by this engine yet, so none of our workers predict through
        // it before the attach.
        neusight->attachCache(std::make_shared<serve::ScopedKernelCache>(
            cache, scope));
        backend.predictor = neusight;
    } else if (neusight) {
        // Already carries a cache (the registry is shared and another
        // engine attached first, or the user attached one): leave it
        // untouched — re-attaching would clobber that wiring and race
        // with in-flight predictions. Forecasts stay correct (entries
        // are deterministic per fingerprint); the hits simply land in
        // the first attacher's cache.
        backend.predictor = neusight;
    } else {
        // Generic (or externally-owned) backend: decorate with the
        // shared cache, scoped so two backends never trade entries.
        backend.wrapper = std::make_unique<serve::CachedPredictor>(
            raw, cache, name);
        backend.predictor = backend.wrapper.get();
    }
    return wired.emplace(name, std::move(backend)).first->second;
}

const graph::LatencyPredictor &
ForecastEngine::backend(const std::string &name) const
{
    return *wire(name.empty() ? config.defaultBackend : name).predictor;
}

gpusim::GpuSpec
ForecastEngine::resolveGpu(const std::string &name_or_path,
                           const std::string &json_override)
{
    if (!json_override.empty())
        return gpusim::loadGpuSpecs(json_override).front();
    return gpusim::resolveGpu(name_or_path);
}

std::shared_ptr<obs::Histogram>
ForecastEngine::requestHistogram(RequestKind kind,
                                 const std::string &backend_name) const
{
    const std::string name = std::string("engine.request_us.") +
                             requestKindName(kind) + '.' + backend_name;
    std::lock_guard<std::mutex> lock(histMutex);
    auto it = requestHist.find(name);
    if (it == requestHist.end())
        it = requestHist.emplace(name, metricsReg->histogram(name, "us"))
                 .first;
    return it->second;
}

ForecastResult
ForecastEngine::forecast(const ForecastRequest &req) const
{
    obs::Tracer &tracer = obs::Tracer::global();
    obs::TraceSpan span(
        tracer.enabled() ? std::string("engine.forecast.") +
                               requestKindName(req.kind)
                         : std::string(),
        "engine", tracer);
    const auto started = std::chrono::steady_clock::now();
    ForecastResult result;
    result.tag = req.tag;
    if (req.kind == RequestKind::Stats) {
        // Registry snapshot, shipped as an opaque payload so the wire
        // layer can embed it without knowing the metric vocabulary.
        // Counted before snapshotting so the snapshot includes itself.
        requestsTotal->inc();
        result.payload = metricsReg->toJson().dump(0);
        return result;
    }
    if (req.kind == RequestKind::Ping) {
        // Liveness probe: nothing to compute. The socket layer answers
        // pings inline without reaching here; this path serves the
        // stdin/script modes.
        requestsTotal->inc();
        return result;
    }
    try {
        const graph::LatencyPredictor &predictor = backend(req.backend);
        switch (req.kind) {
          case RequestKind::Inference:
          case RequestKind::DecodeStep:
          case RequestKind::Training: {
            // Model resolution stays inside the build closure: on a
            // graph-cache hit the request skips it entirely, which
            // matters when req.model is a JSON path (resolveModel
            // reads and parses the file per call). The graph itself
            // lives only until it is compiled.
            const auto build = [&] {
                const graph::ModelConfig model =
                    graph::resolveModel(req.model);
                if (req.kind == RequestKind::Inference)
                    return graph::compileGraph(graph::buildInferenceGraph(
                        model, req.batch, req.dtype));
                if (req.kind == RequestKind::DecodeStep)
                    return graph::compileGraph(graph::buildDecodeGraph(
                        model, req.batch, req.pastLen, req.dtype));
                return graph::compileGraph(graph::buildTrainingGraph(
                    model, req.batch, req.dtype));
            };
            // The table is GPU-independent, so the cache key deliberately
            // omits the target GPU (and the backend): requests differing
            // only there share one compiled graph.
            std::shared_ptr<const graph::KernelTable> table;
            if (graphCache) {
                const std::string key =
                    std::string(requestKindName(req.kind)) + '|' +
                    req.model + '|' + std::to_string(req.batch) + '|' +
                    std::to_string(req.pastLen) + '|' +
                    std::to_string(static_cast<int>(req.dtype));
                table = graphCache->getOrBuild(key, build);
            } else {
                table = std::make_shared<const graph::KernelTable>(build());
            }
            result.kernelCount = table->slot.size();
            result.latencyMs = predictor.predictTableMs(*table, req.gpu);
            break;
          }
          case RequestKind::Distributed: {
            const graph::ModelConfig model =
                graph::resolveModel(req.model);
            const dist::ServerConfig server = serverFromRequest(req);
            const dist::HybridConfig preset = dist::singleAxisConfig(
                req.strategy, req.numGpus, req.hybrid.numMicroBatches,
                req.hybrid.schedule);
            const std::string reject = dist::validateStrategy(
                model, server, req.globalBatch, preset);
            if (!reject.empty()) {
                result.ok = false;
                result.error = reject;
                break;
            }
            const dist::HybridResult dr = dist::hybridTrainingMs(
                predictor, *comms, server, model, req.globalBatch, preset);
            result.latencyMs = dr.latencyMs;
            result.oom = dr.oom;
            result.commBytes = dr.commBytes;
            break;
          }
          case RequestKind::Hybrid:
          case RequestKind::Simulate: {
            const graph::ModelConfig model =
                graph::resolveModel(req.model);
            const dist::ServerConfig server = serverFromRequest(req);
            const std::string reject = dist::validateHybrid(
                model, server, req.globalBatch, req.hybrid);
            if (!reject.empty()) {
                result.ok = false;
                result.error = reject;
                break;
            }
            // Zero-bubble has no closed form: both request kinds route
            // it (and any explicit Simulate request) to the
            // discrete-event simulator.
            dist::HybridResult hr;
            if (req.kind == RequestKind::Simulate ||
                req.hybrid.schedule ==
                    dist::PipelineSchedule::ZeroBubble) {
                sim::SimOptions options;
                options.jitterFraction = req.jitterFraction;
                options.seed = req.simSeed;
                hr = sim::simulateHybrid(predictor, *comms, server,
                                         model, req.globalBatch,
                                         req.hybrid, options)
                         .hybrid;
            } else {
                hr = dist::hybridTrainingMs(predictor, *comms, server,
                                            model, req.globalBatch,
                                            req.hybrid);
            }
            result.latencyMs = hr.latencyMs;
            result.oom = hr.oom;
            result.commBytes = hr.commBytes;
            result.bubbleMs = hr.bubbleMs;
            result.exposedDdpMs = hr.exposedDdpMs;
            result.strategy = req.hybrid.describe();
            break;
          }
          case RequestKind::HybridSweep: {
            const graph::ModelConfig model =
                graph::resolveModel(req.model);
            const dist::ServerConfig server = serverFromRequest(req);
            const std::vector<dist::SweepEntry> entries =
                dist::sweepStrategies(predictor, *comms, server, model,
                                      req.globalBatch, config.sweep);
            if (entries.empty()) {
                result.ok = false;
                result.error =
                    "no runnable strategy: every (tp, pp, dp) "
                    "factorization failed validation or the memory "
                    "screen";
                break;
            }
            const dist::SweepEntry &winner = entries.front();
            result.latencyMs = winner.result.latencyMs;
            result.commBytes = winner.result.commBytes;
            result.strategy = winner.config.describe();
            break;
          }
          case RequestKind::Stats:
          case RequestKind::Ping:
            break; // Handled before the switch.
        }
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
    }
    if (cache)
        result.cache = cache->stats();
    requestsTotal->inc();
    if (!result.ok)
        failuresTotal->inc();
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - started)
            .count();
    requestHistogram(req.kind, req.backend.empty() ? config.defaultBackend
                                                   : req.backend)
        ->record(elapsed_us);
    return result;
}

CacheStats
ForecastEngine::cacheStats() const
{
    return cache ? cache->stats() : CacheStats{};
}

size_t
ForecastEngine::savePredictionCache(const std::string &path) const
{
    const std::string &target =
        path.empty() ? config.cacheSavePath : path;
    if (target.empty())
        fatal("ForecastEngine: no cache snapshot path configured "
              "(EngineConfig::saveCacheTo)");
    if (!cache)
        fatal("ForecastEngine: cannot snapshot a disabled cache");
    return cache->saveTo(target);
}

size_t
ForecastEngine::loadPredictionCache(const std::string &path)
{
    if (!cache)
        fatal("ForecastEngine: cannot load a snapshot into a disabled "
              "cache");
    return cache->loadFrom(path);
}

graph::KernelGraph
buildWorkloadGraph(const std::string &model, uint64_t batch, bool training,
                   gpusim::DataType dtype)
{
    if (model == "ResNet-50")
        return training ? graph::buildResNet50TrainingGraph(batch, dtype)
                        : graph::buildResNet50Graph(batch, dtype);
    if (model == "VGG-16") {
        if (training)
            fatal("VGG-16 training graph not provided; use inference");
        return graph::buildVgg16Graph(batch, dtype);
    }
    const graph::ModelConfig config = graph::resolveModel(model);
    return training ? graph::buildTrainingGraph(config, batch, dtype)
                    : graph::buildInferenceGraph(config, batch, dtype);
}

} // namespace neusight::api
