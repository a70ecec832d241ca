/**
 * @file
 * The in-process workloads: forecast_cold and plan drive one
 * api::ForecastEngine from one thread through a seeded stream.
 *
 * A traced request (see inTracedBlock) is timed exactly like an
 * untraced one; after its answer the benchmark repeats the request's
 * work layer by layer through the layers' public functions (graph
 * build, raw oracle, warm cached predict, cache write, the dist
 * sweep/hybrid pricer, the simulator), outside the timed interval.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/kernel_cache.hpp"
#include "dist/parallel.hpp"
#include "graph/models.hpp"
#include "sim/simulator.hpp"
#include "streams.hpp"

namespace perfbench {

namespace api = neusight::api;
namespace dist = neusight::dist;
namespace graph = neusight::graph;
namespace sim = neusight::sim;
namespace core = neusight::core;
namespace gpusim = neusight::gpusim;
namespace serve = neusight::serve;
using api::ForecastResult;
using api::RequestKind;

namespace {

/**
 * Seconds between timed engine starts. The starts are spread through
 * the timed phase, between requests, so their median sees the host the
 * requests see rather than one instant of it.
 */
constexpr double kSetupInterval = 0.5;
/**
 * Stream lengths. forecast_cold's stream carries more distinct kernel
 * keys than the 65,536-entry prediction cache and more graphs than the
 * graph cache, so cycling through it misses both; plan's is long enough
 * that no handful of requests sets its tail.
 */
constexpr size_t kColdStreamLength = 4000;
constexpr size_t kPlanStreamLength = 600;

double
micros(double seconds)
{
    return 1e6 * seconds;
}

/** Answer one stream item through the engine's public API. */
ForecastResult
execute(const api::ForecastEngine &engine, const StreamItem &item)
{
    if (!item.cnn)
        return engine.forecast(item.request);
    ForecastResult result;
    result.tag = item.request.tag;
    try {
        const graph::KernelGraph g = graphOf(item);
        result.kernelCount = g.computeNodeCount();
        result.latencyMs = engine.backend().predictGraphMs(g, item.request.gpu);
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
    }
    return result;
}

/** Per-layer samples of the traced blocks. */
struct LayerSamples
{
    std::map<std::string, Samples> samples;
    /** Per traced request: each blocking-path layer's time (ms). */
    std::vector<std::map<std::string, double>> paths;
    dist::SweepStats sweep;
    uint64_t simEvents = 0;
    double simSeconds = 0.0;
    /**
     * A prediction cache of the engine's size, kept as full as the
     * engine's and receiving fresh keys, to time the write path (insert,
     * plus LRU eviction once full) without disturbing the engine's own
     * cache.
     */
    std::unique_ptr<serve::PredictionCache> scratchCache;
    uint64_t scratchKeys = 0;

    void add(const std::string &name, double value)
    {
        samples[name].add(value);
    }
    /**
     * The blocking path of the traced request whose layer sum is the
     * median one. The layers of one request add up; medians taken
     * layer by layer would not, as a request's layers grow together.
     */
    std::map<std::string, double> medianPath() const
    {
        if (paths.empty())
            return {};
        const auto total = [](const std::map<std::string, double> &path) {
            double sum = 0.0;
            for (const auto &term : path)
                sum += term.second;
            return sum;
        };
        std::vector<std::pair<double, size_t>> sums;
        for (size_t i = 0; i < paths.size(); ++i)
            sums.emplace_back(total(paths[i]), i);
        std::sort(sums.begin(), sums.end());
        // The nearest-rank median, as Samples::median takes it.
        return paths[sums[(sums.size() + 1) / 2 - 1].second];
    }
};

/** Cache outcomes of one traced request. */
struct CallCounters
{
    uint64_t kernelMisses = 0;
    /** Entries in the engine's prediction cache before the request. */
    size_t cacheEntries = 0;
    bool graphCacheHit = false;
};

/** A workload's traced-request hook: repeat the request layer by layer. */
using TraceHook = void (*)(api::ForecastEngine &, const StreamItem &,
                           const CallCounters &, LayerSamples &);

/** Cache counters of both engine caches (zero when disabled). */
struct CacheCounters
{
    api::CacheStats kernels;
    api::CacheStats graphs;
};

CacheCounters
cacheCounters(const api::ForecastEngine &engine)
{
    CacheCounters c;
    c.kernels = engine.cacheStats();
    if (engine.modelGraphCache())
        c.graphs = engine.modelGraphCache()->stats();
    return c;
}

/** Insert @p key made unique, so it is always a new entry. */
void
insertFresh(LayerSamples &layers, const std::string &key)
{
    layers.scratchCache->insert(key + '#' + std::to_string(layers.scratchKeys++),
                                core::PredictionDetail{});
}

/**
 * Microseconds per write-path insert of @p count keys drawn from @p g's
 * kernels, into the scratch cache filled first (untimed) to
 * @p engineEntries, the engine cache's size before the request: the
 * scratch inserts evict exactly when the engine's did.
 */
double
writeMicrosPerMiss(LayerSamples &layers, const graph::KernelGraph &g,
                   const gpusim::GpuSpec &gpu, uint64_t count,
                   size_t engineEntries)
{
    std::vector<std::string> keys;
    for (const graph::KernelNode &node : g.nodes)
        if (node.kind == graph::NodeKind::Compute)
            keys.push_back(core::cacheFingerprint(node.kernel, gpu, false));
    if (!layers.scratchCache)
        layers.scratchCache = std::make_unique<serve::PredictionCache>(
            engineConfig().cacheCapacity);
    for (size_t i = 0; layers.scratchCache->size() < engineEntries; ++i)
        insertFresh(layers, keys[i % keys.size()]);
    const double t = nowSeconds();
    for (uint64_t i = 0; i < count; ++i)
        insertFresh(layers, keys[i % keys.size()]);
    return micros(nowSeconds() - t) / static_cast<double>(count);
}

void
traceCold(api::ForecastEngine &engine, const StreamItem &item,
          const CallCounters &call, LayerSamples &layers)
{
    const api::ForecastRequest &r = item.request;
    double t = nowSeconds();
    const graph::KernelGraph g = graphOf(item);
    const double build_us = micros(nowSeconds() - t);
    const double kernels = static_cast<double>(g.computeNodeCount());

    t = nowSeconds();
    engine.registry().get("oracle").predictGraphMs(g, r.gpu);
    const double oracle_us_per_kernel = micros(nowSeconds() - t) / kernels;

    // Every key was just priced by the answer, so this is all hits.
    t = nowSeconds();
    engine.backend().predictGraphMs(g, r.gpu);
    const double probe_us = micros(nowSeconds() - t);

    double write_us_per_miss = 0.0;
    if (call.kernelMisses > 0) {
        write_us_per_miss =
            writeMicrosPerMiss(layers, g, r.gpu, call.kernelMisses,
                               call.cacheEntries);
        layers.add("cache.write_us_per_miss", write_us_per_miss);
    }

    const double misses = static_cast<double>(call.kernelMisses);
    layers.add("graph.build_us", build_us);
    layers.add("graph.kernels_per_req", kernels);
    layers.add("oracle.kernel_us", oracle_us_per_kernel);
    layers.add("cache.probe_us_per_kernel", probe_us / kernels);
    // Blocking path: the graph build unless the graph cache answered,
    // one probe per kernel, and for each miss the oracle plus the
    // cache write.
    layers.paths.push_back(
        {{"graph.build", (call.graphCacheHit ? 0.0 : build_us) / 1000.0},
         {"cache.probe", probe_us / 1000.0},
         {"oracle", misses * oracle_us_per_kernel / 1000.0},
         {"cache.write", misses * write_us_per_miss / 1000.0}});
}

void
tracePlan(api::ForecastEngine &engine, const StreamItem &item,
          const CallCounters &, LayerSamples &layers)
{
    const api::ForecastRequest &r = item.request;
    const graph::ModelConfig &model = graph::findModel(r.model);
    const dist::ServerConfig server = serverOf(r);
    const graph::LatencyPredictor &predictor = engine.backend();
    const double t = nowSeconds();
    double elapsed = 0.0;
    if (r.kind == RequestKind::HybridSweep) {
        dist::SweepStats stats;
        dist::sweepStrategies(predictor, engine.collectives(), server, model,
                              r.globalBatch, engineConfig().sweep, &stats);
        elapsed = nowSeconds() - t;
        layers.add("dist.sweep_ms", 1000.0 * elapsed);
        layers.add("dist.points_evaluated",
                   static_cast<double>(stats.evaluatedPoints));
        layers.sweep.evaluatedPoints += stats.evaluatedPoints;
        layers.sweep.skippedPoints += stats.skippedPoints;
        layers.sweep.stagePriceHits += stats.stagePriceHits;
        layers.sweep.stagePriceMisses += stats.stagePriceMisses;
    } else if (r.kind == RequestKind::Hybrid) {
        dist::hybridTrainingMs(predictor, engine.collectives(), server, model,
                               r.globalBatch, r.hybrid);
        elapsed = nowSeconds() - t;
        layers.add("dist.hybrid_us", micros(elapsed));
    } else {
        sim::SimOptions options;
        options.jitterFraction = r.jitterFraction;
        options.seed = r.simSeed;
        const sim::SimResult s =
            sim::simulateHybrid(predictor, engine.collectives(), server,
                                model, r.globalBatch, r.hybrid, options);
        elapsed = nowSeconds() - t;
        layers.add("sim.simulate_us", micros(elapsed));
        layers.add("sim.events", static_cast<double>(s.events));
        layers.simEvents += s.events;
        layers.simSeconds += elapsed;
    }
    // Each request runs exactly one planner, which is its blocking path.
    layers.paths.push_back({{"planner", 1000.0 * elapsed}});
}

/**
 * Run one in-process workload. @p warm_passes passes over the stream
 * run before the timed phase (answers checked, not timed).
 */
Report
runInProcess(const Options &options, const std::vector<StreamItem> &stream,
             size_t warm_passes, TraceHook hook)
{
    Report report;
    report.info.set("memory_latency_ns_start", memoryLatencyNs());

    api::ForecastEngine engine(engineConfig());
    engine.backend();

    // The first answer to each stream item; later answers must equal it.
    std::vector<ForecastResult> first(stream.size());
    std::vector<bool> seen(stream.size(), false);
    const auto check = [&](size_t index, ForecastResult answer) {
        const std::string &tag = stream[index].request.tag;
        if (!answer.ok)
            report.fail("request " + tag + " failed: " + answer.error);
        if (seen[index]) {
            sameAnswer(report, answer, first[index],
                       "request " + tag + " (repeat)");
        } else {
            first[index] = std::move(answer);
            seen[index] = true;
        }
    };
    for (size_t pass = 0; pass < warm_passes; ++pass)
        for (size_t i = 0; i < stream.size(); ++i)
            check(i, execute(engine, stream[i]));

    // Timed phase: cycle through the stream until the deadline.
    TimedPhase phase;
    Samples traced_ms;
    LayerSamples layers;
    const CacheCounters start_counters = cacheCounters(engine);
    // Setup: a fresh process's engine construction and backend wiring
    // (see coldEngineStart), every kSetupInterval seconds of the phase.
    // The phase's clock leaves the starts out.
    Samples setup;
    double setup_spent = 0.0;
    double next_setup = 0.0;
    const ProcUsage usage_start = procUsage();
    const double start = nowSeconds();
    double now = start;
    for (size_t n = 0; now - start - setup_spent < options.seconds; ++n) {
        if (now - start - setup_spent >= next_setup) {
            setup.add(coldEngineStart());
            next_setup += kSetupInterval;
            const double after = nowSeconds();
            setup_spent += after - now;
            now = after;
        }
        const size_t index = n % stream.size();
        const StreamItem &item = stream[index];
        const bool traced =
            inTracedBlock(options, now - start - setup_spent);
        CacheCounters before;
        if (traced)
            before = cacheCounters(engine);
        const double t0 = nowSeconds();
        ForecastResult answer = execute(engine, item);
        now = nowSeconds();
        const double ms = 1000.0 * (now - t0);

        ++phase.ledger.sent;
        if (answer.ok)
            ++phase.ledger.ok;
        else
            ++phase.ledger.failed;
        if (traced) {
            traced_ms.add(ms);
            layers.add("engine.forecast_us", 1000.0 * ms);
            const CacheCounters after = cacheCounters(engine);
            CallCounters call;
            call.kernelMisses = after.kernels.misses - before.kernels.misses;
            call.cacheEntries = before.kernels.size;
            call.graphCacheHit = after.graphs.hits > before.graphs.hits;
            hook(engine, item, call, layers);
            now = nowSeconds();
        } else {
            phase.latencyMs.add(ms);
        }
        check(index, std::move(answer));
    }
    phase.seconds = now - start - setup_spent;
    const ProcUsage usage_end = procUsage();
    // The starts ran in children, whose CPU time this process's usage
    // leaves out.
    phase.cpuSeconds = usage_end.cpuSeconds - usage_start.cpuSeconds;
    phase.rssMb = usage_end.peakRssMb;
    const CacheCounters end_counters = cacheCounters(engine);

    // Reference: a fresh engine answers every request the timed phase
    // answered, outside the timed phase.
    size_t checked = 0;
    {
        api::ForecastEngine reference(engineConfig());
        for (size_t i = 0; i < stream.size(); ++i) {
            if (!seen[i])
                continue;
            sameAnswer(report, first[i], execute(reference, stream[i]),
                       "request " + stream[i].request.tag);
            ++checked;
        }
    }
    report.info.set("reference_checked", static_cast<uint64_t>(checked));
    report.info.set("stream_length", static_cast<uint64_t>(stream.size()));

    const api::CacheStats &k0 = start_counters.kernels;
    const api::CacheStats &k1 = end_counters.kernels;
    const api::CacheStats &g0 = start_counters.graphs;
    const api::CacheStats &g1 = end_counters.graphs;
    std::map<std::string, double> layer;
    layer["cache.hit_frac"] =
        fraction(static_cast<double>(k1.hits - k0.hits),
                 static_cast<double>(k1.hits - k0.hits + k1.misses - k0.misses));
    layer["cache.inserts"] = static_cast<double>(k1.inserts - k0.inserts);
    layer["cache.evictions"] = static_cast<double>(k1.evictions - k0.evictions);
    layer["graph_cache.hit_frac"] =
        fraction(static_cast<double>(g1.hits - g0.hits),
                 static_cast<double>(g1.hits - g0.hits + g1.misses - g0.misses));

    if (!options.trace) {
        reportEndToEnd(report, phase, setup);
    } else {
        for (auto &[name, samples] : layers.samples)
            layer[name] = samples.median();
        const dist::SweepStats &s = layers.sweep;
        if (s.evaluatedPoints > 0) {
            layer["dist.pruned_frac"] = fraction(
                static_cast<double>(s.skippedPoints),
                static_cast<double>(s.skippedPoints + s.evaluatedPoints));
            layer["dist.stage_price_hit_frac"] = fraction(
                static_cast<double>(s.stagePriceHits),
                static_cast<double>(s.stagePriceHits + s.stagePriceMisses));
        }
        if (layers.simSeconds > 0.0)
            layer["sim.events_per_s"] = rate(
                static_cast<double>(layers.simEvents), layers.simSeconds);
        reportTrace(report, phase, traced_ms, layers.medianPath(), layer);
    }
    report.info.set("memory_latency_ns_end", memoryLatencyNs());
    return report;
}

} // namespace

Report
runForecastCold(const Options &options)
{
    return runInProcess(options, coldStream(options.seed, kColdStreamLength),
                        0, traceCold);
}

Report
runPlan(const Options &options)
{
    // One warm-up pass fills the kernel-prediction cache, so the timed
    // phase measures the planners rather than first-touch oracle calls.
    return runInProcess(options, planStream(options.seed, kPlanStreamLength),
                        1, tracePlan);
}

} // namespace perfbench
