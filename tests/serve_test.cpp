/**
 * @file
 * Tests for the forecast-serving subsystem: cache-key canonicalization,
 * LRU eviction order, concurrent hit/miss accounting under a thread
 * hammer, the cached NeuSight path, request coalescing, server
 * drain-on-shutdown, and the JSON wire protocol.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "common/logging.hpp"
#include "core/predictor.hpp"
#include "eval/oracle.hpp"
#include "serve/prediction_cache.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/simulator.hpp"

namespace neusight::serve {
namespace {

using gpusim::findGpu;
using gpusim::KernelDesc;
using gpusim::makeLayerNorm;
using gpusim::makeLinear;

TEST(CacheKey, BackwardAndFusedKernelsCanonicalize)
{
    // Backward and fused kernels predict through their base operator's
    // tile entry; with equal numbers they must share one cache entry.
    const auto &gpu = findGpu("A100-40GB");
    const KernelDesc fwd = makeLayerNorm(4096, 1024);
    KernelDesc bwd = fwd;
    bwd.opName = "layernorm_bwd";
    KernelDesc fused = fwd;
    fused.opName = "layernorm+add";
    EXPECT_EQ(cacheFingerprint(fwd, gpu), cacheFingerprint(bwd, gpu));
    EXPECT_EQ(cacheFingerprint(fwd, gpu), cacheFingerprint(fused, gpu));
    EXPECT_EQ(core::canonicalOpName("layernorm_bwd"), "layernorm");
    EXPECT_EQ(core::canonicalOpName("add+layernorm"), "add");
}

TEST(CacheKey, DiscriminatesShapesAndGpus)
{
    const auto &a100 = findGpu("A100-40GB");
    const auto &h100 = findGpu("H100");
    const KernelDesc a = makeLinear(1024, 768, 768);
    const KernelDesc b = makeLinear(1024, 768, 1024);
    EXPECT_NE(cacheFingerprint(a, a100), cacheFingerprint(b, a100));
    EXPECT_NE(cacheFingerprint(a, a100), cacheFingerprint(a, h100));

    // Hypothetical GPUs can shadow a database name: every public
    // feature is part of the key, so they still key apart.
    gpusim::GpuSpec custom = h100;
    custom.numSms += 12;
    EXPECT_NE(cacheFingerprint(a, h100), cacheFingerprint(a, custom));
}

TEST(Cache, LruEvictionOrder)
{
    PredictionCache cache(2, 1); // One shard: global LRU order.
    core::PredictionDetail d;
    d.latencyMs = 1.0;
    cache.insert("a", d);
    cache.insert("b", d);
    core::PredictionDetail out;
    ASSERT_TRUE(cache.lookup("a", out)); // Promote "a"; "b" is now LRU.
    cache.insert("c", d);
    EXPECT_FALSE(cache.lookup("b", out));
    EXPECT_TRUE(cache.lookup("a", out));
    EXPECT_TRUE(cache.lookup("c", out));
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.size, 2u);
    EXPECT_EQ(stats.inserts, 3u);

    // clear() empties the cache; the counters keep accumulating.
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup("a", out));
    cache.insert("d", d);
    EXPECT_TRUE(cache.lookup("d", out));
    EXPECT_EQ(cache.stats().inserts, 4u);
}

TEST(Cache, ReinsertRefreshesInsteadOfEvicting)
{
    PredictionCache cache(2, 1);
    core::PredictionDetail d;
    d.latencyMs = 1.0;
    cache.insert("a", d);
    d.latencyMs = 2.0;
    cache.insert("a", d);
    core::PredictionDetail out;
    ASSERT_TRUE(cache.lookup("a", out));
    EXPECT_DOUBLE_EQ(out.latencyMs, 2.0);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.stats().inserts, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, ConcurrentHammerKeepsCountersConsistent)
{
    PredictionCache cache(128, 8);
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    constexpr int kKeySpace = 300; // > capacity: forces evictions.
    std::atomic<uint64_t> local_hits{0};
    std::atomic<uint64_t> local_lookups{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &local_hits, &local_lookups, t] {
            core::PredictionDetail detail;
            for (int i = 0; i < kOpsPerThread; ++i) {
                const std::string key =
                    "k" + std::to_string((i * 31 + t * 7) % kKeySpace);
                local_lookups.fetch_add(1);
                if (cache.lookup(key, detail)) {
                    local_hits.fetch_add(1);
                } else {
                    detail.latencyMs = static_cast<double>(i);
                    cache.insert(key, detail);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const CacheStats stats = cache.stats();
    // Every lookup is exactly one hit or one miss, across all threads.
    EXPECT_EQ(stats.hits + stats.misses, local_lookups.load());
    EXPECT_EQ(stats.hits, local_hits.load());
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.size, stats.capacity);
    // Entries live in lockstep with the LRU lists: inserts minus
    // evictions is exactly the resident count.
    EXPECT_EQ(stats.inserts - stats.evictions, stats.size);
}

TEST(CachedPredictorTest, MatchesInnerAndCounts)
{
    const eval::SimulatorOracle oracle;
    auto cache = std::make_shared<PredictionCache>(64);
    const CachedPredictor cached(oracle, cache);
    EXPECT_EQ(cached.name(), "Measured+cache");

    const auto &gpu = findGpu("V100");
    const KernelDesc desc = makeLinear(2048, 1024, 1024);
    const double truth = oracle.predictKernelMs(desc, gpu);
    EXPECT_DOUBLE_EQ(cached.predictKernelMs(desc, gpu), truth); // Miss.
    EXPECT_DOUBLE_EQ(cached.predictKernelMs(desc, gpu), truth); // Hit.
    const CacheStats stats = cache->stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(CachedPredictorTest, DoesNotMergeKernelsTheBackendDistinguishes)
{
    // The simulator's ground truth differs between a forward kernel and
    // its numerically identical _bwd twin (per-kernel-name behaviour),
    // so the generic decorator must key on the raw op name — only the
    // NeuSight wiring may canonicalize.
    const eval::SimulatorOracle oracle;
    auto cache = std::make_shared<PredictionCache>(64);
    const CachedPredictor cached(oracle, cache);
    const auto &gpu = findGpu("A100-40GB");
    const KernelDesc fwd = gpusim::makeSoftmax(8192, 1024);
    KernelDesc bwd = fwd;
    bwd.opName = "softmax_bwd";
    EXPECT_DOUBLE_EQ(cached.predictKernelMs(fwd, gpu),
                     oracle.predictKernelMs(fwd, gpu));
    EXPECT_DOUBLE_EQ(cached.predictKernelMs(bwd, gpu),
                     oracle.predictKernelMs(bwd, gpu));
    EXPECT_EQ(cache->stats().misses, 2u); // Two entries, no merging.
}

/** Scaled-down trained framework shared by the cached-path tests. */
class CachedNeuSight : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        dataset::SamplerConfig sampler;
        sampler.bmmSamples = 150;
        sampler.fcSamples = 120;
        sampler.elementwiseSamples = 80;
        sampler.softmaxSamples = 60;
        sampler.layernormSamples = 60;
        core::PredictorConfig cfg;
        cfg.hiddenDim = 16;
        cfg.hiddenLayers = 2;
        cfg.train.epochs = 3;
        framework = new core::NeuSight(cfg);
        framework->train(dataset::generateOperatorData(
            gpusim::nvidiaTrainingSet(), sampler));
    }

    static void
    TearDownTestSuite()
    {
        delete framework;
        framework = nullptr;
    }

    static graph::KernelGraph
    repeatedKernelGraph()
    {
        // Three distinct shapes, each dispatched four times — the
        // transformer pattern the cache exploits.
        graph::KernelGraph g;
        for (int layer = 0; layer < 4; ++layer) {
            const std::string base = "l" + std::to_string(layer);
            g.add(makeLinear(512, 768, 768), base + ".fc");
            g.add(makeLayerNorm(512, 768), base + ".ln");
            g.add(gpusim::makeElementwise("add", 512 * 768), base + ".add");
        }
        return g;
    }

    static core::NeuSight *framework;
};

core::NeuSight *CachedNeuSight::framework = nullptr;

TEST_F(CachedNeuSight, CachedPathIsExactAndHits)
{
    const auto &gpu = findGpu("A100-40GB");
    const graph::KernelGraph g = repeatedKernelGraph();
    const double uncached = framework->predictGraphMs(g, gpu);

    auto cache = std::make_shared<PredictionCache>(256);
    framework->attachCache(cache);
    EXPECT_DOUBLE_EQ(framework->predictGraphMs(g, gpu), uncached);
    // 12 kernels, 3 distinct shapes: graph-level dedup folds the 9
    // intra-graph repeats before the cache is consulted, so the first
    // forecast is 3 misses and no hits...
    CacheStats stats = cache->stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_DOUBLE_EQ(framework->predictGraphMs(g, gpu), uncached);
    // ...and a repeated forecast hits once per distinct shape.
    stats = cache->stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 3u);
    framework->attachCache(nullptr);
    EXPECT_EQ(framework->predictionCache(), nullptr);
}

TEST_F(CachedNeuSight, ConcurrentGraphForecastsAgree)
{
    // The serving scenario: many workers forecasting through one shared
    // framework + cache must all see the single-threaded answer.
    const auto &gpu = findGpu("H100");
    const graph::KernelGraph g = repeatedKernelGraph();
    const double expected = framework->predictGraphMs(g, gpu);
    auto cache = std::make_shared<PredictionCache>(256);
    framework->attachCache(cache);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 50; ++i)
                if (framework->predictGraphMs(g, gpu) != expected)
                    mismatches.fetch_add(1);
        });
    for (std::thread &t : threads)
        t.join();
    framework->attachCache(nullptr);
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(RequestFingerprint, IgnoresTagDiscriminatesSemantics)
{
    ForecastRequest a;
    a.kind = RequestKind::Inference;
    a.model = "GPT3-XL";
    a.batch = 4;
    a.gpu = findGpu("H100");
    a.tag = "first";
    ForecastRequest b = a;
    b.tag = "second";
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.batch = 8;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b = a;
    b.kind = RequestKind::Training;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

/** Deterministic predictor that counts graph forecasts and stalls. A
 *  graph forecast makes one predictKernelsMs call, the seam counted. */
class SlowCountingPredictor : public graph::LatencyPredictor
{
  public:
    explicit SlowCountingPredictor(int delay_ms) : delayMs(delay_ms) {}

    std::string name() const override { return "SlowCounting"; }

    double
    predictKernelMs(const gpusim::KernelDesc &,
                    const gpusim::GpuSpec &) const override
    {
        return 0.5;
    }

    std::vector<double>
    predictKernelsMs(const std::vector<gpusim::KernelDesc> &descs,
                     const gpusim::GpuSpec &gpu) const override
    {
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
        return graph::LatencyPredictor::predictKernelsMs(descs, gpu);
    }

    mutable std::atomic<int> calls{0};

  private:
    int delayMs;
};

ForecastRequest
smallInferenceRequest(uint64_t batch, const std::string &tag)
{
    ForecastRequest req;
    req.kind = RequestKind::Inference;
    req.model = "BERT-Large";
    req.batch = batch;
    req.gpu = findGpu("A100-40GB");
    req.tag = tag;
    return req;
}

/** An engine whose only backend is @p predictor, with no kernel-
 *  prediction cache: the server tests drive the predictor directly. */
std::shared_ptr<api::ForecastEngine>
engineOver(const graph::LatencyPredictor &predictor,
           api::EngineConfig config = api::EngineConfig())
{
    auto registry = std::make_shared<api::PredictorRegistry>();
    registry->addExternal("direct", predictor);
    config.defaultBackend = "direct";
    config.registry = std::move(registry);
    config.cacheCapacity = 0;
    return std::make_shared<api::ForecastEngine>(std::move(config));
}

TEST(Server, CoalescesIdenticalInFlightRequests)
{
    const SlowCountingPredictor predictor(40);
    ServerOptions options;
    options.workers = 2;
    ForecastServer server(engineOver(predictor), options);

    constexpr int kClients = 12;
    std::vector<std::future<ForecastResult>> futures;
    for (int i = 0; i < kClients; ++i) {
        ForecastRequest req =
            smallInferenceRequest(4, "c" + std::to_string(i));
        // Naming the default backend explicitly must coalesce with
        // the spelled-out-by-omission requests.
        if (i % 2 == 1)
            req.backend =
                server.forecastEngine()->defaultBackendName();
        futures.push_back(server.submit(std::move(req)));
    }
    int coalesced = 0;
    double latency = -1.0;
    for (int i = 0; i < kClients; ++i) {
        const ForecastResult result = futures[i].get();
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.tag, "c" + std::to_string(i));
        if (latency < 0.0)
            latency = result.latencyMs;
        EXPECT_DOUBLE_EQ(result.latencyMs, latency);
        coalesced += result.coalesced ? 1 : 0;
    }
    server.stop();
    // Every client got the answer, but the predictor ran far fewer
    // times than kClients; the exact split depends on scheduling.
    EXPECT_EQ(predictor.calls.load() + coalesced, kClients);
    EXPECT_LE(predictor.calls.load(), 3);
    EXPECT_EQ(server.stats().coalesced, static_cast<uint64_t>(coalesced));
}

TEST(Server, DrainsEveryAcceptedRequestOnShutdown)
{
    const SlowCountingPredictor predictor(5);
    ServerOptions options;
    options.workers = 2;
    ForecastServer server(engineOver(predictor), options);

    constexpr int kRequests = 24;
    std::vector<std::future<ForecastResult>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(server.submit(smallInferenceRequest(
            static_cast<uint64_t>(i + 1), "d" + std::to_string(i))));
    server.stop(); // Immediately: must still answer all 24.
    for (auto &future : futures) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        const ForecastResult result = future.get();
        EXPECT_TRUE(result.ok) << result.error;
        EXPECT_GT(result.latencyMs, 0.0);
    }
    EXPECT_EQ(server.stats().completed,
              static_cast<uint64_t>(kRequests));

    // After shutdown new submissions resolve immediately as rejected.
    const ForecastResult rejected =
        server.submit(smallInferenceRequest(1, "late")).get();
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(Server, HighPriorityDrainsFirst)
{
    const SlowCountingPredictor predictor(30);
    ServerOptions options;
    options.workers = 1;
    ForecastServer server(engineOver(predictor), options);

    // Occupy the single worker so the next four requests sit queued
    // together when it makes its next dispatch decision.
    std::future<ForecastResult> blocker =
        server.submit(smallInferenceRequest(1, "blocker"));
    while (predictor.calls.load() < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::mutex order_mutex;
    std::vector<std::string> order;
    const auto record = [&](ForecastResult result) {
        EXPECT_TRUE(result.ok) << result.error;
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(result.tag);
    };
    const auto enqueue = [&](uint64_t batch, const std::string &tag,
                             RequestPriority priority) {
        ForecastRequest req = smallInferenceRequest(batch, tag);
        req.priority = priority;
        EXPECT_TRUE(server.trySubmit(std::move(req), record));
    };
    // Normals enter first; the highs must still drain before them,
    // FIFO within each class.
    enqueue(2, "n1", RequestPriority::Normal);
    enqueue(3, "n2", RequestPriority::Normal);
    enqueue(4, "h1", RequestPriority::High);
    enqueue(5, "h2", RequestPriority::High);
    server.drain();
    server.stop();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "h1");
    EXPECT_EQ(order[1], "h2");
    EXPECT_EQ(order[2], "n1");
    EXPECT_EQ(order[3], "n2");
    EXPECT_TRUE(blocker.get().ok);
}

TEST(Server, ReportsFailuresWithoutDying)
{
    const SlowCountingPredictor predictor(0);
    ForecastServer server(engineOver(predictor));
    ForecastRequest bad = smallInferenceRequest(1, "bad");
    bad.model = "NoSuchModel";
    const ForecastResult result = server.submit(bad).get();
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("NoSuchModel"), std::string::npos);
    // The server stays serviceable after a failed request.
    EXPECT_TRUE(server.submit(smallInferenceRequest(1, "ok")).get().ok);
}

TEST(Server, DistributedRequestsMatchDirectForecast)
{
    const eval::SimulatorOracle oracle;
    ForecastRequest req;
    req.kind = RequestKind::Distributed;
    req.model = "GPT2-Large";
    req.gpu = findGpu("H100");
    req.numGpus = 4;
    req.globalBatch = 8;
    req.strategy = dist::Parallelism::Tensor;

    ForecastServer server(engineOver(oracle));
    const ForecastResult result = server.submit(req).get();
    ASSERT_TRUE(result.ok) << result.error;

    // Same forecast as calling the dist layer directly with the
    // server's default collective estimator.
    const dist::EstimatedCollectives comms("A100-NVLink", 600.0);
    dist::ServerConfig config;
    config.setGpu(req.gpu);
    config.numGpus = req.numGpus;
    const dist::HybridResult direct = dist::hybridTrainingMs(
        oracle, comms, config, graph::findModel(req.model),
        req.globalBatch,
        dist::singleAxisConfig(req.strategy, req.numGpus));
    EXPECT_DOUBLE_EQ(result.latencyMs, direct.latencyMs);
    EXPECT_DOUBLE_EQ(result.commBytes, direct.commBytes);
    EXPECT_FALSE(result.oom);
}

TEST(Server, DistributedValidationRejectsCleanly)
{
    const eval::SimulatorOracle oracle;
    ForecastRequest req;
    req.kind = RequestKind::Distributed;
    req.model = "GPT2-Large"; // 20 heads: indivisible by 3.
    req.gpu = findGpu("H100");
    req.numGpus = 3;
    req.globalBatch = 6;
    req.strategy = dist::Parallelism::Tensor;
    ForecastServer server(engineOver(oracle));
    const ForecastResult result = server.submit(req).get();
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("divisible"), std::string::npos);
}

TEST(Wire, RequestRoundTrip)
{
    const std::string line =
        "{\"op\":\"distributed\",\"model\":\"GPT2-Large\","
        "\"gpu\":\"H100\",\"num_gpus\":4,\"global_batch\":16,"
        "\"strategy\":\"pipeline\",\"micro_batches\":4,"
        "\"schedule\":\"1f1b\",\"tag\":\"t1\"}";
    const ForecastRequest req =
        requestFromJson(common::Json::parse(line));
    EXPECT_EQ(req.kind, RequestKind::Distributed);
    EXPECT_EQ(req.model, "GPT2-Large");
    EXPECT_EQ(req.gpu.name, "H100");
    EXPECT_EQ(req.numGpus, 4);
    EXPECT_EQ(req.globalBatch, 16u);
    EXPECT_EQ(req.strategy, dist::Parallelism::Pipeline);
    EXPECT_EQ(req.hybrid.numMicroBatches, 4);
    EXPECT_EQ(req.hybrid.schedule, dist::PipelineSchedule::OneFOneB);
    EXPECT_EQ(req.tag, "t1");

    // Encode → decode is identity on the request's semantics.
    const ForecastRequest again = requestFromJson(requestToJson(req));
    EXPECT_EQ(again.fingerprint(), req.fingerprint());
}

TEST(Wire, DistributedIgnoredFieldsDoNotSplitIdentity)
{
    const auto decode = [](const std::string &fields) {
        return requestFromJson(common::Json::parse(
            "{\"op\":\"distributed\",\"model\":\"GPT2-Large\","
            "\"gpu\":\"H100\",\"num_gpus\":4,\"global_batch\":16" +
            fields + "}"));
    };
    // Data and tensor presets price one micro-batch under GPipe, so
    // their micro_batches/schedule fields are canonicalized away.
    for (const std::string strategy : {"data", "tensor"}) {
        const std::string s = ",\"strategy\":\"" + strategy + "\"";
        const ForecastRequest plain = decode(s);
        const ForecastRequest extra = decode(
            s + ",\"micro_batches\":4,\"schedule\":\"interleaved\"");
        EXPECT_EQ(extra.hybrid.numMicroBatches, 1) << strategy;
        EXPECT_EQ(extra.hybrid.schedule, dist::PipelineSchedule::GPipe);
        EXPECT_EQ(extra.fingerprint(), plain.fingerprint()) << strategy;
    }
    // A pipeline reads both.
    const std::string pp = ",\"strategy\":\"pipeline\"";
    const ForecastRequest m4 =
        decode(pp + ",\"micro_batches\":4,\"schedule\":\"1f1b\"");
    EXPECT_NE(m4.fingerprint(),
              decode(pp + ",\"micro_batches\":2,\"schedule\":\"1f1b\"")
                  .fingerprint());
    EXPECT_NE(m4.fingerprint(),
              decode(pp + ",\"micro_batches\":4,\"schedule\":\"gpipe\"")
                  .fingerprint());

    // And the two tensor spellings coalesce in flight.
    const SlowCountingPredictor predictor(40);
    ServerOptions options;
    options.workers = 1;
    ForecastServer server(engineOver(predictor), options);
    auto first = server.submit(decode(
        ",\"strategy\":\"tensor\",\"micro_batches\":4,"
        "\"schedule\":\"interleaved\",\"tag\":\"a\""));
    auto second =
        server.submit(decode(",\"strategy\":\"tensor\",\"tag\":\"b\""));
    const ForecastResult ra = first.get();
    const ForecastResult rb = second.get();
    ASSERT_TRUE(ra.ok) << ra.error;
    ASSERT_TRUE(rb.ok) << rb.error;
    EXPECT_EQ(rb.tag, "b");
    EXPECT_TRUE(rb.coalesced);
    EXPECT_EQ(ra.latencyMs, rb.latencyMs);
}

TEST(Wire, DecodeNeedsPastAndRejectsUnknownOp)
{
    EXPECT_THROW(requestFromJson(common::Json::parse(
                     "{\"op\":\"decode\",\"model\":\"GPT3-XL\","
                     "\"gpu\":\"H100\"}")),
                 std::runtime_error);
    EXPECT_THROW(requestFromJson(common::Json::parse(
                     "{\"op\":\"explode\",\"model\":\"GPT3-XL\","
                     "\"gpu\":\"H100\"}")),
                 std::runtime_error);
}

TEST(Wire, ResultSerializesForecastAndCacheCounters)
{
    ForecastResult result;
    result.tag = "t9";
    result.latencyMs = 12.5;
    result.kernelCount = 42;
    result.serviceMicros = 310.0;
    result.cache.hits = 30;
    result.cache.misses = 12;
    const common::Json json = resultToJson(result);
    EXPECT_TRUE(json.at("ok").asBool());
    EXPECT_DOUBLE_EQ(json.at("latency_ms").asDouble(), 12.5);
    EXPECT_EQ(json.at("kernels").asInt(), 42);
    EXPECT_DOUBLE_EQ(json.at("cache_hit_rate").asDouble(), 30.0 / 42.0);
    EXPECT_EQ(json.at("tag").asString(), "t9");

    ForecastResult error;
    error.ok = false;
    error.error = "boom";
    const common::Json ejson = resultToJson(error);
    EXPECT_FALSE(ejson.at("ok").asBool());
    EXPECT_EQ(ejson.at("error").asString(), "boom");
}

TEST(Wire, StatsOpRoundTripsRegistrySnapshot)
{
    // The stats op needs no model/gpu fields and survives the encode →
    // decode round trip.
    const ForecastRequest req = requestFromJson(
        common::Json::parse("{\"op\":\"stats\",\"tag\":\"s1\"}"));
    EXPECT_EQ(req.kind, RequestKind::Stats);
    EXPECT_EQ(req.tag, "s1");
    const ForecastRequest again = requestFromJson(requestToJson(req));
    EXPECT_EQ(again.kind, RequestKind::Stats);
    EXPECT_EQ(again.tag, "s1");
    // Snapshots are point-in-time: distinct tags must never coalesce.
    ForecastRequest other = req;
    other.tag = "s2";
    EXPECT_NE(req.fingerprint(), other.fingerprint());

    // End-to-end: a served stats request answers with the engine's
    // metrics-registry snapshot instead of a forecast.
    const SlowCountingPredictor predictor(1);
    ServerOptions options;
    options.workers = 1;
    ForecastServer server(engineOver(predictor), options);
    ASSERT_TRUE(server.submit(smallInferenceRequest(2, "warm")).get().ok);
    ForecastRequest stats_req;
    stats_req.kind = RequestKind::Stats;
    stats_req.tag = "s3";
    const ForecastResult result =
        server.submit(std::move(stats_req)).get();
    server.stop();
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_FALSE(result.payload.empty());

    const common::Json json = resultToJson(result);
    EXPECT_EQ(json.at("tag").asString(), "s3");
    EXPECT_FALSE(json.has("latency_ms"));
    const common::Json &snap = json.at("stats");
    EXPECT_GE(snap.at("serve.submitted").asInt(), 2);
    EXPECT_GE(snap.at("engine.requests").asInt(), 2);
    EXPECT_TRUE(snap.at("serve.e2e_us").at("count").isNumber());
}

TEST(GraphCache, LruEvictionAndPromotion)
{
    ModelGraphCache cache(2);
    const auto make = [](size_t nodes) {
        graph::KernelGraph g;
        for (size_t i = 0; i < nodes; ++i)
            g.add(makeLinear(64, 64, 64), "n" + std::to_string(i));
        return std::make_shared<const graph::KernelTable>(
            graph::compileGraph(g));
    };
    EXPECT_EQ(cache.lookup("a"), nullptr);
    cache.insert("a", make(1));
    cache.insert("b", make(2));
    // Promote "a", insert "c": "b" is now the LRU victim.
    ASSERT_NE(cache.lookup("a"), nullptr);
    cache.insert("c", make(3));
    EXPECT_EQ(cache.lookup("b"), nullptr);
    ASSERT_NE(cache.lookup("a"), nullptr);
    EXPECT_EQ(cache.lookup("a")->slot.size(), 1u);
    ASSERT_NE(cache.lookup("c"), nullptr);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.size, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.inserts, 3u);
}

TEST(GraphCache, GetOrBuildBuildsOncePerKey)
{
    ModelGraphCache cache(8);
    int builds = 0;
    const auto build = [&] {
        ++builds;
        graph::KernelGraph g;
        g.add(makeLinear(8, 8, 8), "n");
        return graph::compileGraph(g);
    };
    const auto first = cache.getOrBuild("k", build);
    const auto second = cache.getOrBuild("k", build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), second.get());
}

TEST(Server, ModelGraphCacheServesRepeatedRequests)
{
    const eval::SimulatorOracle oracle;
    ForecastServer server(engineOver(oracle));
    ASSERT_NE(server.modelGraphCache(), nullptr);

    // Two distinct requests sharing (kind, model, batch, dtype) but
    // differing in tag and GPU: the graph is GPU-independent, so the
    // second is a graph-cache hit — and the forecasts still differ.
    ForecastRequest a = smallInferenceRequest(4, "a100");
    ForecastRequest b = smallInferenceRequest(4, "h100");
    b.gpu = findGpu("H100");
    const ForecastResult ra = server.submit(a).get();
    const ForecastResult rb = server.submit(b).get();
    ASSERT_TRUE(ra.ok);
    ASSERT_TRUE(rb.ok);
    EXPECT_NE(ra.latencyMs, rb.latencyMs);
    EXPECT_EQ(ra.kernelCount, rb.kernelCount);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.graphCache.misses, 1u);
    EXPECT_GE(stats.graphCache.hits, 1u);

    // A different batch is a different graph.
    ASSERT_TRUE(server.submit(smallInferenceRequest(8, "b8")).get().ok);
    EXPECT_EQ(server.stats().graphCache.misses, 2u);
}

TEST(Server, GraphCacheCanBeDisabled)
{
    const eval::SimulatorOracle oracle;
    api::EngineConfig config;
    config.graphCacheCapacity = 0;
    ForecastServer server(engineOver(oracle, config));
    EXPECT_EQ(server.modelGraphCache(), nullptr);
    EXPECT_TRUE(server.submit(smallInferenceRequest(2, "x")).get().ok);
    EXPECT_EQ(server.stats().graphCache.hits, 0u);
}

/** Constant-latency predictor for the multi-backend tests. */
class ConstantPredictor : public graph::LatencyPredictor
{
  public:
    explicit ConstantPredictor(double kernel_ms) : kernelMs(kernel_ms) {}

    std::string name() const override { return "Constant"; }

    double
    predictKernelMs(const gpusim::KernelDesc &,
                    const gpusim::GpuSpec &) const override
    {
        return kernelMs;
    }

  private:
    double kernelMs;
};

TEST(Server, ServesTwoBackendsSideBySideInOneProcess)
{
    // The acceptance scenario of the API redesign: one ForecastServer
    // answers wire requests against two distinct registered predictors
    // in the same process, selected per request by the wire "backend"
    // field, with per-backend-correct caching inside one shared cache.
    const ConstantPredictor fast(1.0);
    const ConstantPredictor slow(3.0);
    auto registry = std::make_shared<api::PredictorRegistry>();
    registry->addExternal("fast", fast);
    registry->addExternal("slow", slow);
    api::EngineConfig config;
    config.defaultBackend = "fast";
    config.registry = registry;
    config.cacheCapacity = 4096;
    auto engine = std::make_shared<api::ForecastEngine>(std::move(config));

    ServerOptions options;
    options.workers = 2;
    ForecastServer server(engine, options);

    // Both arrive over the wire, as a client would send them.
    const ForecastRequest on_default = requestFromJson(common::Json::parse(
        "{\"op\":\"inference\",\"model\":\"BERT-Large\",\"batch\":2,"
        "\"gpu\":\"V100\",\"tag\":\"fast\"}"));
    const ForecastRequest on_slow = requestFromJson(common::Json::parse(
        "{\"op\":\"inference\",\"model\":\"BERT-Large\",\"batch\":2,"
        "\"gpu\":\"V100\",\"backend\":\"slow\",\"tag\":\"slow\"}"));
    // Same workload, different backend: semantically different
    // forecasts, so they must never coalesce.
    EXPECT_NE(on_default.fingerprint(), on_slow.fingerprint());

    const ForecastResult fast_result = server.submit(on_default).get();
    const ForecastResult slow_result = server.submit(on_slow).get();
    ASSERT_TRUE(fast_result.ok) << fast_result.error;
    ASSERT_TRUE(slow_result.ok) << slow_result.error;
    EXPECT_EQ(fast_result.tag, "fast");
    EXPECT_EQ(slow_result.tag, "slow");
    EXPECT_DOUBLE_EQ(slow_result.latencyMs, 3.0 * fast_result.latencyMs);
    EXPECT_EQ(fast_result.kernelCount, slow_result.kernelCount);

    // Re-asking each backend hits its own scoped cache entries and
    // still answers its own numbers — the shared cache never crosses
    // the two backends' forecasts.
    const serve::CacheStats before = engine->cacheStats();
    EXPECT_DOUBLE_EQ(server.submit(on_default).get().latencyMs,
                     fast_result.latencyMs);
    EXPECT_DOUBLE_EQ(server.submit(on_slow).get().latencyMs,
                     slow_result.latencyMs);
    const serve::CacheStats after = engine->cacheStats();
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);

    server.stop();
    EXPECT_EQ(server.stats().coalesced, 0u);
    EXPECT_EQ(server.stats().completed, 4u);
}

TEST(Wire, BackendFieldRoundTripsAndAliases)
{
    const ForecastRequest req = requestFromJson(common::Json::parse(
        "{\"op\":\"inference\",\"model\":\"GPT3-XL\",\"batch\":4,"
        "\"gpu\":\"H100\",\"backend\":\"oracle\"}"));
    EXPECT_EQ(req.backend, "oracle");
    const ForecastRequest again = requestFromJson(requestToJson(req));
    EXPECT_EQ(again.backend, "oracle");
    EXPECT_EQ(again.fingerprint(), req.fingerprint());

    // "predictor" is an accepted alias for "backend"...
    const ForecastRequest aliased = requestFromJson(common::Json::parse(
        "{\"op\":\"inference\",\"model\":\"GPT3-XL\",\"batch\":4,"
        "\"gpu\":\"H100\",\"predictor\":\"oracle\"}"));
    EXPECT_EQ(aliased.fingerprint(), req.fingerprint());
    // ...but contradicting values are rejected.
    EXPECT_THROW(requestFromJson(common::Json::parse(
                     "{\"op\":\"inference\",\"model\":\"GPT3-XL\","
                     "\"gpu\":\"H100\",\"backend\":\"a\","
                     "\"predictor\":\"b\"}")),
                 std::runtime_error);

    // The backend is part of the request's semantics.
    ForecastRequest plain = req;
    plain.backend.clear();
    EXPECT_NE(plain.fingerprint(), req.fingerprint());
}

TEST(Wire, HybridAndSweepRequestsRoundTrip)
{
    const ForecastRequest hybrid = requestFromJson(common::Json::parse(
        "{\"op\":\"hybrid\",\"model\":\"GPT2-Large\",\"gpu\":\"H100\","
        "\"global_batch\":16,\"tp\":2,\"dp\":2,\"micro_batches\":2,"
        "\"recompute\":true}"));
    EXPECT_EQ(hybrid.kind, RequestKind::Hybrid);
    EXPECT_EQ(hybrid.hybrid.tpDegree, 2);
    EXPECT_EQ(hybrid.hybrid.ppDegree, 1);
    EXPECT_EQ(hybrid.hybrid.dpDegree, 2);
    // num_gpus defaults to the product of the degrees.
    EXPECT_EQ(hybrid.numGpus, 4);
    EXPECT_TRUE(hybrid.hybrid.recomputeActivations);
    const ForecastRequest hybrid_again =
        requestFromJson(requestToJson(hybrid));
    EXPECT_EQ(hybrid_again.fingerprint(), hybrid.fingerprint());

    const ForecastRequest sweep = requestFromJson(common::Json::parse(
        "{\"op\":\"sweep\",\"model\":\"GPT2-Large\",\"gpu\":\"H100\","
        "\"num_gpus\":4,\"global_batch\":8}"));
    EXPECT_EQ(sweep.kind, RequestKind::HybridSweep);
    EXPECT_EQ(sweep.numGpus, 4);
    EXPECT_EQ(sweep.globalBatch, 8u);
    const ForecastRequest sweep_again =
        requestFromJson(requestToJson(sweep));
    EXPECT_EQ(sweep_again.fingerprint(), sweep.fingerprint());
    EXPECT_NE(sweep.fingerprint(), hybrid.fingerprint());
}

TEST(Wire, SimulateOpAndPriorityRoundTrip)
{
    const ForecastRequest req = requestFromJson(common::Json::parse(
        "{\"op\":\"simulate\",\"model\":\"GPT2-Large\",\"gpu\":\"H100\","
        "\"global_batch\":16,\"pp\":4,\"micro_batches\":8,"
        "\"schedule\":\"zero-bubble\",\"jitter\":0.1,\"seed\":7,"
        "\"priority\":\"high\"}"));
    EXPECT_EQ(req.kind, RequestKind::Simulate);
    EXPECT_EQ(req.hybrid.ppDegree, 4);
    EXPECT_EQ(req.hybrid.schedule, dist::PipelineSchedule::ZeroBubble);
    EXPECT_DOUBLE_EQ(req.jitterFraction, 0.1);
    EXPECT_EQ(req.simSeed, 7u);
    EXPECT_EQ(req.priority, RequestPriority::High);
    const ForecastRequest again = requestFromJson(requestToJson(req));
    EXPECT_EQ(again.fingerprint(), req.fingerprint());
    EXPECT_EQ(again.priority, RequestPriority::High);

    // The jitter stream is part of the forecast's identity; the
    // priority class is not (coalescing ignores it).
    ForecastRequest other_seed = req;
    other_seed.simSeed = 8;
    EXPECT_NE(other_seed.fingerprint(), req.fingerprint());
    ForecastRequest other_priority = req;
    other_priority.priority = RequestPriority::Normal;
    EXPECT_EQ(other_priority.fingerprint(), req.fingerprint());

    // The closed-form op cannot price the zero-bubble schedule; the
    // wire layer rejects the combination up front.
    EXPECT_THROW(requestFromJson(common::Json::parse(
                     "{\"op\":\"hybrid\",\"model\":\"GPT2-Large\","
                     "\"gpu\":\"H100\",\"global_batch\":16,\"pp\":4,"
                     "\"micro_batches\":8,"
                     "\"schedule\":\"zero-bubble\"}")),
                 std::runtime_error);
}

TEST(Server, SimulateRequestsMatchDirectSimulation)
{
    const eval::SimulatorOracle oracle;
    ForecastRequest req;
    req.kind = RequestKind::Simulate;
    req.model = "GPT2-Large";
    req.gpu = findGpu("A100-40GB");
    req.numGpus = 4;
    req.globalBatch = 8;
    req.hybrid.ppDegree = 4;
    req.hybrid.numMicroBatches = 8;
    req.hybrid.schedule = dist::PipelineSchedule::ZeroBubble;

    ForecastServer server(engineOver(oracle));
    const ForecastResult result = server.submit(req).get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.strategy, req.hybrid.describe());

    const dist::EstimatedCollectives comms("A100-NVLink", 600.0);
    dist::ServerConfig config;
    config.setGpu(req.gpu);
    config.numGpus = req.numGpus;
    const sim::SimResult direct = sim::simulateHybrid(
        oracle, comms, config, graph::findModel(req.model),
        req.globalBatch, req.hybrid);
    EXPECT_DOUBLE_EQ(result.latencyMs, direct.hybrid.latencyMs);
    EXPECT_DOUBLE_EQ(result.bubbleMs, direct.hybrid.bubbleMs);
}

TEST(Server, HybridRequestsMatchDirectForecast)
{
    const eval::SimulatorOracle oracle;
    ForecastRequest req;
    req.kind = RequestKind::Hybrid;
    req.model = "GPT2-Large";
    req.gpu = findGpu("H100");
    req.numGpus = 4;
    req.globalBatch = 8;
    req.hybrid.tpDegree = 2;
    req.hybrid.dpDegree = 2;
    req.hybrid.numMicroBatches = 2;

    ForecastServer server(engineOver(oracle));
    const ForecastResult result = server.submit(req).get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.strategy, req.hybrid.describe());

    const dist::EstimatedCollectives comms("A100-NVLink", 600.0);
    dist::ServerConfig config;
    config.setGpu(req.gpu);
    config.numGpus = req.numGpus;
    const dist::HybridResult direct = dist::hybridTrainingMs(
        oracle, comms, config, graph::findModel(req.model),
        req.globalBatch, req.hybrid);
    EXPECT_DOUBLE_EQ(result.latencyMs, direct.latencyMs);
    EXPECT_DOUBLE_EQ(result.commBytes, direct.commBytes);
}

TEST(Server, StopSubmitRaceAlwaysResolvesAndNeverCorruptsDepth)
{
    // Hammer the submit/stop race: every submit must resolve (a result
    // or a deterministic rejection), never hang or enqueue into a dead
    // pool, and the queue-depth gauge must end at exactly zero (it is
    // only ever set to queue.size(), so underflow would show up as a
    // huge positive value here). Run under TSan to pin the locking.
    for (int round = 0; round < 4; ++round) {
        const SlowCountingPredictor predictor(1);
        ServerOptions options;
        options.workers = 2;
        options.queueCapacity = 4;
        ForecastServer server(engineOver(predictor), options);
        std::atomic<int> resolved{0};
        std::vector<std::thread> submitters;
        for (int t = 0; t < 4; ++t) {
            submitters.emplace_back([&server, &resolved, t] {
                for (int i = 0; i < 16; ++i) {
                    const ForecastResult result =
                        server
                            .submit(smallInferenceRequest(
                                static_cast<uint64_t>(t * 16 + i + 1),
                                "h" + std::to_string(t * 16 + i)))
                            .get();
                    EXPECT_TRUE(result.ok || !result.error.empty());
                    resolved.fetch_add(1);
                }
            });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        server.stop(); // Races the submitters by design.
        for (std::thread &t : submitters)
            t.join();
        EXPECT_EQ(resolved.load(), 64);

        // Submit-after-stop is a deterministic immediate rejection —
        // even when identical work is technically still coalescable.
        const ForecastResult late =
            server.submit(smallInferenceRequest(1, "late")).get();
        EXPECT_FALSE(late.ok);
        EXPECT_NE(late.error.find("shutting down"), std::string::npos);

        EXPECT_EQ(server.stats().queueDepth, 0u);
        EXPECT_EQ(server.metrics()->gauge("serve.queue_depth")->value(),
                  0);
        EXPECT_EQ(server.stats().completed + server.stats().rejected,
                  server.stats().submitted);
    }
}

TEST(Server, TrySubmitBackpressureAndShutdownSemantics)
{
    const SlowCountingPredictor predictor(20);
    ServerOptions options;
    options.workers = 1;
    options.queueCapacity = 1;
    ForecastServer server(engineOver(predictor), options);

    std::atomic<int> done{0};
    const auto completion = [&done](ForecastResult) {
        done.fetch_add(1);
    };
    // Slot 1 starts executing, slot 2 queues; a third DISTINCT request
    // must bounce (queue full), while an identical-to-queued request
    // still piggybacks (coalescing never needs a slot).
    ASSERT_TRUE(server.trySubmit(smallInferenceRequest(1, "a"),
                                 completion));
    // Wait until the worker is pricing "a", so its queue slot is free.
    while (predictor.calls.load() < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(server.trySubmit(smallInferenceRequest(2, "b"),
                                 completion));
    EXPECT_FALSE(server.trySubmit(smallInferenceRequest(3, "c"),
                                  completion));
    EXPECT_TRUE(server.trySubmit(smallInferenceRequest(2, "b2"),
                                 completion));
    server.drain();
    EXPECT_EQ(done.load(), 3);

    // After stop(): accepted, answered inline as a rejection.
    server.stop();
    bool rejected = false;
    EXPECT_TRUE(server.trySubmit(
        smallInferenceRequest(4, "late"), [&rejected](ForecastResult r) {
            rejected = !r.ok;
        }));
    EXPECT_TRUE(rejected);
}

TEST(Wire, ScriptReaderSkipsBlanksAndComments)
{
    std::istringstream script(
        "# warmup\n"
        "\n"
        "{\"op\":\"inference\",\"model\":\"GPT3-XL\",\"batch\":4,"
        "\"gpu\":\"H100\"}\n"
        "  {\"op\":\"training\",\"model\":\"BERT-Large\",\"batch\":8,"
        "\"gpu\":\"V100\"}\n");
    const auto requests = readRequestScript(script);
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[0].kind, RequestKind::Inference);
    EXPECT_EQ(requests[1].kind, RequestKind::Training);
    EXPECT_EQ(requests[1].gpu.name, "V100");
}

} // namespace
} // namespace neusight::serve
