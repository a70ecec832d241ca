/**
 * @file
 * Tests for the public forecasting API (src/api/): registry lookup,
 * lazy backend construction, unknown-name errors derived from the
 * registered set, engine/direct-call parity (results must be
 * bit-identical to wiring the predictor by hand), per-backend cache
 * isolation inside the shared engine cache, and prediction-cache
 * persistence (JSON-lines snapshot round trip + engine warm start),
 * and a seeded differential suite over the graph and prediction caches.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "api/engine.hpp"
#include "api/registry.hpp"
#include "baselines/habitat.hpp"
#include "baselines/li.hpp"
#include "baselines/roofline.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/predictor.hpp"
#include "dist/collective.hpp"
#include "dist/parallel.hpp"
#include "eval/oracle.hpp"
#include "gpusim/spec_io.hpp"
#include "graph/models.hpp"

namespace neusight::api {
namespace {

using gpusim::findGpu;

/** Deterministic predictor: every kernel costs a fixed latency. */
class FixedPredictor : public graph::LatencyPredictor
{
  public:
    explicit FixedPredictor(double kernel_ms) : kernelMs(kernel_ms) {}

    std::string name() const override { return "Fixed"; }

    double
    predictKernelMs(const gpusim::KernelDesc &,
                    const gpusim::GpuSpec &) const override
    {
        return kernelMs;
    }

  private:
    double kernelMs;
};

TEST(Registry, BuiltinsAreRegisteredAndSorted)
{
    const auto registry = PredictorRegistry::withBuiltins();
    const std::vector<std::string> names = registry->names();
    const std::vector<std::string> expected = {"habitat", "li", "neusight",
                                               "oracle", "roofline"};
    EXPECT_EQ(names, expected);
    EXPECT_TRUE(registry->has("oracle"));
    EXPECT_FALSE(registry->has("gpt"));
    // Registration alone constructs nothing: training is lazy.
    for (const std::string &name : names)
        EXPECT_FALSE(registry->loaded(name)) << name;
    EXPECT_EQ(registry->namesJoined(),
              "habitat | li | neusight | oracle | roofline");
}

TEST(Registry, LazyLoadConstructsOncePerName)
{
    PredictorRegistry registry;
    int builds = 0;
    registry.add("counting", [&builds] {
        ++builds;
        return std::make_unique<FixedPredictor>(1.0);
    });
    EXPECT_FALSE(registry.loaded("counting"));
    EXPECT_EQ(builds, 0);
    const graph::LatencyPredictor &first = registry.get("counting");
    EXPECT_TRUE(registry.loaded("counting"));
    const graph::LatencyPredictor &second = registry.get("counting");
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(&first, &second);
}

TEST(Registry, UnknownNameErrorListsTheRegisteredBackends)
{
    const auto registry = PredictorRegistry::withBuiltins();
    try {
        registry->get("does-not-exist");
        FAIL() << "expected an unknown-backend error";
    } catch (const std::exception &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("does-not-exist"), std::string::npos);
        // The accepted list is derived from the registry itself, so
        // error text and reality cannot drift.
        for (const char *name :
             {"habitat", "li", "neusight", "oracle", "roofline"})
            EXPECT_NE(message.find(name), std::string::npos) << name;
    }
}

TEST(Registry, DuplicateRegistrationIsRejected)
{
    PredictorRegistry registry;
    registry.add("a", [] { return std::make_unique<FixedPredictor>(1.0); });
    EXPECT_THROW(registry.add("a",
                              [] {
                                  return std::make_unique<FixedPredictor>(
                                      2.0);
                              }),
                 std::runtime_error);
    const FixedPredictor external(3.0);
    EXPECT_THROW(registry.addExternal("a", external), std::runtime_error);
}

TEST(Registry, ExternalEntriesAreNotOwned)
{
    PredictorRegistry registry;
    const FixedPredictor external(1.5);
    registry.addExternal("ext", external);
    EXPECT_TRUE(registry.loaded("ext"));
    EXPECT_EQ(&registry.get("ext"), &external);
    EXPECT_EQ(registry.getOwned("ext"), nullptr);
}

/** Scaled-down trained framework shared by the parity tests. */
class EngineParity : public ::testing::Test
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

    /** An engine whose default backend is the shared tiny framework. */
    static ForecastEngine
    makeEngine(size_t cache_capacity)
    {
        auto registry = std::make_shared<PredictorRegistry>();
        registry->addExternal("tiny", *framework);
        EngineConfig config;
        config.defaultBackend = "tiny";
        config.registry = std::move(registry);
        config.cacheCapacity = cache_capacity;
        return ForecastEngine(std::move(config));
    }

    static core::NeuSight *framework;
};

core::NeuSight *EngineParity::framework = nullptr;

TEST_F(EngineParity, InferenceMatchesDirectNeuSightCall)
{
    ForecastRequest req;
    req.kind = RequestKind::Inference;
    req.model = "BERT-Large";
    req.batch = 2;
    req.gpu = findGpu("A100-40GB");

    const graph::KernelGraph g =
        graph::buildInferenceGraph(graph::findModel(req.model), req.batch);
    const double direct = framework->predictGraphMs(g, req.gpu);

    // Cached and uncached engines must both reproduce the hand-wired
    // forecast exactly (the cached kernel path is pinned bit-identical
    // elsewhere; this pins the engine's plumbing on top of it).
    for (const size_t capacity : {size_t{0}, size_t{4096}}) {
        const ForecastEngine engine = makeEngine(capacity);
        const ForecastResult result = engine.forecast(req);
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_DOUBLE_EQ(result.latencyMs, direct) << capacity;
        EXPECT_EQ(result.kernelCount, g.computeNodeCount());
    }
}

TEST_F(EngineParity, TrainingMatchesDirectNeuSightCall)
{
    ForecastRequest req;
    req.kind = RequestKind::Training;
    req.model = "GPT2-Large";
    req.batch = 4;
    req.gpu = findGpu("H100");

    const graph::KernelGraph g =
        graph::buildTrainingGraph(graph::findModel(req.model), req.batch);
    const double direct = framework->predictGraphMs(g, req.gpu);

    const ForecastEngine engine = makeEngine(4096);
    const ForecastResult result = engine.forecast(req);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_DOUBLE_EQ(result.latencyMs, direct);
}

TEST_F(EngineParity, HybridMatchesDirectHybridTrainingMs)
{
    ForecastRequest req;
    req.kind = RequestKind::Hybrid;
    req.model = "GPT2-Large";
    req.gpu = findGpu("H100");
    req.numGpus = 4;
    req.globalBatch = 8;
    req.hybrid.tpDegree = 2;
    req.hybrid.dpDegree = 2;
    req.hybrid.numMicroBatches = 2;

    const ForecastEngine engine = makeEngine(0);
    const ForecastResult result = engine.forecast(req);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.strategy, req.hybrid.describe());

    // Same forecast as composing the dist layer by hand with the
    // engine's default collective estimator.
    const dist::EstimatedCollectives comms("A100-NVLink", 600.0);
    dist::ServerConfig server;
    server.systemName = req.gpu.name + "-server";
    server.numGpus = req.numGpus;
    server.setGpu(req.gpu);
    const dist::HybridResult direct = dist::hybridTrainingMs(
        *framework, comms, server, graph::findModel(req.model),
        req.globalBatch, req.hybrid);
    EXPECT_DOUBLE_EQ(result.latencyMs, direct.latencyMs);
    EXPECT_DOUBLE_EQ(result.commBytes, direct.commBytes);
    EXPECT_EQ(result.oom, direct.oom);
}

TEST(Engine, SweepAnswersTheDirectWinner)
{
    const FixedPredictor predictor(0.25);
    auto registry = std::make_shared<PredictorRegistry>();
    registry->addExternal("fixed", predictor);
    EngineConfig config;
    config.defaultBackend = "fixed";
    config.registry = registry;
    config.cacheCapacity = 0;
    const ForecastEngine engine(std::move(config));

    ForecastRequest req;
    req.kind = RequestKind::HybridSweep;
    req.model = "GPT2-Large";
    req.gpu = findGpu("H100");
    req.numGpus = 2;
    req.globalBatch = 4;
    const ForecastResult result = engine.forecast(req);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.latencyMs, 0.0);
    EXPECT_FALSE(result.strategy.empty());

    const dist::EstimatedCollectives comms("A100-NVLink", 600.0);
    dist::ServerConfig server;
    server.systemName = req.gpu.name + "-server";
    server.numGpus = req.numGpus;
    server.setGpu(req.gpu);
    const auto entries =
        dist::sweepStrategies(predictor, comms, server,
                              graph::findModel(req.model), req.globalBatch,
                              dist::SweepOptions{});
    ASSERT_FALSE(entries.empty());
    EXPECT_DOUBLE_EQ(result.latencyMs, entries.front().result.latencyMs);
    EXPECT_EQ(result.strategy, entries.front().config.describe());
}

TEST(Engine, UnknownBackendIsACleanErrorResult)
{
    const FixedPredictor predictor(1.0);
    auto registry = std::make_shared<PredictorRegistry>();
    registry->addExternal("only", predictor);
    EngineConfig config;
    config.defaultBackend = "only";
    config.registry = registry;
    const ForecastEngine engine(std::move(config));

    ForecastRequest req;
    req.model = "BERT-Large";
    req.gpu = findGpu("V100");
    req.backend = "missing";
    const ForecastResult result = engine.forecast(req);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("missing"), std::string::npos);
    EXPECT_NE(result.error.find("only"), std::string::npos);
}

TEST(Engine, PerBackendEntriesShareOneCacheWithoutMixing)
{
    // Two backends answering the same kernels with different numbers
    // must not trade cache entries even though they share one cache
    // (one capacity budget, one snapshot): the engine scopes keys per
    // backend.
    const FixedPredictor one(1.0);
    const FixedPredictor two(2.0);
    auto registry = std::make_shared<PredictorRegistry>();
    registry->addExternal("one", one);
    registry->addExternal("two", two);
    EngineConfig config;
    config.defaultBackend = "one";
    config.registry = registry;
    config.cacheCapacity = 4096;
    const ForecastEngine engine(std::move(config));

    ForecastRequest req;
    req.kind = RequestKind::Inference;
    req.model = "BERT-Large";
    req.batch = 2;
    req.gpu = findGpu("V100");

    const ForecastResult first = engine.forecast(req);
    ASSERT_TRUE(first.ok) << first.error;
    req.backend = "two";
    const ForecastResult second = engine.forecast(req);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_DOUBLE_EQ(second.latencyMs, 2.0 * first.latencyMs);

    // Re-asking each backend is answered from its own scoped entries —
    // still the right numbers, now from the shared cache.
    req.backend = "one";
    EXPECT_DOUBLE_EQ(engine.forecast(req).latencyMs, first.latencyMs);
    req.backend = "two";
    EXPECT_DOUBLE_EQ(engine.forecast(req).latencyMs, second.latencyMs);
    EXPECT_GT(engine.cacheStats().hits, 0u);
}

TEST(CachePersistence, SnapshotRoundTripsEveryDetailField)
{
    serve::PredictionCache cache(8, 1);
    core::PredictionDetail detail;
    detail.tileDims = {128, 64, 2};
    detail.numTiles = 42;
    detail.numWaves = 7;
    detail.alpha = 0.875;
    detail.beta = 1.0 / 3.0;
    detail.utilization = 0.6180339887498949;
    detail.rooflinePerSm = 123.456789e-3;
    detail.latencyMs = 0.7071067811865476;
    detail.memoryFallback = true;
    cache.insert("kernel|a", detail);
    core::PredictionDetail plain;
    plain.latencyMs = 2.5;
    cache.insert("kernel|b", plain);

    std::stringstream snapshot;
    EXPECT_EQ(cache.saveTo(snapshot), 2u);

    serve::PredictionCache restored(8, 1);
    EXPECT_EQ(restored.loadFrom(snapshot), 2u);
    EXPECT_EQ(restored.size(), 2u);
    core::PredictionDetail out;
    ASSERT_TRUE(restored.lookup("kernel|a", out));
    EXPECT_EQ(out.tileDims, detail.tileDims);
    EXPECT_EQ(out.numTiles, detail.numTiles);
    EXPECT_EQ(out.numWaves, detail.numWaves);
    EXPECT_DOUBLE_EQ(out.alpha, detail.alpha);
    EXPECT_DOUBLE_EQ(out.beta, detail.beta);
    EXPECT_DOUBLE_EQ(out.utilization, detail.utilization);
    EXPECT_DOUBLE_EQ(out.rooflinePerSm, detail.rooflinePerSm);
    EXPECT_DOUBLE_EQ(out.latencyMs, detail.latencyMs);
    EXPECT_TRUE(out.memoryFallback);
    ASSERT_TRUE(restored.lookup("kernel|b", out));
    EXPECT_DOUBLE_EQ(out.latencyMs, 2.5);
    EXPECT_FALSE(out.memoryFallback);
}

TEST(CachePersistence, SnapshotPreservesRecencyOrder)
{
    serve::PredictionCache cache(2, 1);
    core::PredictionDetail d;
    d.latencyMs = 1.0;
    cache.insert("old", d);
    cache.insert("recent", d);
    core::PredictionDetail out;
    ASSERT_TRUE(cache.lookup("old", out)); // Promote: "recent" is LRU.

    std::stringstream snapshot;
    cache.saveTo(snapshot);
    serve::PredictionCache restored(2, 1);
    restored.loadFrom(snapshot);
    // Insert into the full restored cache: the LRU victim must be the
    // entry that was LRU before the snapshot.
    restored.insert("new", d);
    EXPECT_FALSE(restored.lookup("recent", out));
    EXPECT_TRUE(restored.lookup("old", out));

    // Several stripes: each keeps its own recency order through the
    // round trip, so the same further inserts evict the same keys.
    serve::PredictionCache striped(64, 4);
    for (int i = 0; i < 64; ++i)
        striped.insert("k" + std::to_string(i), d);
    for (int i = 0; i < 64; i += 3)
        striped.lookup("k" + std::to_string(i), out);
    std::stringstream striped_snapshot;
    striped.saveTo(striped_snapshot);
    serve::PredictionCache striped_restored(64, 4);
    striped_restored.loadFrom(striped_snapshot);
    const uint64_t evicted_before = striped.stats().evictions;
    const uint64_t restored_evicted_before =
        striped_restored.stats().evictions;
    for (int i = 0; i < 32; ++i) {
        striped.insert("n" + std::to_string(i), d);
        striped_restored.insert("n" + std::to_string(i), d);
    }
    EXPECT_GT(striped.stats().evictions, evicted_before);
    EXPECT_EQ(striped_restored.stats().evictions - restored_evicted_before,
              striped.stats().evictions - evicted_before);
    size_t survivors = 0;
    for (int i = 0; i < 64; ++i) {
        const std::string key = "k" + std::to_string(i);
        const bool kept = striped.lookup(key, out);
        EXPECT_EQ(striped_restored.lookup(key, out), kept) << key;
        survivors += kept ? 1 : 0;
    }
    // Some promoted keys outlive some unpromoted ones: order mattered.
    EXPECT_GT(survivors, 0u);
    EXPECT_LT(survivors, 64u);
}

TEST(CachePersistence, MalformedSnapshotLineReportsLineNumber)
{
    serve::PredictionCache cache(8, 1);
    std::stringstream snapshot("# comment\n\nnot json\n");
    try {
        cache.loadFrom(snapshot);
        FAIL() << "expected a parse error";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Engine, WarmStartFromSnapshotServesWithoutMisses)
{
    setQuiet(true);
    const std::string path = "api_test_cache_snapshot.jsonl";

    ForecastRequest req;
    req.kind = RequestKind::Inference;
    req.model = "BERT-Large";
    req.batch = 2;
    req.gpu = findGpu("A100-40GB");
    req.backend = "oracle";

    double cold_latency = 0.0;
    {
        ForecastEngine engine(EngineConfig()
                                  .backend("oracle")
                                  .cache(4096)
                                  .saveCacheTo(path));
        const ForecastResult result = engine.forecast(req);
        ASSERT_TRUE(result.ok) << result.error;
        cold_latency = result.latencyMs;
        EXPECT_GT(engine.savePredictionCache(), 0u);
    }

    ForecastEngine warm(EngineConfig()
                            .backend("oracle")
                            .cache(4096)
                            .loadCacheFrom(path));
    EXPECT_GT(warm.predictionCache()->size(), 0u);
    const ForecastResult result = warm.forecast(req);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_DOUBLE_EQ(result.latencyMs, cold_latency);
    // Every kernel of the warm engine's first forecast comes from the
    // snapshot: hits only, no misses.
    const CacheStats stats = warm.cacheStats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    std::remove(path.c_str());
}

/**
 * Differential suite of the compiled-graph forecast path: one seeded
 * corpus of inference, decode and training requests answered with the
 * graph cache on and off, the prediction cache on and off, cold and
 * warm, must reproduce, bit for bit, the node-order sum of each raw
 * backend's predictKernelMs over a freshly built graph.
 */
class EngineDifferential : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        dataset::SamplerConfig sampler;
        sampler.bmmSamples = 300;
        sampler.fcSamples = 200;
        sampler.elementwiseSamples = 150;
        sampler.softmaxSamples = 100;
        sampler.layernormSamples = 100;
        const auto corpus = std::make_shared<
            const std::map<gpusim::OpType, dataset::OperatorDataset>>(
            dataset::generateOperatorData(gpusim::nvidiaTrainingSet(),
                                          sampler));
        registry = std::make_shared<PredictorRegistry>();
        registry->add("oracle", [] {
            return std::make_unique<eval::SimulatorOracle>();
        });
        registry->add("roofline", [] {
            return std::make_unique<baselines::RooflinePredictor>();
        });
        registry->add("habitat", [corpus] {
            baselines::HabitatConfig config;
            config.train.epochs = 4;
            auto habitat =
                std::make_unique<baselines::HabitatPredictor>(config);
            habitat->train(*corpus);
            return habitat;
        });
        registry->add("li", [corpus] {
            auto li = std::make_unique<baselines::LiPredictor>();
            li->train(*corpus);
            return li;
        });
    }

    static void TearDownTestSuite() { registry.reset(); }

    /** A hypothetical GPU read from a JSON file. It shadows a database
     *  name, so only the GPU half of a cache key tells it apart. */
    static gpusim::GpuSpec jsonGpu()
    {
        gpusim::GpuSpec spec = findGpu("A100-40GB");
        spec.memoryBwGBps *= 1.5;
        spec.numSms += 20;
        const std::string path =
            (std::filesystem::temp_directory_path() /
             "neusight_api_differential_gpu.json")
                .string();
        gpusim::saveGpuSpecs({spec}, path);
        gpusim::GpuSpec loaded = ForecastEngine::resolveGpu(path);
        std::remove(path.c_str());
        return loaded;
    }

    static std::vector<ForecastRequest> corpus(size_t count)
    {
        const std::vector<gpusim::GpuSpec> gpus = {
            findGpu("V100"), findGpu("A100-40GB"), findGpu("H100"),
            findGpu("T4"), jsonGpu()};
        const std::vector<std::string> backends = {"oracle", "roofline",
                                                   "habitat", "li"};
        const std::vector<graph::ModelConfig> &models =
            graph::paperWorkloads();
        Rng rng(2021);
        std::vector<ForecastRequest> out;
        for (size_t i = 0; i < count; ++i) {
            ForecastRequest req;
            const int64_t kind = rng.uniformInt(0, 2);
            req.kind = kind == 0   ? RequestKind::Inference
                       : kind == 1 ? RequestKind::DecodeStep
                                   : RequestKind::Training;
            req.model = models[rng.uniformInt(
                            0, static_cast<int64_t>(models.size()) - 1)]
                            .name;
            req.batch = static_cast<uint64_t>(rng.uniformInt(1, 16));
            if (req.kind == RequestKind::DecodeStep)
                req.pastLen = static_cast<uint64_t>(rng.uniformInt(1, 512));
            req.gpu = gpus[rng.uniformInt(
                0, static_cast<int64_t>(gpus.size()) - 1)];
            req.backend = backends[rng.uniformInt(
                0, static_cast<int64_t>(backends.size()) - 1)];
            out.push_back(req);
        }
        return out;
    }

    static graph::KernelGraph graphOf(const ForecastRequest &req)
    {
        const graph::ModelConfig &model = graph::findModel(req.model);
        if (req.kind == RequestKind::Inference)
            return graph::buildInferenceGraph(model, req.batch);
        if (req.kind == RequestKind::DecodeStep)
            return graph::buildDecodeGraph(model, req.batch, req.pastLen);
        return graph::buildTrainingGraph(model, req.batch);
    }

    /** The reference: per-node predictKernelMs, summed in node order. */
    static double nodeOrderSum(const ForecastRequest &req)
    {
        const graph::LatencyPredictor &raw = registry->get(req.backend);
        double total = 0.0;
        for (const graph::KernelNode &node : graphOf(req).nodes)
            if (node.kind == graph::NodeKind::Compute)
                total += raw.predictKernelMs(node.kernel, req.gpu);
        return total;
    }

    static ForecastEngine engine(size_t graph_cache, size_t kernel_cache)
    {
        EngineConfig config;
        config.registry = registry;
        config.defaultBackend = "oracle";
        config.graphCacheCapacity = graph_cache;
        config.cacheCapacity = kernel_cache;
        return ForecastEngine(std::move(config));
    }

    static bool sameBits(double a, double b)
    {
        return std::memcmp(&a, &b, sizeof(double)) == 0;
    }

    static std::shared_ptr<PredictorRegistry> registry;
};

std::shared_ptr<PredictorRegistry> EngineDifferential::registry;

TEST_F(EngineDifferential, EveryCacheWiringMatchesTheNodeOrderSum)
{
    const std::vector<ForecastRequest> requests = corpus(240);
    std::vector<double> expected;
    std::vector<size_t> kernels;
    for (const ForecastRequest &req : requests) {
        expected.push_back(nodeOrderSum(req));
        kernels.push_back(graphOf(req).computeNodeCount());
    }
    // Small graph and prediction caches, so both evict mid-corpus.
    for (const size_t graph_cache : {size_t{0}, size_t{16}}) {
        for (const size_t kernel_cache : {size_t{0}, size_t{512}}) {
            const ForecastEngine e = engine(graph_cache, kernel_cache);
            for (const char *pass : {"cold", "warm"}) {
                for (size_t i = 0; i < requests.size(); ++i) {
                    const ForecastResult r = e.forecast(requests[i]);
                    ASSERT_TRUE(r.ok) << r.error;
                    EXPECT_TRUE(sameBits(r.latencyMs, expected[i]))
                        << "request " << i << ' ' << pass << " graph cache "
                        << graph_cache << " kernel cache " << kernel_cache
                        << ": " << r.latencyMs << " vs " << expected[i];
                    EXPECT_EQ(r.kernelCount, kernels[i]);
                }
            }
        }
    }
}

TEST_F(EngineDifferential, GraphForecastsThenTablesShareOneCache)
{
    // Price each request's freshly built graph through the wired
    // backend first (filling the prediction cache), then forecast it
    // through the engine's compiled table: both read the same entries.
    const std::vector<ForecastRequest> requests = corpus(240);
    const ForecastEngine e = engine(16, 1 << 16);
    for (size_t i = 0; i < requests.size(); ++i) {
        const ForecastRequest &req = requests[i];
        const double expected = nodeOrderSum(req);
        const double direct =
            e.backend(req.backend).predictGraphMs(graphOf(req), req.gpu);
        EXPECT_TRUE(sameBits(direct, expected)) << "request " << i;
        const ForecastResult r = e.forecast(req);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_TRUE(sameBits(r.latencyMs, expected)) << "request " << i;
    }
    EXPECT_GT(e.cacheStats().hits, 0u);
}

TEST(Workload, BuildWorkloadGraphCoversCnnAndTable5)
{
    const graph::KernelGraph resnet =
        buildWorkloadGraph("ResNet-50", 1, /*training=*/false);
    EXPECT_GT(resnet.computeNodeCount(), 0u);
    const graph::KernelGraph bert =
        buildWorkloadGraph("BERT-Large", 2, /*training=*/true);
    EXPECT_GT(bert.computeNodeCount(), 0u);
    EXPECT_THROW(buildWorkloadGraph("VGG-16", 1, /*training=*/true),
                 std::runtime_error);
}

TEST(Workload, ResolveGpuAcceptsDatabaseNames)
{
    EXPECT_EQ(ForecastEngine::resolveGpu("H100").name, "H100");
    EXPECT_THROW(ForecastEngine::resolveGpu("NoSuchGpu.json"),
                 std::runtime_error);
}

} // namespace
} // namespace neusight::api
