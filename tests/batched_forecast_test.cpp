/**
 * @file
 * Equivalence tests for the batched inference path: the tape-free
 * Mlp::inferRows against the autograd forward, KernelPredictor::
 * predictBatch / NeuSight::predictKernelsMs against the single-kernel
 * path (bit-exact on seeded random kernels), and the deduplicated
 * predictGraphMs against the node-by-node sum.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/predictor.hpp"
#include "graph/models.hpp"
#include "nn/autograd.hpp"
#include "nn/module.hpp"

namespace neusight::core {
namespace {

using gpusim::KernelDesc;
using gpusim::OpType;

TEST(InferRows, MatchesTapedForwardBitExactly)
{
    nn::MlpConfig cfg;
    cfg.inputDim = 5;
    cfg.hiddenDim = 48;
    cfg.hiddenLayers = 6;
    cfg.outputDim = 2;
    cfg.seed = 99;
    nn::Mlp mlp(cfg);

    Rng rng(1234);
    for (size_t rows : {1u, 3u, 17u, 64u}) {
        Matrix x(rows, cfg.inputDim);
        for (size_t i = 0; i < x.size(); ++i)
            x.raw()[i] = rng.normal(0.0, 2.0);
        const Matrix taped = mlp.forward(nn::constant(x)).value();
        const Matrix inferred = mlp.inferRows(x);
        ASSERT_EQ(taped.rows(), inferred.rows());
        ASSERT_EQ(taped.cols(), inferred.cols());
        for (size_t i = 0; i < taped.size(); ++i)
            EXPECT_EQ(taped.raw()[i], inferred.raw()[i])
                << "rows=" << rows << " element " << i;
    }
}

TEST(InferRows, BatchRowsMatchSingleRowBitExactly)
{
    // The dedup/batching contract rests on each output row depending
    // only on its own input row: a (N, F) pass must reproduce N
    // independent (1, F) passes exactly.
    nn::MlpConfig cfg;
    cfg.inputDim = 5;
    cfg.hiddenDim = 64;
    cfg.hiddenLayers = 4;
    cfg.outputDim = 2;
    cfg.seed = 7;
    nn::Mlp mlp(cfg);

    Rng rng(77);
    const size_t n = 96;
    Matrix batch(n, cfg.inputDim);
    for (size_t i = 0; i < batch.size(); ++i)
        batch.raw()[i] = rng.normal(0.0, 3.0);
    const Matrix all = mlp.inferRows(batch);
    for (size_t r = 0; r < n; ++r) {
        Matrix row(1, cfg.inputDim);
        for (size_t c = 0; c < cfg.inputDim; ++c)
            row.at(0, c) = batch.at(r, c);
        const Matrix one = mlp.inferRows(row);
        for (size_t c = 0; c < cfg.outputDim; ++c)
            EXPECT_EQ(all.at(r, c), one.at(0, c)) << "row " << r;
    }
}

/** Small shared corpus + trained framework (built once for the suite). */
class BatchedForecast : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dataset::SamplerConfig sampler;
        sampler.bmmSamples = 400;
        sampler.fcSamples = 300;
        sampler.elementwiseSamples = 200;
        sampler.softmaxSamples = 150;
        sampler.layernormSamples = 150;
        PredictorConfig cfg;
        cfg.hiddenDim = 32;
        cfg.hiddenLayers = 4;
        cfg.train.epochs = 20;
        framework = new NeuSight(cfg);
        framework->train(dataset::generateOperatorData(
            gpusim::nvidiaTrainingSet(), sampler));
    }

    static void
    TearDownTestSuite()
    {
        delete framework;
        framework = nullptr;
    }

    /** Seeded random kernels across every learned family + a fallback. */
    static std::vector<KernelDesc>
    randomKernels(uint64_t seed, size_t count)
    {
        Rng rng(seed);
        const auto dim = [&rng](uint64_t lo, uint64_t hi) {
            return lo + static_cast<uint64_t>(rng.uniform() *
                                              static_cast<double>(hi - lo));
        };
        std::vector<KernelDesc> descs;
        for (size_t i = 0; i < count; ++i) {
            switch (i % 6) {
              case 0:
                descs.push_back(gpusim::makeBmm(dim(1, 16), dim(64, 2048),
                                                dim(64, 2048),
                                                dim(32, 1024)));
                break;
              case 1:
                descs.push_back(gpusim::makeLinear(
                    dim(64, 4096), dim(64, 2048), dim(64, 4096)));
                break;
              case 2:
                descs.push_back(gpusim::makeElementwise(
                    "gelu", dim(1 << 12, 1 << 22)));
                break;
              case 3:
                descs.push_back(
                    gpusim::makeSoftmax(dim(64, 8192), dim(64, 2048)));
                break;
              case 4:
                descs.push_back(
                    gpusim::makeLayerNorm(dim(64, 8192), dim(64, 2048)));
                break;
              default:
                // Memory-fallback family (no learned predictor).
                descs.push_back(gpusim::makeMemoryOp(
                    "embedding", static_cast<double>(dim(1 << 16, 1 << 26))));
                break;
            }
        }
        // Duplicate a slice so the dedup path sees repeats.
        for (size_t i = 0; i + 1 < count / 3; ++i)
            descs.push_back(descs[i]);
        return descs;
    }

    static NeuSight *framework;
};

NeuSight *BatchedForecast::framework = nullptr;

TEST_F(BatchedForecast, PredictKernelsMsMatchesSinglePathBitExactly)
{
    for (const char *gpu_name : {"A100-40GB", "H100", "L4"}) {
        const gpusim::GpuSpec &gpu = gpusim::findGpu(gpu_name);
        const std::vector<KernelDesc> descs =
            randomKernels(42 + gpu_name[0], 60);
        const std::vector<double> batched =
            framework->predictKernelsMs(descs, gpu);
        ASSERT_EQ(batched.size(), descs.size());
        for (size_t i = 0; i < descs.size(); ++i)
            EXPECT_EQ(batched[i],
                      framework->predictKernelMs(descs[i], gpu))
                << gpu_name << " kernel " << i << ": "
                << descs[i].summary();
    }
}

TEST_F(BatchedForecast, PredictBatchMatchesPredictBitExactly)
{
    // Directly at the KernelPredictor layer: N rows through one matrix
    // pass vs N single-row calls.
    const gpusim::GpuSpec &gpu = gpusim::findGpu("H100");
    Rng rng(5);
    std::vector<KernelDesc> descs;
    std::vector<std::vector<uint64_t>> tiles;
    for (int i = 0; i < 40; ++i) {
        const uint64_t rows =
            64 + static_cast<uint64_t>(rng.uniform() * 4000.0);
        const uint64_t cols =
            64 + static_cast<uint64_t>(rng.uniform() * 2000.0);
        KernelDesc desc = gpusim::makeLayerNorm(rows, cols);
        KernelDesc lookup = desc;
        lookup.opName = canonicalOpName(desc.opName);
        tiles.push_back(framework->tileDatabase().lookup(lookup, gpu));
        descs.push_back(std::move(desc));
    }
    // predictBatch is private to no one: reach the layer-norm family's
    // predictor through the framework's single-kernel API for reference.
    KernelPredictor pred(OpType::LayerNorm, PredictorConfig{});
    dataset::SamplerConfig sampler;
    sampler.layernormSamples = 200;
    const auto corpus = dataset::generateOperatorData(
        {gpusim::findGpu("V100")}, sampler);
    pred.train(corpus.at(OpType::LayerNorm));
    const std::vector<PredictionDetail> batched =
        pred.predictBatch(descs, gpu, tiles);
    ASSERT_EQ(batched.size(), descs.size());
    for (size_t i = 0; i < descs.size(); ++i) {
        const PredictionDetail one = pred.predict(descs[i], gpu, tiles[i]);
        EXPECT_EQ(batched[i].latencyMs, one.latencyMs) << i;
        EXPECT_EQ(batched[i].alpha, one.alpha) << i;
        EXPECT_EQ(batched[i].beta, one.beta) << i;
        EXPECT_EQ(batched[i].utilization, one.utilization) << i;
        EXPECT_EQ(batched[i].numWaves, one.numWaves) << i;
    }
}

TEST_F(BatchedForecast, GraphForecastMatchesNodeByNodeSum)
{
    // The deduplicated graph path regroups the sum (count * ms instead
    // of node order), so equality is near-exact rather than bit-exact.
    const gpusim::GpuSpec &gpu = gpusim::findGpu("A100-40GB");
    const graph::KernelGraph g = graph::buildTrainingGraph(
        graph::findModel("GPT2-Large"), 4);
    double node_sum = 0.0;
    for (const auto &node : g.nodes)
        if (node.kind == graph::NodeKind::Compute)
            node_sum += framework->predictKernelMs(node.kernel, gpu);
    const double batched = framework->predictGraphMs(g, gpu);
    EXPECT_NEAR(batched, node_sum, 1e-9 * node_sum);
}

} // namespace
} // namespace neusight::core
