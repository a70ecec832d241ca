/**
 * @file
 * Integration tests: train a (scaled-down) NeuSight on the simulator
 * corpus and assert the paper's qualitative results — NeuSight beats
 * every baseline end-to-end, stays accurate on held-out GPUs and
 * out-of-distribution shapes, predicts fused graphs, tracks distributed
 * ground truth, and round-trips through trainOrLoad.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "baselines/habitat.hpp"
#include "common/logging.hpp"
#include "baselines/li.hpp"
#include "baselines/roofline.hpp"
#include "core/predictor.hpp"
#include "dist/parallel.hpp"
#include "eval/harness.hpp"
#include "eval/oracle.hpp"
#include "graph/fusion.hpp"

namespace neusight {
namespace {

using core::NeuSight;
using gpusim::OpType;

class EndToEnd : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        dataset::SamplerConfig sampler;
        sampler.bmmSamples = 900;
        sampler.fcSamples = 600;
        sampler.elementwiseSamples = 450;
        sampler.softmaxSamples = 250;
        sampler.layernormSamples = 250;
        corpus = new std::map<OpType, dataset::OperatorDataset>(
            dataset::generateOperatorData(gpusim::nvidiaTrainingSet(),
                                          sampler));

        core::PredictorConfig cfg;
        cfg.train.epochs = 35;
        neusight = new NeuSight(cfg);
        neusight->train(*corpus);

        li = new baselines::LiPredictor();
        li->train(*corpus);

        baselines::HabitatConfig hcfg;
        hcfg.train.epochs = 35;
        habitat = new baselines::HabitatPredictor(hcfg);
        habitat->train(*corpus);
    }

    static void
    TearDownTestSuite()
    {
        delete habitat;
        delete li;
        delete neusight;
        delete corpus;
        habitat = nullptr;
        li = nullptr;
        neusight = nullptr;
        corpus = nullptr;
    }

    static std::map<OpType, dataset::OperatorDataset> *corpus;
    static NeuSight *neusight;
    static baselines::LiPredictor *li;
    static baselines::HabitatPredictor *habitat;
    static inline const baselines::RooflinePredictor roofline{};
};

std::map<OpType, dataset::OperatorDataset> *EndToEnd::corpus = nullptr;
NeuSight *EndToEnd::neusight = nullptr;
baselines::LiPredictor *EndToEnd::li = nullptr;
baselines::HabitatPredictor *EndToEnd::habitat = nullptr;

TEST_F(EndToEnd, NeuSightBeatsAllBaselines)
{
    auto cases = eval::paperEvaluationCases(false);
    cases.resize(6); // BERT-Large + GPT2-Large + GPT3-XL at two batches.
    const std::vector<gpusim::GpuSpec> gpus = {
        gpusim::findGpu("V100"), gpusim::findGpu("A100-40GB"),
        gpusim::findGpu("H100"), gpusim::findGpu("L4")};
    const auto results = eval::evaluateCases(
        cases, gpus, {neusight, &roofline, habitat, li});
    const auto err = eval::endToEndError(results);
    ASSERT_TRUE(err.count("NeuSight"));
    EXPECT_LT(err.at("NeuSight"), 15.0);
    EXPECT_LT(err.at("NeuSight"), err.at("Roofline"));
    EXPECT_LT(err.at("NeuSight"), err.at("Habitat"));
    EXPECT_LT(err.at("NeuSight"), err.at("Li et al."));
}

TEST_F(EndToEnd, AccurateOnHeldOutGpus)
{
    // H100 / L4 / A100-80GB were never in the training set.
    auto cases = eval::paperEvaluationCases(false);
    cases.resize(4);
    const std::vector<gpusim::GpuSpec> gpus = {
        gpusim::findGpu("H100"), gpusim::findGpu("L4"),
        gpusim::findGpu("A100-80GB")};
    const auto results =
        eval::evaluateCases(cases, gpus, {neusight});
    const auto err = eval::outOfDistributionError(results);
    EXPECT_LT(err.at("NeuSight"), 20.0);
}

TEST_F(EndToEnd, OutOfDistributionKernelsStayBounded)
{
    // BMM dims far beyond the 1..1024 training range (paper Section 3).
    const gpusim::GpuSpec &h100 = gpusim::findGpu("H100");
    const gpusim::Device dev(h100);
    for (uint64_t dim : {2048u, 4096u}) {
        const auto desc = gpusim::makeBmm(8, dim, dim, dim);
        const double measured = dev.measureKernelMs(desc);
        const double predicted = neusight->predictKernelMs(desc, h100);
        EXPECT_LT(std::abs(predicted - measured) / measured, 0.40) << dim;
    }
}

TEST_F(EndToEnd, TrainingGraphsPredictAccurately)
{
    const eval::SimulatorOracle oracle;
    const gpusim::GpuSpec &a100 = gpusim::findGpu("A100-80GB");
    const auto g =
        graph::buildTrainingGraph(graph::findModel("GPT2-Large"), 4);
    const double measured = oracle.predictGraphMs(g, a100);
    const double predicted = neusight->predictGraphMs(g, a100);
    EXPECT_LT(std::abs(predicted - measured) / measured, 0.20);
}

TEST_F(EndToEnd, FusedGraphsPredictAccurately)
{
    const eval::SimulatorOracle oracle;
    const gpusim::GpuSpec &h100 = gpusim::findGpu("H100");
    const auto g = graph::fuseGraph(
        graph::buildInferenceGraph(graph::findModel("BERT-Large"), 8));
    const double measured = oracle.predictGraphMs(g, h100);
    const double predicted = neusight->predictGraphMs(g, h100);
    EXPECT_LT(std::abs(predicted - measured) / measured, 0.35);
    // Fusion speeds up the measured model (Table 7 behaviour).
    const double unfused = oracle.predictGraphMs(
        graph::buildInferenceGraph(graph::findModel("BERT-Large"), 8),
        h100);
    EXPECT_LT(measured, unfused);
}

TEST_F(EndToEnd, Fp16TensorCorePredictionHolds)
{
    // Figure 10: prediction adapts to the new datapath via features.
    const gpusim::GpuSpec &h100 = gpusim::findGpu("H100");
    const gpusim::Device dev(h100);
    double total_err = 0.0;
    int count = 0;
    for (uint64_t n : {1024u, 2048u, 4096u}) {
        const auto desc =
            gpusim::makeBmm(16, n, n, n, gpusim::DataType::Fp16, true);
        const double measured = dev.measureKernelMs(desc);
        const double predicted = neusight->predictKernelMs(desc, h100);
        total_err += std::abs(predicted - measured) / measured;
        ++count;
    }
    EXPECT_LT(total_err / count, 0.40);
}

TEST_F(EndToEnd, DistributedForecastTracksGroundTruth)
{
    // The full-budget run (bench/table08) holds ~10% on both servers;
    // this fixture trains a scaled-down predictor, so the in-distribution
    // A100 server gets the tight bound and the held-out H100 server a
    // looser one (its single-kernel OOD bound elsewhere is 40%).
    const eval::SimulatorOracle oracle;
    const auto &model = graph::findModel("GPT2-Large");
    struct ServerCase
    {
        dist::ServerConfig server;
        double bound;
    };
    dist::ServerConfig a100;
    a100.systemName = "A100-NVLink";
    a100.gpuName = "A100-40GB";
    a100.numGpus = 4;
    a100.linkGBps = 600.0;
    dist::ServerConfig h100;
    h100.systemName = "H100-DGX";
    h100.gpuName = "H100";
    h100.numGpus = 4;
    for (const auto &[server, bound] :
         {ServerCase{a100, 0.25}, ServerCase{h100, 0.55}}) {
        const dist::SimCollectives sim_comms(server.systemName);
        const dist::EstimatedCollectives est_comms("A100-NVLink", 600.0);
        for (dist::Parallelism strategy :
             {dist::Parallelism::Data, dist::Parallelism::Tensor,
              dist::Parallelism::Pipeline}) {
            const dist::HybridConfig preset =
                dist::singleAxisConfig(strategy, server.numGpus);
            const auto truth = dist::hybridTrainingMs(
                oracle, sim_comms, server, model, 4, preset);
            const auto guess = dist::hybridTrainingMs(
                *neusight, est_comms, server, model, 4, preset);
            ASSERT_FALSE(truth.oom);
            ASSERT_FALSE(guess.oom);
            EXPECT_LT(std::abs(guess.latencyMs - truth.latencyMs) /
                          truth.latencyMs,
                      bound)
                << server.systemName << " "
                << dist::parallelismName(strategy);
        }
    }
}

TEST_F(EndToEnd, PerOperatorErrorsFavorNeuSight)
{
    std::vector<eval::WorkloadCase> cases;
    eval::WorkloadCase c;
    c.model = graph::findModel("BERT-Large");
    c.batch = 8;
    cases.push_back(c);
    const std::vector<gpusim::GpuSpec> gpus = {gpusim::findGpu("H100")};
    const auto errs =
        eval::perOperatorErrors(cases, gpus, {neusight, &roofline});
    for (OpType type : {OpType::BatchedMatmul, OpType::FullyConnected}) {
        ASSERT_TRUE(errs.count(type));
        EXPECT_LT(errs.at(type).at("NeuSight"),
                  errs.at(type).at("Roofline"))
            << gpusim::opTypeName(type);
    }
}

TEST_F(EndToEnd, SaveReloadKeepsEndToEndPrediction)
{
    const std::string path = "/tmp/neusight_e2e_model.bin";
    neusight->save(path);
    // Epochs differ from the trained config; loading only checks the
    // architecture (hidden dim / layers), which matches the defaults.
    NeuSight restored{core::PredictorConfig{}};
    restored.load(path);
    const auto g =
        graph::buildInferenceGraph(graph::findModel("GPT3-XL"), 2);
    const gpusim::GpuSpec &h100 = gpusim::findGpu("H100");
    EXPECT_DOUBLE_EQ(restored.predictGraphMs(g, h100),
                     neusight->predictGraphMs(g, h100));
    std::filesystem::remove(path);
}

TEST(TrainOrLoad, CachesToDisk)
{
    setQuiet(true);
    const std::string path = "/tmp/neusight_cache_test.bin";
    std::filesystem::remove(path);
    dataset::SamplerConfig sampler;
    sampler.bmmSamples = 150;
    sampler.fcSamples = 100;
    sampler.elementwiseSamples = 80;
    sampler.softmaxSamples = 50;
    sampler.layernormSamples = 50;
    core::PredictorConfig cfg;
    cfg.hiddenDim = 16;
    cfg.hiddenLayers = 2;
    cfg.train.epochs = 5;
    const NeuSight first = NeuSight::trainOrLoad(
        path, gpusim::nvidiaTrainingSet(), sampler, cfg);
    ASSERT_TRUE(std::filesystem::exists(path));
    const NeuSight second = NeuSight::trainOrLoad(
        path, gpusim::nvidiaTrainingSet(), sampler, cfg);
    const auto desc = gpusim::makeBmm(4, 256, 256, 256);
    const gpusim::GpuSpec &gpu = gpusim::findGpu("H100");
    EXPECT_DOUBLE_EQ(first.predictKernelMs(desc, gpu),
                     second.predictKernelMs(desc, gpu));
    std::filesystem::remove(path);
}

} // namespace
} // namespace neusight
