/**
 * @file
 * Tests for the DNN graph substrate: Table-5 model builders (parameter
 * counts vs published sizes, FLOPs vs analytic formulas), training-graph
 * synthesis, layer-range slicing, the fusion pass, the memory model, and
 * graph compilation (unique-kernel tables).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "graph/fusion.hpp"
#include "graph/graph.hpp"
#include "graph/latency_predictor.hpp"
#include "graph/models.hpp"

namespace neusight::graph {
namespace {

using gpusim::OpType;

TEST(Models, PaperWorkloadsPresent)
{
    const auto &models = paperWorkloads();
    EXPECT_EQ(models.size(), 6u);
    for (const char *name : {"BERT-Large", "GPT2-Large", "GPT3-XL",
                             "OPT-1.3B", "GPT3-2.7B", "SwitchTrans"})
        EXPECT_NO_THROW(findModel(name)) << name;
    EXPECT_THROW(findModel("LLaMA"), std::runtime_error);
}

TEST(Models, ParameterCountsMatchPublishedSizes)
{
    // Within 5% of the nominal sizes of paper Table 5.
    EXPECT_NEAR(findModel("BERT-Large").parameterCount(), 340e6,
                340e6 * 0.05);
    EXPECT_NEAR(findModel("GPT2-Large").parameterCount(), 774e6,
                774e6 * 0.05);
    EXPECT_NEAR(findModel("GPT3-XL").parameterCount(), 1.3e9, 1.3e9 * 0.05);
    EXPECT_NEAR(findModel("OPT-1.3B").parameterCount(), 1.3e9,
                1.3e9 * 0.05);
    EXPECT_NEAR(findModel("GPT3-2.7B").parameterCount(), 2.7e9,
                2.7e9 * 0.05);
}

TEST(Models, InferenceFlopsMatchAnalyticFormula)
{
    // Dense decoder forward FLOPs ~ 2 * P_block * tokens + attention
    // quadratic term; allow 25% for heads/embeddings bookkeeping.
    const ModelConfig &m = findModel("GPT2-Large");
    const uint64_t batch = 4;
    const KernelGraph g = buildInferenceGraph(m, batch);
    const double tokens = static_cast<double>(batch) * m.seq;
    const double analytic =
        2.0 * m.parameterCount() * tokens +
        4.0 * m.numLayers * tokens * m.seq * m.hidden; // QK^T + PV.
    EXPECT_NEAR(g.totalFlops(), analytic, analytic * 0.25);
}

TEST(Models, TrainingIsAboutThreeTimesInference)
{
    const ModelConfig &m = findModel("GPT3-XL");
    const double inf = buildInferenceGraph(m, 2).totalFlops();
    const double train = buildTrainingGraph(m, 2).totalFlops();
    EXPECT_GT(train, inf * 2.5);
    EXPECT_LT(train, inf * 3.5);
}

TEST(Models, GraphScalesLinearlyWithBatch)
{
    const ModelConfig &m = findModel("BERT-Large");
    const double b1 = buildInferenceGraph(m, 1).totalFlops();
    const double b8 = buildInferenceGraph(m, 8).totalFlops();
    EXPECT_NEAR(b8, 8.0 * b1, 8.0 * b1 * 0.01);
}

TEST(Models, KernelFamiliesPresent)
{
    const KernelGraph g = buildInferenceGraph(findModel("GPT2-Large"), 2);
    const ModelConfig &m = findModel("GPT2-Large");
    // Two BMMs per layer (QK^T, PV).
    EXPECT_EQ(g.countType(OpType::BatchedMatmul), 2 * m.numLayers);
    // One softmax per layer.
    EXPECT_EQ(g.countType(OpType::Softmax), m.numLayers);
    // Two layer norms per layer + final.
    EXPECT_EQ(g.countType(OpType::LayerNorm), 2 * m.numLayers + 1);
    // QKV + proj + 2 FFN per layer + LM head.
    EXPECT_EQ(g.countType(OpType::FullyConnected), 4 * m.numLayers + 1);
    EXPECT_EQ(g.countType(OpType::Memory), 1u); // Embedding.
}

TEST(Models, BertHasClassifierHead)
{
    const KernelGraph g = buildInferenceGraph(findModel("BERT-Large"), 4);
    bool has_classifier = false;
    bool has_lm = false;
    for (const auto &node : g.nodes) {
        has_classifier |= node.label == "head.classifier";
        has_lm |= node.label == "head.lm";
    }
    EXPECT_TRUE(has_classifier);
    EXPECT_FALSE(has_lm);
}

TEST(Models, SwitchMoeLayersHaveExperts)
{
    const ModelConfig &m = findModel("SwitchTrans");
    EXPECT_EQ(m.numExperts, 4u);
    const KernelGraph g = buildInferenceGraph(m, 2);
    size_t routers = 0;
    size_t experts = 0;
    for (const auto &node : g.nodes) {
        if (node.label.find("moe.router") != std::string::npos)
            ++routers;
        if (node.label.find("moe.expert") != std::string::npos &&
            node.label.find(".ff1") != std::string::npos)
            ++experts;
    }
    EXPECT_EQ(routers, m.numLayers / 2);          // Alternate layers.
    EXPECT_EQ(experts, m.numLayers / 2 * m.numExperts);
}

TEST(Models, MoeModelHasMoreParamsThanDense)
{
    ModelConfig dense = findModel("SwitchTrans");
    dense.numExperts = 1;
    EXPECT_GT(findModel("SwitchTrans").parameterCount(),
              dense.parameterCount() * 1.5);
}

TEST(Models, TrainingGraphHasBackwardKernels)
{
    const KernelGraph g = buildTrainingGraph(findModel("BERT-Large"), 2);
    size_t bwd = 0;
    for (const auto &node : g.nodes)
        if (node.label.find(".bwd") != std::string::npos)
            ++bwd;
    EXPECT_GT(bwd, 100u);
    // GEMM backward emits two kernels per forward GEMM.
    const KernelGraph inf = buildInferenceGraph(findModel("BERT-Large"), 2);
    EXPECT_GE(g.countType(OpType::FullyConnected),
              3 * inf.countType(OpType::FullyConnected) - 2);
}

TEST(Models, LayerRangeStitchingCoversFullModel)
{
    const ModelConfig &m = findModel("GPT3-XL");
    const uint64_t batch = 2;
    const double full = buildTrainingGraph(m, batch).totalFlops();
    double stitched = 0.0;
    const int stages = 4;
    const uint64_t per_stage = m.numLayers / stages;
    for (int st = 0; st < stages; ++st) {
        LayerRange range;
        range.beginLayer = per_stage * static_cast<uint64_t>(st);
        range.endLayer = range.beginLayer + per_stage;
        range.includeEmbedding = st == 0;
        range.includeHead = st == stages - 1;
        range.training = true;
        stitched += buildLayerRangeGraph(m, batch, range).totalFlops();
    }
    // Training graphs include dropout only in the forward they were built
    // with; stitching must reproduce the full graph's work exactly.
    EXPECT_NEAR(stitched, full, full * 1e-9);
}

TEST(Models, LayerRangeRejectsBadRange)
{
    LayerRange range;
    range.beginLayer = 30;
    range.endLayer = 10;
    EXPECT_DEATH(
        buildLayerRangeGraph(findModel("GPT3-XL"), 1, range),
        "layer range");
}

TEST(Models, MemoryModelMonotonicInBatch)
{
    const ModelConfig &m = findModel("GPT2-Large");
    EXPECT_LT(modelMemoryBytes(m, 1, false), modelMemoryBytes(m, 8, false));
    EXPECT_LT(modelMemoryBytes(m, 1, true), modelMemoryBytes(m, 8, true));
}

TEST(Models, TrainingNeedsMoreMemoryThanInference)
{
    const ModelConfig &m = findModel("GPT3-XL");
    EXPECT_GT(modelMemoryBytes(m, 2, true),
              3.0 * modelMemoryBytes(m, 2, false));
}

TEST(Models, MemoryIncludesParameters)
{
    const ModelConfig &m = findModel("GPT3-2.7B");
    EXPECT_GT(modelMemoryBytes(m, 1, false), m.parameterCount() * 4.0);
}

TEST(Graph, AccountingHelpers)
{
    KernelGraph g;
    g.add(gpusim::makeBmm(1, 64, 64, 64), "a");
    g.add(gpusim::makeElementwise("add", 100, 2, 1.0), "b");
    g.nodes.push_back(KernelNode::comm(NodeKind::AllReduce, 1e6, "ar"));
    EXPECT_EQ(g.computeNodeCount(), 2u);
    EXPECT_EQ(g.countType(OpType::BatchedMatmul), 1u);
    EXPECT_DOUBLE_EQ(g.totalFlops(),
                     2.0 * 64 * 64 * 64 + 100.0);
}

TEST(CompileGraph, EveryFieldSeparatesKernels)
{
    const gpusim::KernelDesc base = gpusim::makeBmm(
        4, 64, 32, 16, gpusim::DataType::Fp16, /*tensor_core=*/true);
    std::vector<std::pair<std::string, gpusim::KernelDesc>> variants;
    const auto vary = [&](const std::string &field,
                          const std::function<void(gpusim::KernelDesc &)>
                              &change) {
        gpusim::KernelDesc d = base;
        change(d);
        variants.emplace_back(field, d);
    };
    vary("type", [](auto &d) { d.type = OpType::FullyConnected; });
    vary("opName", [](auto &d) { d.opName = "bmm_"; });
    for (size_t i = 0; i < base.outDims.size(); ++i)
        vary("outDims[" + std::to_string(i) + "]",
             [i](auto &d) { d.outDims[i] += 1; });
    // The inline dims beyond the rank are zero, so only the rank
    // itself tells {4,64,32} from {4,64,32,0}.
    vary("rank", [](auto &d) { d.outDims.push_back(0); });
    vary("reduceDim", [](auto &d) { d.reduceDim += 1; });
    vary("flops", [](auto &d) { d.flops = std::nextafter(d.flops, 0.0); });
    vary("memBytes",
         [](auto &d) { d.memBytes = std::nextafter(d.memBytes, 0.0); });
    vary("dtype", [](auto &d) { d.dtype = gpusim::DataType::Fp32; });
    vary("usesTensorCore", [](auto &d) { d.usesTensorCore = false; });
    vary("flops +0.0", [](auto &d) { d.flops = 0.0; });
    vary("flops -0.0", [](auto &d) { d.flops = -0.0; });
    vary("memBytes +0.0", [](auto &d) { d.memBytes = 0.0; });
    vary("memBytes -0.0", [](auto &d) { d.memBytes = -0.0; });

    // Every kernel twice, a communication node between the copies.
    KernelGraph g;
    g.add(base, "base");
    for (const auto &[field, d] : variants)
        g.add(d, field);
    g.nodes.push_back(KernelNode::comm(NodeKind::AllReduce, 1e6, "ar"));
    g.add(base, "base again");
    for (const auto &[field, d] : variants)
        g.add(d, field + " again");

    const KernelTable table = compileGraph(g);
    const size_t unique = 1 + variants.size();
    ASSERT_EQ(table.kernels.size(), unique);
    ASSERT_EQ(table.slot.size(), 2 * unique);
    for (size_t i = 0; i < unique; ++i) {
        EXPECT_EQ(table.slot[i], i)
            << (i == 0 ? std::string("base") : variants[i - 1].first);
        EXPECT_EQ(table.slot[unique + i], i);
    }
    EXPECT_EQ(table.kernels[0].opName, base.opName);
    EXPECT_EQ(table.kernels[2].opName, "bmm_");
}

TEST(CompileGraph, TransformerGraphRepeatsFewKernels)
{
    const KernelGraph g = buildInferenceGraph(findModel("GPT2-Large"), 4);
    const KernelTable table = compileGraph(g);
    EXPECT_EQ(table.slot.size(), g.computeNodeCount());
    EXPECT_LT(table.kernels.size(), 40u);
    // Each slot names a kernel equal to its node's, in node order.
    size_t i = 0;
    for (const KernelNode &node : g.nodes) {
        if (node.kind != NodeKind::Compute)
            continue;
        ASSERT_LT(table.slot[i], table.kernels.size());
        const gpusim::KernelDesc &k = table.kernels[table.slot[i]];
        EXPECT_EQ(k.opName, node.kernel.opName);
        EXPECT_TRUE(k.outDims == node.kernel.outDims);
        EXPECT_EQ(k.flops, node.kernel.flops);
        ++i;
    }
}

TEST(Fusion, AddLayerNormFuses)
{
    const auto add = gpusim::makeElementwise("add", 64 * 128, 2, 1.0);
    const auto ln = gpusim::makeLayerNorm(64, 128);
    ASSERT_TRUE(canFuse(add, ln));
    const auto fused = fuseKernels(add, ln);
    EXPECT_EQ(fused.type, OpType::Elementwise); // First op's predictor.
    EXPECT_EQ(fused.opName, "add+layernorm");
    EXPECT_DOUBLE_EQ(fused.flops, add.flops + ln.flops);
    // Intermediate store + load dropped.
    EXPECT_DOUBLE_EQ(fused.memBytes,
                     add.memBytes + ln.memBytes - 2.0 * 64 * 128 * 4);
}

TEST(Fusion, GemmActivationFuses)
{
    const auto linear = gpusim::makeLinear(256, 512, 1024);
    const auto gelu =
        gpusim::makeElementwise("gelu", 256 * 1024, 1, 8.0);
    ASSERT_TRUE(canFuse(linear, gelu));
    const auto fused = fuseKernels(linear, gelu);
    EXPECT_EQ(fused.type, OpType::FullyConnected);
    EXPECT_EQ(fused.opName, "linear+gelu");
    EXPECT_LT(fused.memBytes, linear.memBytes + gelu.memBytes);
    EXPECT_EQ(fused.reduceDim, 512u);
}

TEST(Fusion, MismatchedShapesDoNotFuse)
{
    EXPECT_FALSE(canFuse(gpusim::makeElementwise("add", 100, 2, 1.0),
                         gpusim::makeLayerNorm(64, 128)));
    EXPECT_FALSE(canFuse(gpusim::makeLinear(256, 512, 1024),
                         gpusim::makeElementwise("gelu", 999, 1, 8.0)));
    // Non-activation elementwise does not fuse into a GEMM epilogue.
    EXPECT_FALSE(canFuse(gpusim::makeLinear(16, 16, 16),
                         gpusim::makeElementwise("add", 256, 2, 1.0)));
}

TEST(Fusion, GraphPassReducesNodesPreservesFlops)
{
    const ModelConfig &m = findModel("GPT2-Large");
    const KernelGraph g = buildInferenceGraph(m, 4);
    const KernelGraph fused = fuseGraph(g);
    EXPECT_LT(fused.computeNodeCount(), g.computeNodeCount());
    EXPECT_NEAR(fused.totalFlops(), g.totalFlops(), g.totalFlops() * 1e-12);
    EXPECT_LT(fused.totalMemBytes(), g.totalMemBytes());
}

TEST(Fusion, FusesResidualIntoNextLayerNorm)
{
    const KernelGraph g =
        fuseGraph(buildInferenceGraph(findModel("BERT-Large"), 2));
    size_t fused_ln = 0;
    size_t fused_gelu = 0;
    for (const auto &node : g.nodes) {
        if (node.kernel.opName == "add+layernorm")
            ++fused_ln;
        if (node.kernel.opName == "linear+gelu")
            ++fused_gelu;
    }
    const ModelConfig &m = findModel("BERT-Large");
    // attn.residual+ln2 every layer, ff.residual+next ln1 / final ln,
    // plus the embedding position-add fusing into layer 0's ln1.
    EXPECT_EQ(fused_ln, 2 * m.numLayers + 1);
    EXPECT_EQ(fused_gelu, m.numLayers);
}

TEST(Fusion, CommNodesBlockFusion)
{
    KernelGraph g;
    g.add(gpusim::makeElementwise("add", 64 * 128, 2, 1.0), "add");
    g.nodes.push_back(KernelNode::comm(NodeKind::AllReduce, 1.0, "ar"));
    g.add(gpusim::makeLayerNorm(64, 128), "ln");
    const KernelGraph fused = fuseGraph(g);
    EXPECT_EQ(fused.nodes.size(), 3u);
}

/** Fusion invariants swept over every paper workload and phase. */
struct FusionCase
{
    const char *model;
    uint64_t batch;
    bool training;
};

class FusionSweep : public ::testing::TestWithParam<FusionCase>
{
};

TEST_P(FusionSweep, PassPreservesWorkAndReducesTraffic)
{
    const FusionCase &c = GetParam();
    const auto &model = findModel(c.model);
    const KernelGraph g = c.training
                              ? buildTrainingGraph(model, c.batch)
                              : buildInferenceGraph(model, c.batch);
    const KernelGraph fused = fuseGraph(g);
    // FLOPs are conserved exactly: fusion only merges kernels.
    EXPECT_NEAR(fused.totalFlops(), g.totalFlops(),
                g.totalFlops() * 1e-12);
    // Traffic strictly drops (every model has residual+LN pairs).
    EXPECT_LT(fused.totalMemBytes(), g.totalMemBytes());
    // Node count drops, and re-fusing is a fixed point for the pairs the
    // single pass targets.
    EXPECT_LT(fused.computeNodeCount(), g.computeNodeCount());
    const KernelGraph twice = fuseGraph(fused);
    EXPECT_DOUBLE_EQ(twice.totalMemBytes(), fused.totalMemBytes());
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, FusionSweep,
    ::testing::Values(FusionCase{"BERT-Large", 8, false},
                      FusionCase{"BERT-Large", 8, true},
                      FusionCase{"GPT2-Large", 4, false},
                      FusionCase{"GPT2-Large", 4, true},
                      FusionCase{"GPT3-XL", 2, false},
                      FusionCase{"OPT-1.3B", 2, false},
                      FusionCase{"GPT3-2.7B", 2, false},
                      FusionCase{"SwitchTrans", 4, false}));

} // namespace
} // namespace neusight::graph
