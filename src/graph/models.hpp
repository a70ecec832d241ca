/**
 * @file
 * Transformer workload builders for the six models of paper Table 5
 * (BERT-Large, GPT2-Large, GPT3-XL, OPT-1.3B, GPT3-2.7B, Switch
 * Transformer). Builders emit the per-GPU kernel graph of an inference
 * forward pass or a training iteration (forward + backward), matching the
 * kernel-level structure a PyTorch eager run dispatches.
 */

#ifndef NEUSIGHT_GRAPH_MODELS_HPP
#define NEUSIGHT_GRAPH_MODELS_HPP

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace neusight::graph {

/** Transformer architecture hyper-parameters. */
struct ModelConfig
{
    std::string name;
    uint64_t numLayers = 12;
    uint64_t hidden = 768;
    uint64_t heads = 12;
    uint64_t seq = 512;
    /** Feed-forward inner width; 0 means 4 * hidden. */
    uint64_t ffDim = 0;
    uint64_t vocab = 50257;
    /** >1 turns alternate layers into Switch-style top-1 MoE FFNs. */
    uint64_t numExperts = 1;
    /** Encoder-only classifier (BERT) vs decoder LM head (GPT/OPT). */
    bool encoderOnly = false;

    /** Effective feed-forward width. */
    uint64_t ffWidth() const { return ffDim ? ffDim : 4 * hidden; }

    /** Total trainable parameters (embeddings + blocks + head). */
    double parameterCount() const;
};

/** The models of paper Table 5 (dimensions reproduced from the table). */
const std::vector<ModelConfig> &paperWorkloads();

/** Look up a Table-5 model by name; fatal() when unknown. */
const ModelConfig &findModel(const std::string &name);

/**
 * Inference forward pass at the given batch size. For text-generation
 * models this is the prefill producing the first token (the paper's
 * latency metric); for BERT it is a classification forward pass.
 */
KernelGraph buildInferenceGraph(const ModelConfig &config, uint64_t batch,
                                gpusim::DataType dtype =
                                    gpusim::DataType::Fp32);

/** One training iteration: forward plus backward (no optimizer step). */
KernelGraph buildTrainingGraph(const ModelConfig &config, uint64_t batch,
                               gpusim::DataType dtype =
                                   gpusim::DataType::Fp32);

/**
 * Append the backward-pass kernels of every compute node currently in
 * @p g, in reverse execution order. The training builders call this after
 * emitting the forward pass; exposed so custom graphs (e.g. the CNN
 * builders) can be turned into training iterations the same way.
 */
void appendBackwardPass(KernelGraph &g);

/**
 * One autoregressive decode step with a KV cache holding @p past_len
 * positions: the phase after the paper's first-token prefill metric.
 * Every GEMM collapses to one row per sequence, and attention streams
 * the cached keys/values — the workload turns memory-bound, which is
 * why decode latency tracks memory bandwidth rather than peak FLOPS.
 */
KernelGraph buildDecodeGraph(const ModelConfig &config, uint64_t batch,
                             uint64_t past_len,
                             gpusim::DataType dtype =
                                 gpusim::DataType::Fp32);

/** Resident KV-cache bytes at @p past_len positions. */
double kvCacheBytes(const ModelConfig &config, uint64_t batch,
                    uint64_t past_len,
                    gpusim::DataType dtype = gpusim::DataType::Fp32);

/**
 * Options for building a contiguous slice of a model, optionally as one
 * rank of a tensor-parallel group: the one builder behind the
 * single-GPU graphs, pipeline stages, and the TP / hybrid stage graphs
 * of the distributed forecaster (Section 5.1).
 */
struct LayerRange
{
    uint64_t beginLayer = 0;
    /** One past the last layer; 0 means numLayers. */
    uint64_t endLayer = 0;
    /** Emit the embedding prologue (first pipeline stage). */
    bool includeEmbedding = true;
    /** Emit the final-LN + head epilogue (last pipeline stage). */
    bool includeHead = true;
    /** Forward+backward (training) vs forward only. */
    bool training = false;
    /**
     * Megatron-style tensor-parallel degree: attention heads and the
     * feed-forward width shard @p tpDegree ways; embeddings, layer
     * norms, residuals, and the head replicate. Above 1, each layer
     * all-reduces its attention and feed-forward outputs in the forward
     * pass, and the matching input gradients when training (2 resp. 4
     * all-reduces per layer). The heads, hidden, and feed-forward
     * widths must divide by it.
     */
    int tpDegree = 1;
};

/**
 * Kernel graph of layers [beginLayer, endLayer) with optional
 * embedding/head, sharded at range.tpDegree. The default range is the
 * whole model: buildInferenceGraph() and buildTrainingGraph() are this
 * builder with LayerRange{} (resp. training = true).
 */
KernelGraph buildLayerRangeGraph(const ModelConfig &config, uint64_t batch,
                                 const LayerRange &range,
                                 gpusim::DataType dtype =
                                     gpusim::DataType::Fp32);

/**
 * Estimated resident device memory for running the workload, used for the
 * out-of-memory screening in the paper's tables: parameters (+ gradients
 * and AdamW state when training) plus live activations (attention scores
 * included; the paper's PyTorch 2.1 eager baseline materializes them).
 */
double modelMemoryBytes(const ModelConfig &config, uint64_t batch,
                        bool training);

/// @name Decomposed accounting used by the distributed forecaster.
/// parameterCount() and modelMemoryBytes() are sums over these, so the
/// sharded/staged memory screens in dist/ stay consistent with the
/// single-GPU ones by construction.
/// @{

/** Trainable parameters of transformer block @p layer. */
double blockParameterCount(const ModelConfig &config, uint64_t layer);

/** Token + positional embedding parameters (the LM head is tied). */
double embeddingParameterCount(const ModelConfig &config);

/** Final-norm (+ BERT pooler/classifier) parameters. */
double headParameterCount(const ModelConfig &config);

/** Activations one layer saves for the backward pass, in bytes. */
double savedActivationBytesPerLayer(const ModelConfig &config,
                                    uint64_t batch);
/// @}

} // namespace neusight::graph

#endif // NEUSIGHT_GRAPH_MODELS_HPP
