#include "graph/models.hpp"

#include "common/logging.hpp"

namespace neusight::graph {

using gpusim::DataType;
using gpusim::KernelDesc;
using gpusim::OpType;
using gpusim::dtypeBytes;
using gpusim::makeBmm;
using gpusim::makeElementwise;
using gpusim::makeLayerNorm;
using gpusim::makeLinear;
using gpusim::makeMemoryOp;
using gpusim::makeSoftmax;

namespace {

/** True when layer @p l of a Switch-style model hosts an MoE FFN. */
bool
isMoeLayer(const ModelConfig &config, uint64_t l)
{
    return config.numExperts > 1 && (l % 2 == 1);
}

/**
 * Append one transformer block (attention + FFN / MoE FFN) as one rank
 * of a Megatron-style tensor-parallel group of degree @p tp: attention
 * heads and the feed-forward width shard, layer norms and residuals
 * replicate. At tp > 1 the attention output projection and the FFN
 * down-projection reduce over the sharded width, so each result is
 * all-reduced before the residual stream. At tp = 1 this is the
 * single-GPU block.
 */
void
appendLayer(KernelGraph &g, const ModelConfig &config, uint64_t layer,
            uint64_t batch, uint64_t tp, DataType dtype, bool training)
{
    const uint64_t h = config.hidden;
    const uint64_t a = config.heads / tp; // Local attention heads.
    const uint64_t s = config.seq;
    const uint64_t dh = h / config.heads;
    const uint64_t rows = batch * s;
    const uint64_t ff = config.ffWidth() / tp; // Local FFN width.
    const double act_bytes = static_cast<double>(rows * h) *
                             static_cast<double>(dtypeBytes(dtype));
    const std::string base = "layer" + std::to_string(layer);

    // Self-attention.
    g.add(makeLayerNorm(rows, h, dtype), base + ".ln1");
    g.add(makeLinear(rows, h, 3 * h / tp, dtype), base + ".attn.qkv");
    g.add(makeBmm(batch * a, s, s, dh, dtype), base + ".attn.qk");
    g.add(makeElementwise("div", batch * a * s * s, 1, 1.0, dtype),
          base + ".attn.scale");
    g.add(makeSoftmax(batch * a * s, s, dtype), base + ".attn.softmax");
    if (training)
        g.add(makeElementwise("dropout", batch * a * s * s, 1, 1.0, dtype),
              base + ".attn.dropout");
    g.add(makeBmm(batch * a, s, dh, s, dtype), base + ".attn.pv");
    g.add(makeLinear(rows, h / tp, h, dtype), base + ".attn.proj");
    if (tp > 1)
        g.nodes.push_back(KernelNode::comm(NodeKind::AllReduce, act_bytes,
                                           base + ".attn.allreduce"));
    if (training)
        g.add(makeElementwise("dropout", rows * h, 1, 1.0, dtype),
              base + ".attn.proj_dropout");
    g.add(makeElementwise("add", rows * h, 2, 1.0, dtype),
          base + ".attn.residual");

    // Feed-forward (dense or Switch top-1 MoE).
    g.add(makeLayerNorm(rows, h, dtype), base + ".ln2");
    if (isMoeLayer(config, layer)) {
        const uint64_t e = config.numExperts;
        const uint64_t rows_per_expert = std::max<uint64_t>(rows / e, 1);
        g.add(makeLinear(rows, h, e, dtype), base + ".moe.router");
        g.add(makeSoftmax(rows, e, dtype), base + ".moe.gate");
        for (uint64_t x = 0; x < e; ++x) {
            const std::string expert =
                base + ".moe.expert" + std::to_string(x);
            g.add(makeLinear(rows_per_expert, h, ff, dtype), expert + ".ff1");
            g.add(makeElementwise("gelu", rows_per_expert * ff, 1, 8.0,
                                  dtype),
                  expert + ".act");
            g.add(makeLinear(rows_per_expert, ff, h, dtype), expert + ".ff2");
        }
        g.add(makeElementwise("mul", rows * h, 2, 1.0, dtype),
              base + ".moe.combine");
    } else {
        g.add(makeLinear(rows, h, ff, dtype), base + ".ff1");
        g.add(makeElementwise("gelu", rows * ff, 1, 8.0, dtype),
              base + ".act");
        g.add(makeLinear(rows, ff, h, dtype), base + ".ff2");
    }
    if (tp > 1)
        g.nodes.push_back(KernelNode::comm(NodeKind::AllReduce, act_bytes,
                                           base + ".ff.allreduce"));
    if (training)
        g.add(makeElementwise("dropout", rows * h, 1, 1.0, dtype),
              base + ".ff.dropout");
    g.add(makeElementwise("add", rows * h, 2, 1.0, dtype),
          base + ".ff.residual");
}

/** Backward kernels for one forward compute node, appended in place. */
void
appendBackwardOf(KernelGraph &g, const KernelNode &fwd)
{
    const KernelDesc &k = fwd.kernel;
    const std::string label = fwd.label + ".bwd";
    switch (k.type) {
      case OpType::FullyConnected: {
        const uint64_t rows = k.outDims[0];
        const uint64_t out = k.outDims[1];
        const uint64_t in = k.reduceDim;
        g.add(makeLinear(rows, out, in, k.dtype, k.usesTensorCore),
              label + ".dx");
        g.add(makeLinear(in, rows, out, k.dtype, k.usesTensorCore),
              label + ".dw");
        return;
      }
      case OpType::BatchedMatmul: {
        const uint64_t b = k.outDims[0];
        const uint64_t m = k.outDims[1];
        const uint64_t n = k.outDims[2];
        const uint64_t kk = k.reduceDim;
        g.add(makeBmm(b, m, kk, n, k.dtype, k.usesTensorCore), label + ".da");
        g.add(makeBmm(b, kk, n, m, k.dtype, k.usesTensorCore), label + ".db");
        return;
      }
      case OpType::Elementwise: {
        // Residual adds just route gradients; activations need a kernel.
        if (k.opName == "add")
            return;
        g.add(makeElementwise(k.opName + "_bwd", k.outDims[0], 2,
                              gpusim::elementwiseFlopsPerElem(k.opName) + 2.0,
                              k.dtype),
              label);
        return;
      }
      case OpType::Softmax: {
        KernelDesc bwd = makeSoftmax(k.outDims[0], k.outDims[1], k.dtype);
        bwd.opName = "softmax_bwd";
        g.nodes.push_back(KernelNode::compute(std::move(bwd), label));
        return;
      }
      case OpType::LayerNorm: {
        KernelDesc bwd = makeLayerNorm(k.outDims[0], k.outDims[1], k.dtype);
        bwd.opName = "layernorm_bwd";
        g.nodes.push_back(KernelNode::compute(std::move(bwd), label));
        return;
      }
      case OpType::Memory:
        g.add(makeMemoryOp(k.opName + "_bwd", k.memBytes, k.dtype), label);
        return;
    }
}

std::vector<ModelConfig>
buildPaperWorkloads()
{
    // Dimensions per paper Table 5. Three table cells are internally
    // inconsistent with the stated parameter counts and the published
    // architectures; we use the published values and record the deviation
    // in EXPERIMENTS.md: BERT-Large is 24x1024 (table prints 12x760, which
    // does not divide its 16 heads); GPT3-XL's d_model is 2048 (the
    // table's 3072 is the attention width: GPT-3 XL uses 24 heads of
    // d_head 128) — we keep d_head = 128 with 16 heads so the attention
    // width equals the model width, as in every other evaluated model.
    std::vector<ModelConfig> models;
    models.push_back({"BERT-Large", 24, 1024, 16, 512, 0, 30522, 1, true});
    models.push_back({"GPT2-Large", 36, 1280, 20, 1024, 0, 50257, 1, false});
    models.push_back({"GPT3-XL", 24, 2048, 16, 2048, 0, 50257, 1, false});
    models.push_back({"OPT-1.3B", 24, 2048, 32, 2048, 0, 50272, 1, false});
    models.push_back({"GPT3-2.7B", 32, 2560, 32, 2048, 0, 50257, 1, false});
    models.push_back({"SwitchTrans", 24, 1024, 32, 512, 0, 32128, 4, false});
    return models;
}

} // namespace

void
appendBackwardPass(KernelGraph &g)
{
    const size_t forward_end = g.nodes.size();
    for (size_t i = forward_end; i-- > 0;) {
        if (g.nodes[i].kind != NodeKind::Compute)
            continue;
        // Arena storage keeps node references stable across appends, so
        // reading g.nodes[i] while appendBackwardOf grows the list is
        // safe without a copy.
        appendBackwardOf(g, g.nodes[i]);
    }
}

double
blockParameterCount(const ModelConfig &config, uint64_t layer)
{
    const double h = static_cast<double>(config.hidden);
    const double ff = static_cast<double>(config.ffWidth());
    double total = 4.0 * h * h + 4.0 * h; // QKV + output projection.
    total += 4.0 * h;                     // Two layer norms.
    if (isMoeLayer(config, layer)) {
        const double e = static_cast<double>(config.numExperts);
        total += h * e;                      // Router.
        total += e * (2.0 * h * ff + ff + h); // Experts.
    } else {
        total += 2.0 * h * ff + ff + h;
    }
    return total;
}

double
embeddingParameterCount(const ModelConfig &config)
{
    const double h = static_cast<double>(config.hidden);
    return static_cast<double>(config.vocab) * h +
           static_cast<double>(config.seq) * h;
}

double
headParameterCount(const ModelConfig &config)
{
    const double h = static_cast<double>(config.hidden);
    double total = 2.0 * h; // Final layer norm.
    if (config.encoderOnly)
        total += h * h + h + 2.0 * h + 2.0; // Pooler + classifier.
    // LM head is tied with the token embedding.
    return total;
}

double
savedActivationBytesPerLayer(const ModelConfig &config, uint64_t batch)
{
    const double h = static_cast<double>(config.hidden);
    const double s = static_cast<double>(config.seq);
    const double a = static_cast<double>(config.heads);
    const double b = static_cast<double>(batch);
    const double rows_h = b * s * h * 4.0;   // One (B*S, H) activation.
    const double attn = b * a * s * s * 4.0; // One (B,A,S,S) score tensor.
    return 14.0 * rows_h + 3.0 * attn;
}

double
ModelConfig::parameterCount() const
{
    double total = embeddingParameterCount(*this);
    for (uint64_t l = 0; l < numLayers; ++l)
        total += blockParameterCount(*this, l);
    total += headParameterCount(*this);
    return total;
}

const std::vector<ModelConfig> &
paperWorkloads()
{
    static const std::vector<ModelConfig> models = buildPaperWorkloads();
    return models;
}

const ModelConfig &
findModel(const std::string &name)
{
    for (const auto &m : paperWorkloads())
        if (m.name == name)
            return m;
    fatal("findModel: unknown model '" + name + "'");
}

KernelGraph
buildInferenceGraph(const ModelConfig &config, uint64_t batch, DataType dtype)
{
    return buildLayerRangeGraph(config, batch, LayerRange{}, dtype);
}

KernelGraph
buildTrainingGraph(const ModelConfig &config, uint64_t batch, DataType dtype)
{
    LayerRange range;
    range.training = true;
    return buildLayerRangeGraph(config, batch, range, dtype);
}

KernelGraph
buildLayerRangeGraph(const ModelConfig &config, uint64_t batch,
                     const LayerRange &range, DataType dtype)
{
    if (range.tpDegree < 1)
        fatal("buildLayerRangeGraph: bad tensor-parallel degree");
    const uint64_t tp = static_cast<uint64_t>(range.tpDegree);
    ensure(batch > 0, "buildLayerRangeGraph: batch must be positive");
    // Death-tested precondition (dist_test): must abort, not throw —
    // callers with user-supplied degrees validate before calling. The
    // messages are built only on failure: every graph build runs these.
    if (config.heads % tp != 0)
        panic("buildLayerRangeGraph: attention heads must divide evenly "
              "across the tensor-parallel degree (" +
              std::to_string(config.heads) + " heads, degree " +
              std::to_string(range.tpDegree) + ")");
    if (config.ffWidth() % tp != 0 || config.hidden % tp != 0)
        fatal("buildLayerRangeGraph: hidden and feed-forward widths "
              "must divide evenly across the tensor-parallel degree");
    if (config.hidden % config.heads != 0)
        panic("buildLayerRangeGraph: hidden must divide heads for " +
              config.name);
    const uint64_t begin = range.beginLayer;
    const uint64_t end = range.endLayer ? range.endLayer : config.numLayers;
    ensure(begin <= end && end <= config.numLayers,
           "buildLayerRangeGraph: bad layer range");

    KernelGraph g;
    const uint64_t h = config.hidden;
    const uint64_t rows = batch * config.seq;
    const double bytes = static_cast<double>(dtypeBytes(dtype));

    // Embedding and head replicate across tensor-parallel ranks.
    if (range.includeEmbedding) {
        g.add(makeMemoryOp("embedding",
                           static_cast<double>(rows * h) * bytes, dtype),
              "embed.tokens");
        g.add(makeElementwise("add", rows * h, 2, 1.0, dtype),
              "embed.pos_add");
    }

    for (uint64_t l = begin; l < end; ++l)
        appendLayer(g, config, l, batch, tp, dtype, range.training);

    if (range.includeHead) {
        g.add(makeLayerNorm(rows, h, dtype), "final.ln");
        if (config.encoderOnly) {
            // BERT: pooled classification over the [CLS] position.
            g.add(makeLinear(batch, h, h, dtype), "head.pooler");
            g.add(makeElementwise("tanh", batch * h, 1, 4.0, dtype),
                  "head.pooler_act");
            g.add(makeLinear(batch, h, 2, dtype), "head.classifier");
        } else {
            // Decoder LM: logits for every position (first-token latency).
            g.add(makeLinear(rows, h, config.vocab, dtype), "head.lm");
        }
    }

    if (range.training) {
        appendBackwardPass(g);
        // The backward pass mirrors each forward all-reduce with an
        // input-gradient all-reduce (Megatron's g/f conjugates).
        if (tp > 1) {
            const double act_bytes = static_cast<double>(rows * h) * bytes;
            for (uint64_t l = end; l-- > begin;) {
                const std::string base = "layer" + std::to_string(l);
                g.nodes.push_back(
                    KernelNode::comm(NodeKind::AllReduce, act_bytes,
                                     base + ".ff.bwd.allreduce"));
                g.nodes.push_back(
                    KernelNode::comm(NodeKind::AllReduce, act_bytes,
                                     base + ".attn.bwd.allreduce"));
            }
        }
    }
    return g;
}

KernelGraph
buildDecodeGraph(const ModelConfig &config, uint64_t batch,
                 uint64_t past_len, DataType dtype)
{
    if (batch == 0)
        fatal("buildDecodeGraph: batch must be positive");
    if (past_len == 0)
        fatal("buildDecodeGraph: need a non-empty KV cache");
    ensure(config.hidden % config.heads == 0,
           "buildDecodeGraph: hidden must divide heads for " + config.name);
    KernelGraph g;
    const uint64_t h = config.hidden;
    const uint64_t a = config.heads;
    const uint64_t dh = h / a;
    const uint64_t ff = config.ffWidth();
    const uint64_t ctx = past_len + 1; // Cache plus the new position.
    const double bytes = static_cast<double>(dtypeBytes(dtype));

    g.add(makeMemoryOp("embedding", static_cast<double>(batch * h) * bytes,
                       dtype),
          "embed.tokens");
    for (uint64_t l = 0; l < config.numLayers; ++l) {
        const std::string base = "layer" + std::to_string(l);
        g.add(makeLayerNorm(batch, h, dtype), base + ".ln1");
        g.add(makeLinear(batch, h, 3 * h, dtype), base + ".attn.qkv");
        // Append this step's key/value to the cache.
        g.add(makeMemoryOp("kv_append",
                           2.0 * static_cast<double>(batch * h) * bytes,
                           dtype),
              base + ".attn.kv_append");
        // One query row against the whole cache.
        g.add(makeBmm(batch * a, 1, ctx, dh, dtype), base + ".attn.qk");
        g.add(makeElementwise("div", batch * a * ctx, 1, 1.0, dtype),
              base + ".attn.scale");
        g.add(makeSoftmax(batch * a, ctx, dtype), base + ".attn.softmax");
        g.add(makeBmm(batch * a, 1, dh, ctx, dtype), base + ".attn.pv");
        g.add(makeLinear(batch, h, h, dtype), base + ".attn.proj");
        g.add(makeElementwise("add", batch * h, 2, 1.0, dtype),
              base + ".attn.residual");

        g.add(makeLayerNorm(batch, h, dtype), base + ".ln2");
        if (isMoeLayer(config, l)) {
            const uint64_t e = config.numExperts;
            const uint64_t rows_per_expert =
                std::max<uint64_t>(batch / e, 1);
            g.add(makeLinear(batch, h, e, dtype), base + ".moe.router");
            g.add(makeSoftmax(batch, e, dtype), base + ".moe.gate");
            for (uint64_t x = 0; x < e; ++x) {
                const std::string expert =
                    base + ".moe.expert" + std::to_string(x);
                g.add(makeLinear(rows_per_expert, h, ff, dtype),
                      expert + ".ff1");
                g.add(makeElementwise("gelu", rows_per_expert * ff, 1, 8.0,
                                      dtype),
                      expert + ".act");
                g.add(makeLinear(rows_per_expert, ff, h, dtype),
                      expert + ".ff2");
            }
            g.add(makeElementwise("mul", batch * h, 2, 1.0, dtype),
                  base + ".moe.combine");
        } else {
            g.add(makeLinear(batch, h, ff, dtype), base + ".ff1");
            g.add(makeElementwise("gelu", batch * ff, 1, 8.0, dtype),
                  base + ".act");
            g.add(makeLinear(batch, ff, h, dtype), base + ".ff2");
        }
        g.add(makeElementwise("add", batch * h, 2, 1.0, dtype),
              base + ".ff.residual");
    }
    g.add(makeLayerNorm(batch, h, dtype), "final.ln");
    g.add(makeLinear(batch, h, config.vocab, dtype), "head.lm");
    return g;
}

double
kvCacheBytes(const ModelConfig &config, uint64_t batch, uint64_t past_len,
             DataType dtype)
{
    return 2.0 * static_cast<double>(config.numLayers) *
           static_cast<double>(batch) * static_cast<double>(past_len) *
           static_cast<double>(config.hidden) *
           static_cast<double>(dtypeBytes(dtype));
}

double
modelMemoryBytes(const ModelConfig &config, uint64_t batch, bool training)
{
    const double p = config.parameterCount();
    const double h = static_cast<double>(config.hidden);
    const double s = static_cast<double>(config.seq);
    const double a = static_cast<double>(config.heads);
    const double b = static_cast<double>(batch);
    const double rows_h = b * s * h * 4.0;     // One (B*S, H) activation.
    const double attn = b * a * s * s * 4.0;   // One (B,A,S,S) score tensor.

    double total = p * 4.0; // Parameters (fp32).
    if (training) {
        total += p * 12.0; // Gradients + AdamW moments.
        // Saved activations per layer for the backward pass.
        total += static_cast<double>(config.numLayers) *
                 savedActivationBytesPerLayer(config, batch);
    } else {
        // Live working set only: a few activation tensors deep.
        total += 6.0 * rows_h + 2.0 * attn;
        total += b * s * static_cast<double>(config.vocab) * 4.0; // Logits.
    }
    return total;
}

} // namespace neusight::graph
