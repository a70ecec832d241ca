#include "dist/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <thread>

#include "common/logging.hpp"
#include "gpusim/gpu_spec.hpp"
#include "obs/trace.hpp"

namespace neusight::dist {

using graph::KernelGraph;
using graph::ModelConfig;
using graph::NodeKind;
using gpusim::DataType;
using gpusim::dtypeBytes;

namespace {

/** True when layer @p l of a Switch-style model hosts an MoE FFN. */
bool
isMoeLayer(const ModelConfig &config, uint64_t l)
{
    return config.numExperts > 1 && (l % 2 == 1);
}

/**
 * Layer range [begin, end) owned by @p stage of @p num_stages: a
 * near-even split with the remainder spread over the leading stages.
 */
std::pair<uint64_t, uint64_t>
stageLayerRange(uint64_t num_layers, int stage, int num_stages)
{
    const uint64_t s = static_cast<uint64_t>(stage);
    const uint64_t n = static_cast<uint64_t>(num_stages);
    const uint64_t base = num_layers / n;
    const uint64_t rem = num_layers % n;
    const uint64_t begin = s * base + std::min(s, rem);
    const uint64_t end = begin + base + (s < rem ? 1 : 0);
    return {begin, end};
}

/**
 * Price the communication nodes of a per-GPU graph: all-reduces across
 * @p group_size peers, send-recvs over one link.
 */
double
commCostMs(const KernelGraph &g, const CollectiveModel &comms,
           int group_size, double link_gbps)
{
    double total = 0.0;
    for (const auto &node : g.nodes) {
        if (node.kind == NodeKind::AllReduce)
            total += comms.allReduceMs(node.commBytes, group_size,
                                       link_gbps);
        else if (node.kind == NodeKind::SendRecv)
            total += comms.sendRecvMs(node.commBytes, link_gbps);
    }
    return total;
}

/** Fp32 parameters + gradients + AdamW moments, in bytes. */
double
optimizerStateBytes(double parameter_count)
{
    return parameter_count * 16.0;
}

/**
 * Activation stash charged per layer, in micro-batches: how many
 * micro-batches of saved activations a stage holds at the schedule's
 * peak. GPipe stashes everything; 1F1B drains early and caps at the
 * stage count; interleaving keeps up to (2 - 1/v) chunks' worth of
 * extra in-flight work per GPU (Megatron Section 2.2) — more than plain
 * 1F1B, never more than all M micro-batches.
 */
double
scheduleStashMicroBatches(PipelineSchedule schedule, int num_micro,
                          int pp_degree, int virtual_stages)
{
    const double m = static_cast<double>(num_micro);
    const double s = static_cast<double>(pp_degree);
    switch (schedule) {
      case PipelineSchedule::GPipe:
        return m;
      case PipelineSchedule::OneFOneB:
        return std::min(m, s);
      case PipelineSchedule::Interleaved1F1B: {
        const double v =
            static_cast<double>(std::max(virtual_stages, 1));
        return std::min(m, s * (2.0 - 1.0 / v));
      }
      case PipelineSchedule::ZeroBubble:
        // ZB-H1: the W passes retire stashes on the 1F1B cadence, so
        // the peak stash matches plain 1F1B (that memory parity is the
        // schedule's design point).
        return std::min(m, s);
    }
    panic("scheduleStashMicroBatches: bad schedule");
}

/** Bucketed ring all-reduce: total cost and the trailing bucket's. */
struct BucketedAllReduce
{
    double totalMs = 0.0;
    double lastBucketMs = 0.0;
};

BucketedAllReduce
bucketedAllReduceMs(const CollectiveModel &comms, double bytes,
                    double bucket_bytes, int group, double link_gbps)
{
    BucketedAllReduce cost;
    double rest = bytes;
    while (rest > 0.0) {
        const double chunk = std::min(bucket_bytes, rest);
        cost.lastBucketMs = comms.allReduceMs(chunk, group, link_gbps);
        cost.totalMs += cost.lastBucketMs;
        rest -= chunk;
    }
    return cost;
}

} // namespace

DdpAllReduceCost
ddpAllReduceCost(const CollectiveModel &comms, double bytes,
                 double bucket_bytes, int group, double link_gbps)
{
    const BucketedAllReduce cost =
        bucketedAllReduceMs(comms, bytes, bucket_bytes, group, link_gbps);
    return {cost.totalMs, cost.lastBucketMs};
}

void
ServerConfig::setGpu(const gpusim::GpuSpec &spec)
{
    gpuSpec = spec;
    gpuName = spec.name;
    hasGpuSpec = true;
}

const gpusim::GpuSpec &
ServerConfig::resolvedGpu() const
{
    if (hasGpuSpec)
        return gpuSpec;
    return gpusim::findGpu(gpuName);
}

double
ServerConfig::effectiveLinkGBps() const
{
    if (linkGBps > 0.0)
        return linkGBps;
    return resolvedGpu().interconnectGBps;
}

const char *
parallelismName(Parallelism strategy)
{
    switch (strategy) {
      case Parallelism::Data:
        return "Data Parallel";
      case Parallelism::Tensor:
        return "Tensor Parallel";
      case Parallelism::Pipeline:
        return "Pipeline Parallel";
    }
    panic("parallelismName: bad strategy");
}

const char *
pipelineScheduleName(PipelineSchedule schedule)
{
    switch (schedule) {
      case PipelineSchedule::GPipe:
        return "GPipe";
      case PipelineSchedule::OneFOneB:
        return "1F1B";
      case PipelineSchedule::Interleaved1F1B:
        return "Interleaved-1F1B";
      case PipelineSchedule::ZeroBubble:
        return "Zero-Bubble";
    }
    panic("pipelineScheduleName: bad schedule");
}

const char *
sweepEngineName(SweepEngine engine)
{
    switch (engine) {
      case SweepEngine::ClosedForm:
        return "closed_form";
      case SweepEngine::Simulator:
        return "sim";
    }
    panic("sweepEngineName: bad engine");
}

std::string
HybridConfig::describe() const
{
    return "tp" + std::to_string(tpDegree) + " x pp" +
           std::to_string(ppDegree) + " x dp" + std::to_string(dpDegree);
}

KernelGraph
buildTensorParallelGraph(const ModelConfig &config, uint64_t batch,
                         int tp_degree, bool training, DataType dtype)
{
    return graph::buildLayerRangeGraph(
        config, batch,
        {0, config.numLayers, /*includeEmbedding=*/true,
         /*includeHead=*/true, training, tp_degree},
        dtype);
}

KernelGraph
buildHybridStageGraph(const ModelConfig &config, uint64_t micro_batch,
                      int tp_degree, int stage, int num_stages,
                      bool training, DataType dtype)
{
    if (num_stages < 1 || stage < 0 || stage >= num_stages)
        fatal("buildHybridStageGraph: bad stage index");
    if (static_cast<uint64_t>(num_stages) > config.numLayers)
        fatal("buildHybridStageGraph: more stages than layers");
    const auto [begin, end] =
        stageLayerRange(config.numLayers, stage, num_stages);
    return graph::buildLayerRangeGraph(
        config, micro_batch,
        {begin, end, /*includeEmbedding=*/stage == 0,
         /*includeHead=*/stage == num_stages - 1, training, tp_degree},
        dtype);
}

HybridConfig
singleAxisConfig(Parallelism strategy, int num_gpus, int num_micro_batches,
                 PipelineSchedule schedule)
{
    HybridConfig hybrid;
    hybrid.schedule = PipelineSchedule::GPipe;
    switch (strategy) {
      case Parallelism::Data:
        hybrid.dpDegree = num_gpus;
        // One bucket holding every gradient, reduced after backward.
        hybrid.ddp.bucketBytes = std::numeric_limits<double>::infinity();
        hybrid.ddp.overlapEfficiency = 0.0;
        return hybrid;
      case Parallelism::Tensor:
        hybrid.tpDegree = num_gpus;
        return hybrid;
      case Parallelism::Pipeline:
        hybrid.ppDegree = num_gpus;
        hybrid.numMicroBatches = num_micro_batches;
        hybrid.schedule = schedule;
        return hybrid;
    }
    panic("singleAxisConfig: bad strategy");
}

std::string
validateStrategy(const ModelConfig &config, const ServerConfig &server,
                 uint64_t global_batch, const HybridConfig &preset)
{
    if (preset.schedule == PipelineSchedule::Interleaved1F1B)
        return "interleaved 1F1B is modeled by the hybrid forecaster "
               "only (use --pp/--sweep, or hybridTrainingMs)";
    if (preset.schedule == PipelineSchedule::ZeroBubble)
        return "the zero-bubble schedule is priced by the discrete-event "
               "simulator only (use --simulate, or sim::simulateHybrid)";
    return validateHybrid(config, server, global_batch, preset);
}

double
hybridStageParameterCount(const ModelConfig &config, int stage,
                          int pp_degree, int tp_degree)
{
    if (pp_degree < 1 || stage < 0 || stage >= pp_degree)
        fatal("hybridStageParameterCount: bad stage index");
    if (tp_degree < 1)
        fatal("hybridStageParameterCount: bad tensor-parallel degree");
    const auto [begin, end] =
        stageLayerRange(config.numLayers, stage, pp_degree);
    double blocks = 0.0;
    for (uint64_t l = begin; l < end; ++l)
        blocks += graph::blockParameterCount(config, l);
    double total = blocks / static_cast<double>(tp_degree);
    if (stage == 0)
        total += graph::embeddingParameterCount(config);
    if (stage == pp_degree - 1)
        total += graph::headParameterCount(config);
    return total;
}

double
hybridStageMemoryBytes(const ModelConfig &config, uint64_t micro_batch,
                       int stage, const HybridConfig &hybrid)
{
    const double tp = static_cast<double>(hybrid.tpDegree);
    const auto [begin, end] =
        stageLayerRange(config.numLayers, stage, hybrid.ppDegree);
    const double layers = static_cast<double>(end - begin);
    const double h = static_cast<double>(config.hidden);
    const double s = static_cast<double>(config.seq);
    const double a = static_cast<double>(config.heads);
    const double b = static_cast<double>(micro_batch);
    const double rows_h = b * s * h * 4.0;
    const double attn = b * a * s * s * 4.0;
    // TP split of graph::savedActivationBytesPerLayer (14 (B*S, H)
    // tensors + 3 score tensors, which it equals at tp = 1): 8
    // block-internal tensors and the attention scores shard, the 6
    // layer-boundary tensors replicate. Recomputation stashes only the
    // layer-input checkpoint (plus its norm) and replays the rest.
    double act_per_layer = hybrid.recomputeActivations
                               ? 2.0 * rows_h
                               : 6.0 * rows_h + 8.0 * rows_h / tp +
                                     3.0 * attn / tp;
    const double stash = scheduleStashMicroBatches(
        hybrid.schedule, hybrid.numMicroBatches, hybrid.ppDegree,
        hybrid.virtualStagesPerGpu);
    double mem =
        optimizerStateBytes(hybridStageParameterCount(
            config, stage, hybrid.ppDegree, hybrid.tpDegree)) +
        stash * layers * act_per_layer;
    // Overlapped DDP keeps a flattened bucket plus its reduction
    // scratch live; an unoverlapped all-reduce runs after backward, in
    // place on the gradients the optimizer state already counts.
    if (hybrid.dpDegree > 1 && hybrid.ddp.overlapEfficiency > 0.0)
        mem += 2.0 * hybrid.ddp.bucketBytes;
    return mem;
}

std::string
validateHybrid(const ModelConfig &config, const ServerConfig &server,
               uint64_t global_batch, const HybridConfig &hybrid)
{
    if (server.numGpus < 1)
        return "need at least one GPU";
    if (hybrid.tpDegree < 1 || hybrid.ppDegree < 1 || hybrid.dpDegree < 1)
        return "parallel degrees must be positive";
    if (hybrid.totalGpus() != server.numGpus)
        return "tp x pp x dp = " + std::to_string(hybrid.totalGpus()) +
               " does not match the server's " +
               std::to_string(server.numGpus) + " GPUs";
    const uint64_t tp = static_cast<uint64_t>(hybrid.tpDegree);
    if (config.heads % tp != 0 || config.hidden % tp != 0 ||
        config.ffWidth() % tp != 0)
        return "model dimensions (" + std::to_string(config.heads) +
               " heads, " + std::to_string(config.hidden) + " hidden, " +
               std::to_string(config.ffWidth()) +
               " ff) not all divisible by tensor degree " +
               std::to_string(hybrid.tpDegree);
    if (static_cast<uint64_t>(hybrid.ppDegree) > config.numLayers)
        return "more pipeline stages than layers (" +
               std::to_string(config.numLayers) + ")";
    if (hybrid.numMicroBatches < 1)
        return "micro-batch count must be positive";
    if (hybrid.schedule == PipelineSchedule::Interleaved1F1B) {
        if (hybrid.ppDegree < 2)
            return "interleaved schedule needs at least two pipeline "
                   "stages";
        if (hybrid.virtualStagesPerGpu < 2)
            return "interleaved schedule needs at least two virtual "
                   "stages per GPU";
        if (static_cast<uint64_t>(hybrid.ppDegree) *
                static_cast<uint64_t>(hybrid.virtualStagesPerGpu) >
            config.numLayers)
            return "more virtual stages than layers (" +
                   std::to_string(config.numLayers) + ")";
    }
    if (hybrid.dpDegree > 1) {
        if (hybrid.ddp.bucketBytes <= 0.0)
            return "DDP bucket size must be positive";
        if (hybrid.ddp.overlapEfficiency < 0.0 ||
            hybrid.ddp.overlapEfficiency > 1.0)
            return "DDP overlap efficiency must be in [0, 1]";
    }
    const uint64_t dp = static_cast<uint64_t>(hybrid.dpDegree);
    if (global_batch == 0 || global_batch % dp != 0)
        return "global batch " + std::to_string(global_batch) +
               " not divisible across " + std::to_string(hybrid.dpDegree) +
               " data-parallel replicas";
    const uint64_t per_replica = global_batch / dp;
    const uint64_t m = static_cast<uint64_t>(hybrid.numMicroBatches);
    if (per_replica % m != 0)
        return "per-replica batch " + std::to_string(per_replica) +
               " not divisible into " + std::to_string(m) +
               " micro-batches";
    return "";
}

StagePriceMemo::Price
StagePriceMemo::getOrPrice(const std::string &key,
                           const std::function<Price()> &price)
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        auto it = entries.end();
        priced.wait(lock, [&] {
            it = entries.find(key);
            return it == entries.end() || it->second.ready;
        });
        if (it != entries.end()) {
            ++hitCount;
            return it->second.price;
        }
        ++missCount;
        entries.emplace(key, Entry{});
    }
    Price result;
    try {
        result = price();
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            entries.erase(key);
        }
        priced.notify_all();
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        Entry &entry = entries.at(key);
        entry.price = result;
        entry.ready = true;
    }
    priced.notify_all();
    return result;
}

uint64_t
StagePriceMemo::hits() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return hitCount;
}

uint64_t
StagePriceMemo::misses() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return missCount;
}

size_t
StagePriceMemo::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    size_t ready = 0;
    for (const auto &entry : entries)
        ready += entry.second.ready ? 1 : 0;
    return ready;
}

namespace {

/** Price of one already-built graph: predicted compute + collectives. */
StagePriceMemo::Price
pricedGraph(const graph::LatencyPredictor &predictor,
            const CollectiveModel &comms, const gpusim::GpuSpec &gpu,
            double link, int tp, const KernelGraph &g)
{
    StagePriceMemo::Price price;
    price.totalMs =
        predictor.predictGraphMs(g, gpu) + commCostMs(g, comms, tp, link);
    price.commBytes = g.totalCommBytes();
    return price;
}

/**
 * Price one pipeline-stage graph (predicted compute plus its TP
 * collectives). Without a memo this builds and prices the stage graph
 * directly — bit-identical to what hybridTrainingMs always did, so the
 * degenerate-degree guarantees stay exact. With a memo (the sweep
 * path) stages are priced by component — embedding prologue, one
 * representative layer per MoE parity times the stage's layer count,
 * head epilogue — instead of building the whole stage graph: the graph
 * price is additive over nodes, appendBackwardPass mirrors each
 * forward node independently, and the layer builder depends on
 * the layer index only through the MoE parity, so the component sum
 * prices the exact node multiset of the full stage graph at O(1) graph
 * builds per stage (equal up to floating-point re-association). The
 * components also share across stage counts and pipeline positions —
 * the pLUTo move: predict each unique structure once, look the rest up.
 */
StagePriceMemo::Price
pricedStage(const graph::LatencyPredictor &predictor,
            const CollectiveModel &comms, const gpusim::GpuSpec &gpu,
            double link, const ModelConfig &config, uint64_t micro,
            int tp, int stage, int num_stages, bool training,
            StagePriceMemo *memo)
{
    const char train_tag = training ? 't' : 'f';
    if (!memo)
        return pricedGraph(predictor, comms, gpu, link, tp,
                           buildHybridStageGraph(config, micro, tp, stage,
                                                 num_stages, training));
    const std::string key = std::to_string(tp) + '|' +
                            std::to_string(num_stages) + '|' +
                            std::to_string(stage) + '|' +
                            std::to_string(micro) + '|' + train_tag;

    // One component through the memo: a tiny graph priced at most once
    // per (kind, tp, micro, training, parity).
    const auto component = [&](char kind, int tp_used,
                               uint64_t parity) -> StagePriceMemo::Price {
        const std::string ckey =
            std::string("c|") + kind + '|' + std::to_string(tp_used) +
            '|' + std::to_string(micro) + '|' + train_tag + '|' +
            std::to_string(parity);
        return memo->getOrPrice(ckey, [&] {
            // Embedding and head components are empty layer ranges,
            // put at the end because LayerRange reads end 0 as "all
            // layers".
            const uint64_t none = config.numLayers;
            const KernelGraph g = graph::buildLayerRangeGraph(
                config, micro,
                kind == 'l'
                    ? graph::LayerRange{parity, parity + 1, false, false,
                                        training, tp_used}
                    : graph::LayerRange{none, none,
                                        /*includeEmbedding=*/kind == 'e',
                                        /*includeHead=*/kind == 'h',
                                        training, tp_used});
            return pricedGraph(predictor, comms, gpu, link, tp_used, g);
        });
    };

    return memo->getOrPrice(key, [&] {
        const auto [begin, end] =
            stageLayerRange(config.numLayers, stage, num_stages);
        StagePriceMemo::Price price;
        // Layers, one representative build per MoE parity (plain models
        // collapse to a single component).
        uint64_t plain_layers = 0;
        uint64_t moe_layers = 0;
        for (uint64_t l = begin; l < end; ++l)
            (isMoeLayer(config, l) ? moe_layers : plain_layers) += 1;
        if (plain_layers > 0) {
            const StagePriceMemo::Price layer = component('l', tp, 0);
            price.totalMs +=
                static_cast<double>(plain_layers) * layer.totalMs;
            price.commBytes +=
                static_cast<double>(plain_layers) * layer.commBytes;
        }
        if (moe_layers > 0) {
            const StagePriceMemo::Price layer = component('l', tp, 1);
            price.totalMs +=
                static_cast<double>(moe_layers) * layer.totalMs;
            price.commBytes +=
                static_cast<double>(moe_layers) * layer.commBytes;
        }
        // Embedding and head replicate across TP ranks (their graphs
        // hold no sharded kernels and no collectives), so they are
        // priced at tp = 1 and shared across every tensor degree.
        if (stage == 0) {
            const StagePriceMemo::Price embed = component('e', 1, 0);
            price.totalMs += embed.totalMs;
            price.commBytes += embed.commBytes;
        }
        if (stage == num_stages - 1) {
            const StagePriceMemo::Price head = component('h', 1, 0);
            price.totalMs += head.totalMs;
            price.commBytes += head.commBytes;
        }
        return price;
    });
}

/**
 * Run fn(0..count-1) on @p threads workers (0 = hardware concurrency).
 * The first exception thrown by any index is re-thrown on the caller
 * after every worker has stopped.
 */
void
parallelFor(size_t count, int threads, const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    size_t workers =
        threads > 0 ? static_cast<size_t>(threads)
                    : static_cast<size_t>(std::max(
                          1u, std::thread::hardware_concurrency()));
    workers = std::min(workers, count);
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto body = [&] {
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                return;
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (size_t t = 1; t < workers; ++t)
        pool.emplace_back(body);
    body();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace

HybridStagePrices
hybridStagePrices(const graph::LatencyPredictor &predictor,
                  const CollectiveModel &comms, const ServerConfig &server,
                  const ModelConfig &config, uint64_t micro_batch,
                  const HybridConfig &hybrid, StagePriceMemo *memo)
{
    const gpusim::GpuSpec &gpu = server.resolvedGpu();
    const double link = server.effectiveLinkGBps();
    const int pp = hybrid.ppDegree;
    if (pp < 1)
        fatal("hybridStagePrices: bad pipeline degree");
    HybridStagePrices prices;
    prices.trainMs.assign(pp, 0.0);
    prices.replayMs.assign(pp, 0.0);
    prices.trainCommBytes.assign(pp, 0.0);
    prices.replayCommBytes.assign(pp, 0.0);
    for (int s = 0; s < pp; ++s) {
        const StagePriceMemo::Price train = pricedStage(
            predictor, comms, gpu, link, config, micro_batch,
            hybrid.tpDegree, s, pp, /*training=*/true, memo);
        prices.trainMs[s] = train.totalMs;
        prices.trainCommBytes[s] = train.commBytes;
        if (hybrid.recomputeActivations) {
            // Checkpointing replays the stage's forward (including its
            // activation all-reduces) before each backward.
            const StagePriceMemo::Price replay = pricedStage(
                predictor, comms, gpu, link, config, micro_batch,
                hybrid.tpDegree, s, pp, /*training=*/false, memo);
            prices.replayMs[s] = replay.totalMs;
            prices.replayCommBytes[s] = replay.commBytes;
        }
    }
    return prices;
}

HybridResult
hybridTrainingMs(const graph::LatencyPredictor &predictor,
                 const CollectiveModel &comms, const ServerConfig &server,
                 const ModelConfig &config, uint64_t global_batch,
                 const HybridConfig &hybrid, StagePriceMemo *memo)
{
    // Death-testable precondition: callers with user-supplied
    // configurations screen through validateHybrid() first.
    const std::string reject =
        validateHybrid(config, server, global_batch, hybrid);
    ensure(reject.empty(), "hybridTrainingMs: " + reject);
    // Also death-testable: no closed form exists for the zero-bubble
    // schedule — sim::simulateHybrid prices it, and callers route on
    // the schedule before reaching this entry point.
    ensure(hybrid.schedule != PipelineSchedule::ZeroBubble,
           "hybridTrainingMs: the zero-bubble schedule is priced by the "
           "discrete-event simulator only (sim::simulateHybrid)");

    const gpusim::GpuSpec &gpu = server.resolvedGpu();
    const double link = server.effectiveLinkGBps();
    const int pp = hybrid.ppDegree;
    const uint64_t m = static_cast<uint64_t>(hybrid.numMicroBatches);
    const uint64_t micro =
        global_batch / (static_cast<uint64_t>(hybrid.dpDegree) * m);

    HybridResult result;
    // OOM screen first: the memory model is closed-form, so a
    // non-fitting configuration never pays for graph prediction.
    for (int s = 0; s < pp; ++s) {
        const double mem =
            hybridStageMemoryBytes(config, micro, s, hybrid);
        result.memoryBytes = std::max(result.memoryBytes, mem);
        if (mem > gpu.memBytes())
            result.oom = true;
    }
    if (result.oom)
        return result;

    // Per-stage slot time: TP-sharded compute plus the stage's TP
    // collectives, plus one forward replay per micro-batch when
    // recomputing. The per-stage accumulation order matches the
    // pre-refactor loop exactly, so the latency stays bit-identical.
    const HybridStagePrices prices = hybridStagePrices(
        predictor, comms, server, config, micro, hybrid, memo);
    std::vector<double> stage_ms(pp, 0.0);
    double sum_ms = 0.0;
    double max_ms = 0.0;
    double tp_payload = 0.0; // Per pipeline line, per micro-batch.
    double recompute_ms = 0.0;
    for (int s = 0; s < pp; ++s) {
        double ms = prices.trainMs[s];
        tp_payload += prices.trainCommBytes[s];
        if (hybrid.recomputeActivations) {
            ms += prices.replayMs[s];
            recompute_ms += prices.replayMs[s];
            tp_payload += prices.replayCommBytes[s];
        }
        stage_ms[s] = ms;
        sum_ms += ms;
        max_ms = std::max(max_ms, ms);
    }
    result.recomputeMs = static_cast<double>(m) * recompute_ms;
    result.commBytes += static_cast<double>(m) * tp_payload;

    // Pipeline latency: M turns of the slowest stage in steady state,
    // plus the fill/drain bubble — one pass over the other stages,
    // divided by the virtual-stage count when interleaved (Megatron:
    // bubble fraction (S-1)/(vM) of the iteration).
    const int v = hybrid.schedule == PipelineSchedule::Interleaved1F1B
                      ? hybrid.virtualStagesPerGpu
                      : 1;
    result.bubbleMs = (sum_ms - max_ms) / static_cast<double>(v);
    double latency = static_cast<double>(m) * max_ms + result.bubbleMs;

    // Stage-boundary transfers: each micro-batch crosses every chunk
    // boundary once forward (activations) and once backward (their
    // gradients); interleaving multiplies the chunk count by v.
    if (pp > 1) {
        const double boundary_bytes =
            static_cast<double>(micro * config.seq * config.hidden) *
            static_cast<double>(dtypeBytes(DataType::Fp32));
        const double crossings =
            static_cast<double>(m) *
            static_cast<double>(pp * v - 1) * 2.0;
        latency += crossings * comms.sendRecvMs(boundary_bytes, link);
        result.commBytes += crossings * boundary_bytes;
    }

    // DP gradient all-reduce: buckets released through the last
    // micro-batch's backward pass overlap with it (backward is ~2/3 of
    // training compute); the trailing bucket is only ready at the end,
    // so it is always exposed. The stage groups reduce concurrently —
    // the iteration waits for the slowest.
    if (hybrid.dpDegree > 1) {
        double exposed_max = 0.0;
        double payload = 0.0;
        for (int s = 0; s < pp; ++s) {
            const double grad_bytes =
                hybridStageParameterCount(config, s, pp,
                                          hybrid.tpDegree) *
                4.0;
            payload += grad_bytes;
            const BucketedAllReduce cost = bucketedAllReduceMs(
                comms, grad_bytes, hybrid.ddp.bucketBytes,
                hybrid.dpDegree, link);
            const double window = hybrid.ddp.overlapEfficiency *
                                  (2.0 / 3.0) * stage_ms[s];
            const double exposed =
                cost.lastBucketMs +
                std::max(0.0,
                         cost.totalMs - cost.lastBucketMs - window);
            exposed_max = std::max(exposed_max, exposed);
        }
        latency += exposed_max;
        result.exposedDdpMs = exposed_max;
        result.commBytes += payload;
    }

    result.latencyMs = latency;
    return result;
}

namespace {

/** One (tp, pp, dp) factorization of the sweep with its bound. */
struct SweepFactor
{
    int tp = 1;
    int pp = 1;
    int dp = 1;
    double boundMs = 0.0;
};

} // namespace

std::vector<SweepEntry>
sweepStrategies(const graph::LatencyPredictor &predictor,
                const CollectiveModel &comms, const ServerConfig &server,
                const ModelConfig &config, uint64_t global_batch,
                const SweepOptions &options, SweepStats *stats)
{
    if (server.numGpus < 1)
        fatal("sweepStrategies: need at least one GPU");
    obs::Tracer &tracer = obs::Tracer::global();
    obs::TraceSpan sweep_span("dist.sweep", "dist", tracer);
    const int n = server.numGpus;
    const gpusim::GpuSpec &gpu = server.resolvedGpu();
    const double link = server.effectiveLinkGBps();

    StagePriceMemo memo_storage;
    StagePriceMemo *memo =
        options.reuseStagePrices ? &memo_storage : nullptr;
    SweepStats accounting;

    // Every (tp, pp, dp) factorization of the GPU count whose structure
    // can work at all, screened through validateHybrid itself on the
    // least-constrained grid point (one micro-batch, 1F1B, no
    // recompute) so this pre-filter can never drift stricter or looser
    // than the per-point validation.
    const auto viable = [&](int tp, int pp, int dp) {
        HybridConfig probe;
        probe.tpDegree = tp;
        probe.ppDegree = pp;
        probe.dpDegree = dp;
        probe.numMicroBatches = 1;
        probe.schedule = PipelineSchedule::OneFOneB;
        probe.ddp = options.ddp;
        return validateHybrid(config, server, global_batch, probe)
            .empty();
    };
    std::vector<SweepFactor> factors;
    for (int tp = 1; tp <= n; ++tp) {
        if (n % tp != 0)
            continue;
        for (int pp = 1; pp <= n / tp; ++pp) {
            if ((n / tp) % pp != 0)
                continue;
            const int dp = n / (tp * pp);
            if (viable(tp, pp, dp))
                factors.push_back({tp, pp, dp, 0.0});
        }
    }
    accounting.factorizations = factors.size();

    // The candidate grid of one factorization, pre-screened through
    // validateHybrid().
    const auto gridFor = [&](const SweepFactor &f) {
        std::vector<PipelineSchedule> schedules;
        if (f.pp == 1) {
            // Without a pipeline, micro-batching is gradient
            // accumulation: no bubble to amortize, but the 1F1B
            // stash (one micro-batch in flight) still shrinks the
            // activation footprint m-fold, so larger m can admit
            // configurations the full batch cannot fit. Only the
            // GPipe/1F1B distinction is moot — accumulation frees
            // each micro-batch's activations after its backward.
            schedules = {PipelineSchedule::OneFOneB};
        } else {
            schedules = {PipelineSchedule::GPipe,
                         PipelineSchedule::OneFOneB};
            if (options.tryInterleaved &&
                options.virtualStagesPerGpu >= 2 &&
                static_cast<uint64_t>(f.pp) *
                        static_cast<uint64_t>(
                            options.virtualStagesPerGpu) <=
                    config.numLayers)
                schedules.push_back(PipelineSchedule::Interleaved1F1B);
            // Zero-bubble candidates only when the installed pricer
            // can value them (the closed form cannot; at pp = 1 the
            // schedule degenerates to 1F1B and adds nothing).
            if (options.includeZeroBubble && options.pointEvaluator)
                schedules.push_back(PipelineSchedule::ZeroBubble);
        }
        std::vector<HybridConfig> grid;
        for (int micro_count : options.microBatchCandidates) {
            for (PipelineSchedule schedule : schedules) {
                for (int rec = 0; rec < (options.tryRecompute ? 2 : 1);
                     ++rec) {
                    HybridConfig hy;
                    hy.tpDegree = f.tp;
                    hy.ppDegree = f.pp;
                    hy.dpDegree = f.dp;
                    hy.numMicroBatches = micro_count;
                    hy.schedule = schedule;
                    hy.virtualStagesPerGpu = options.virtualStagesPerGpu;
                    hy.recomputeActivations = rec == 1;
                    hy.ddp = options.ddp;
                    if (validateHybrid(config, server, global_batch, hy)
                            .empty())
                        grid.push_back(hy);
                }
            }
        }
        return grid;
    };

    const bool pruning = !options.exhaustive;
    if (pruning) {
        // Branch-and-bound lower bound per factorization: the full
        // per-replica batch must flow through the slowest stage M
        // times, and stage compute (plus the mandatory TP collectives)
        // is subadditive in the micro-batch size — splitting a batch
        // never makes its total cheaper — so no micro-batch count,
        // schedule, or recompute setting beats the whole TP-sharded
        // model priced at the full per-replica batch, divided by the
        // stage count. The one-stage graph here both bounds the grid
        // and seeds the memo (it is the m = 1 stage of tp x dp plans).
        for (SweepFactor &f : factors) {
            const uint64_t per_replica =
                global_batch / static_cast<uint64_t>(f.dp);
            f.boundMs = pricedStage(predictor, comms, gpu, link, config,
                                    per_replica, f.tp, /*stage=*/0,
                                    /*num_stages=*/1, /*training=*/true,
                                    memo)
                            .totalMs /
                        static_cast<double>(f.pp);
        }
        // Most promising first: tight thresholds arrive early.
        std::stable_sort(factors.begin(), factors.end(),
                         [](const SweepFactor &a, const SweepFactor &b) {
                             return a.boundMs < b.boundMs;
                         });
    }

    const size_t keep_top =
        static_cast<size_t>(std::max(1, options.keepTop));
    std::vector<SweepEntry> out;
    // The keepTop-th best latency found so far: the prune threshold.
    const auto pruneThresholdMs = [&] {
        if (out.size() < keep_top)
            return std::numeric_limits<double>::infinity();
        std::vector<double> lat;
        lat.reserve(out.size());
        for (const SweepEntry &e : out)
            lat.push_back(e.result.latencyMs);
        std::nth_element(lat.begin(), lat.begin() + (keep_top - 1),
                         lat.end());
        return lat[keep_top - 1];
    };

    for (const SweepFactor &f : factors) {
        // One span per factorization; pruning shows up as a span that
        // ends right after the bound check.
        obs::TraceSpan factor_span(
            tracer.enabled()
                ? "dist.factor.tp" + std::to_string(f.tp) + ".pp" +
                      std::to_string(f.pp) + ".dp" + std::to_string(f.dp)
                : std::string(),
            "dist", tracer);
        const std::vector<HybridConfig> grid = gridFor(f);
        if (grid.empty())
            continue;
        const bool baseline =
            options.keepSingleAxisBaselines &&
            (f.tp > 1) + (f.pp > 1) + (f.dp > 1) <= 1;
        const double cutoff =
            pruneThresholdMs() * (1.0 + options.boundSlack);
        if (pruning && !baseline && f.boundMs > cutoff) {
            ++accounting.prunedFactorizations;
            accounting.skippedPoints += grid.size();
            if (tracer.enabled())
                tracer.add("dist.prune.factorization", "dist",
                           tracer.nowUs(), 0.0, 1);
            continue;
        }

        // Second cut level, per micro-batch row: the iteration runs the
        // slowest stage m times and the stage graphs partition the full
        // model's nodes, so latency >= m x price(model at the row's
        // micro size) / pp by arithmetic alone (no subadditivity
        // assumption). Wave quantization makes small micro-batches
        // expensive, so this is the bound that bites on deep grids.
        std::vector<HybridConfig> surviving;
        surviving.reserve(grid.size());
        if (pruning && !baseline) {
            const uint64_t per_replica =
                global_batch / static_cast<uint64_t>(f.dp);
            for (size_t i = 0; i < grid.size();) {
                size_t row_end = i;
                while (row_end < grid.size() &&
                       grid[row_end].numMicroBatches ==
                           grid[i].numMicroBatches)
                    ++row_end;
                const uint64_t m =
                    static_cast<uint64_t>(grid[i].numMicroBatches);
                const double row_bound =
                    pricedStage(predictor, comms, gpu, link, config,
                                per_replica / m, f.tp, /*stage=*/0,
                                /*num_stages=*/1, /*training=*/true,
                                memo)
                        .totalMs *
                    static_cast<double>(m) / static_cast<double>(f.pp);
                if (row_bound > cutoff) {
                    ++accounting.prunedMicroRows;
                    accounting.skippedPoints += row_end - i;
                    if (tracer.enabled())
                        tracer.add("dist.prune.micro_row", "dist",
                                   tracer.nowUs(), 0.0, 2);
                    i = row_end;
                    continue;
                }
                // Recompute points additionally pay the mandatory
                // forward replay of every micro-batch.
                double replay_bound = -1.0;
                for (size_t p = i; p < row_end; ++p) {
                    if (grid[p].recomputeActivations) {
                        if (replay_bound < 0.0)
                            replay_bound =
                                pricedStage(predictor, comms, gpu, link,
                                            config, per_replica / m,
                                            f.tp, /*stage=*/0,
                                            /*num_stages=*/1,
                                            /*training=*/false, memo)
                                    .totalMs *
                                static_cast<double>(m) /
                                static_cast<double>(f.pp);
                        if (row_bound + replay_bound > cutoff) {
                            ++accounting.skippedPoints;
                            continue;
                        }
                    }
                    surviving.push_back(grid[p]);
                }
                i = row_end;
            }
        } else {
            surviving = grid;
        }
        if (surviving.empty())
            continue;

        // Evaluate the surviving points on the thread pool; the memo
        // and an attached kernel-prediction cache are both thread-safe,
        // and results land in per-index slots so the outcome does not
        // depend on scheduling.
        std::vector<HybridResult> results(surviving.size());
        parallelFor(surviving.size(), options.threads, [&](size_t i) {
            results[i] =
                options.pointEvaluator
                    ? options.pointEvaluator(surviving[i], memo)
                    : hybridTrainingMs(predictor, comms, server, config,
                                       global_batch, surviving[i], memo);
        });
        accounting.evaluatedPoints += surviving.size();
        const SweepEngine engine = options.pointEvaluator
                                       ? SweepEngine::Simulator
                                       : SweepEngine::ClosedForm;
        for (size_t i = 0; i < surviving.size(); ++i)
            if (!results[i].oom)
                out.push_back({surviving[i], results[i], engine});
    }

    accounting.stagePriceHits = memo_storage.hits();
    accounting.stagePriceMisses = memo_storage.misses();
    if (stats != nullptr)
        *stats = accounting;
    if (options.metrics) {
        // One increment batch per call: SweepStats stays the per-call
        // view, the registry accumulates across calls — both fed from
        // the same accounting, so they cannot drift.
        obs::MetricsRegistry &reg = *options.metrics;
        reg.counter("sweep.factorizations")
            ->inc(accounting.factorizations);
        reg.counter("sweep.pruned_factorizations")
            ->inc(accounting.prunedFactorizations);
        reg.counter("sweep.pruned_micro_rows")
            ->inc(accounting.prunedMicroRows);
        reg.counter("sweep.evaluated_points")
            ->inc(accounting.evaluatedPoints);
        reg.counter("sweep.skipped_points")
            ->inc(accounting.skippedPoints);
        reg.counter("sweep.stage_price_hits")
            ->inc(accounting.stagePriceHits);
        reg.counter("sweep.stage_price_misses")
            ->inc(accounting.stagePriceMisses);
    }
    std::stable_sort(
        out.begin(), out.end(),
        [](const SweepEntry &a, const SweepEntry &b) {
            if (a.result.latencyMs != b.result.latencyMs)
                return a.result.latencyMs < b.result.latencyMs;
            // Ties break toward simpler configurations: fewer active
            // axes, no recompute, then the smaller degree tuple.
            const int aa = a.config.activeAxes();
            const int bb = b.config.activeAxes();
            if (aa != bb)
                return aa < bb;
            if (a.config.recomputeActivations !=
                b.config.recomputeActivations)
                return !a.config.recomputeActivations;
            if (a.config.tpDegree != b.config.tpDegree)
                return a.config.tpDegree < b.config.tpDegree;
            if (a.config.ppDegree != b.config.ppDegree)
                return a.config.ppDegree < b.config.ppDegree;
            if (a.config.numMicroBatches != b.config.numMicroBatches)
                return a.config.numMicroBatches <
                       b.config.numMicroBatches;
            return static_cast<int>(a.config.schedule) <
                   static_cast<int>(b.config.schedule);
        });
    return out;
}

const SweepEntry *
bestSingleAxisEntry(const std::vector<SweepEntry> &entries)
{
    // Entries are ranked fastest-first: the first single-axis hit wins.
    for (const SweepEntry &e : entries)
        if (e.config.activeAxes() <= 1)
            return &e;
    return nullptr;
}

double
MultiNodeConfig::fabricEfficiency(int nodes) const
{
    // Quadratic collapse past the knee: a hyperbolic decay in n keeps
    // falling visibly through the thousands-of-nodes range, but the
    // published Table-9 tail is nearly flat from 384 nodes on — the
    // fabric is already fully contended — so the decay must have
    // essentially reached the floor by then.
    const double n = static_cast<double>(std::max(nodes, 1));
    const double knee = (n - 1.0) / fabricSaturationNodes;
    return fabricFloorFraction +
           (1.0 - fabricFloorFraction) / (1.0 + knee * knee);
}

double
multiNodeIterationMs(const graph::LatencyPredictor &predictor,
                     const CollectiveModel &comms, const ModelConfig &config,
                     const gpusim::GpuSpec &gpu, int num_nodes,
                     const MultiNodeConfig &cfg)
{
    if (num_nodes < 1)
        fatal("multiNodeIterationMs: need at least one node");
    if (cfg.tpDegree < 1 || cfg.tpDegree > cfg.gpusPerNode)
        fatal("multiNodeIterationMs: tensor-parallel degree must fit in "
              "the node");

    // Inside the node: tensor parallelism over the NVLink-class fabric.
    const KernelGraph g = buildTensorParallelGraph(
        config, cfg.perNodeBatch, cfg.tpDegree, true);
    double total = predictor.predictGraphMs(g, gpu) +
                   commCostMs(g, comms, cfg.tpDegree, gpu.interconnectGBps);

    // Across nodes: data parallelism. Each TP rank all-reduces its
    // parameter shard with its peers over the cluster fabric, whose
    // achievable bandwidth decays with scale (fat-tree contention) until
    // the Table-9 plateau.
    if (num_nodes > 1) {
        const double grad_bytes =
            config.parameterCount() * 4.0 /
            static_cast<double>(cfg.tpDegree);
        const double fabric_gbps = cfg.interNodeGbps / 8.0 *
                                   cfg.fabricEfficiency(num_nodes);
        total += comms.allReduceMs(grad_bytes, num_nodes, fabric_gbps);
    }
    return total;
}

} // namespace neusight::dist
