/**
 * @file
 * Distributed-training forecasting (paper Section 5.1): graph transforms
 * that turn a single-GPU kernel graph into the per-GPU graphs of a
 * composed TP x PP x DP execution, plus the orchestration that combines
 * a latency predictor with a collective cost model into an end-to-end
 * iteration forecast — including the out-of-memory screening of the
 * paper's tables, micro-batched pipeline schedules, the strategy sweep,
 * and the multi-node hierarchy of Table 9.
 *
 * One forecaster prices every strategy: hybridTrainingMs(). The three
 * single-axis strategies of paper Table 8 are presets of it
 * (singleAxisConfig()): pure TP is tp = N, pure PP is pp = N with the
 * requested micro-batching and schedule, and pure DP is dp = N with one
 * unbucketed, unoverlapped gradient all-reduce after backward.
 */

#ifndef NEUSIGHT_DIST_PARALLEL_HPP
#define NEUSIGHT_DIST_PARALLEL_HPP

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/collective.hpp"
#include "obs/metrics.hpp"
#include "graph/latency_predictor.hpp"
#include "graph/models.hpp"
#include "gpusim/gpu_spec.hpp"

namespace neusight::dist {

/** A homogeneous multi-GPU server. */
struct ServerConfig
{
    /** Identity of the box; seeds SimCollectives' hidden behaviour. */
    std::string systemName = "server";
    /** GPU model name, resolved through gpusim::findGpu(). */
    std::string gpuName = "A100-40GB";
    int numGpus = 4;
    /** Peak GPU-to-GPU bandwidth in GB/s; 0 means "use the GPU spec". */
    double linkGBps = 0.0;

    /**
     * Pin an explicit GPU spec: distributed forecasts then use it
     * directly instead of resolving gpuName through the Table-4
     * database, so JSON-defined hypothetical GPUs (gpusim::resolveGpu,
     * the paper's Blackwell scenario) work in distributed forecasts.
     * Also updates gpuName for display.
     */
    void setGpu(const gpusim::GpuSpec &spec);

    /** The pinned spec, or the database entry named by gpuName. */
    const gpusim::GpuSpec &resolvedGpu() const;

    /** The configured link bandwidth, or the GPU spec's when unset. */
    double effectiveLinkGBps() const;

  private:
    gpusim::GpuSpec gpuSpec;
    bool hasGpuSpec = false;
};

/** The three parallelization strategies of paper Table 8. */
enum class Parallelism
{
    Data,
    Tensor,
    Pipeline,
};

/** Display name, e.g. "Data Parallel". */
const char *parallelismName(Parallelism strategy);

/** Micro-batch execution orders for pipeline parallelism. */
enum class PipelineSchedule
{
    /** All forwards, then all backwards: stashes every micro-batch. */
    GPipe,
    /** One-forward-one-backward: stash capped at the stage count. */
    OneFOneB,
    /**
     * Megatron-style interleaved 1F1B: each GPU owns several
     * non-contiguous virtual stages (model chunks), shrinking the
     * fill/drain bubble by the chunk count at the price of a larger
     * activation stash and more stage-boundary transfers.
     */
    Interleaved1F1B,
    /**
     * Zero-bubble-style schedule (ZB-H1): the backward pass splits into
     * an input-gradient pass B (on the pipeline's critical path) and a
     * weight-gradient pass W (free to fill the drain bubble). No closed
     * form prices it — the discrete-event simulator
     * (sim::simulateHybrid) is the only forecaster for this schedule;
     * the closed-form entry points reject it as a precondition.
     */
    ZeroBubble,
};

/** Display name, e.g. "GPipe". */
const char *pipelineScheduleName(PipelineSchedule schedule);

/**
 * Per-GPU kernel graph of a Megatron-style tensor-parallel execution at
 * degree @p tp_degree: the whole model through graph::buildLayerRangeGraph
 * with LayerRange::tpDegree set (2 all-reduces per layer forward, 4 when
 * @p training).
 */
graph::KernelGraph
buildTensorParallelGraph(const graph::ModelConfig &config, uint64_t batch,
                         int tp_degree, bool training,
                         gpusim::DataType dtype = gpusim::DataType::Fp32);

/**
 * Bucketed data-parallel gradient all-reduce (PyTorch-DDP style): the
 * backward pass releases gradients bucket by bucket, so all but the
 * trailing bucket can overlap with backward compute.
 */
struct DdpOverlapConfig
{
    /** Gradient bucket size in bytes (PyTorch's default is 25 MiB). */
    double bucketBytes = 25.0 * 1024.0 * 1024.0;
    /**
     * Fraction of the backward-compute window usable to hide collective
     * traffic: below 1 because the all-reduce steals link/SM bandwidth
     * from the very kernels it hides behind. Zero means no overlap: the
     * all-reduce runs after backward, in place on the gradients, so no
     * bucket buffers are charged to memory.
     */
    double overlapEfficiency = 0.75;
};

/**
 * A composed TP x PP x DP execution of one training iteration
 * (Megatron-LM-style hybrid sharding): the kernel graph shards by
 * tpDegree first, the TP-sharded layers cut into ppDegree pipeline
 * stages, and dpDegree replicas of that grid each take 1/dp of the
 * global batch, all-reducing gradients with bucketed overlap. The three
 * degrees must multiply to the server's GPU count.
 */
struct HybridConfig
{
    int tpDegree = 1;
    int ppDegree = 1;
    int dpDegree = 1;
    /** Micro-batches per data-parallel replica (pipeline interleaving). */
    int numMicroBatches = 1;
    PipelineSchedule schedule = PipelineSchedule::OneFOneB;
    /** Model chunks per GPU; honored when schedule is Interleaved1F1B. */
    int virtualStagesPerGpu = 2;
    /**
     * Activation recomputation (gradient checkpointing): stash only each
     * layer's input and replay the forward during backward, trading
     * recompute FLOPs for stash memory in the OOM screen.
     */
    bool recomputeActivations = false;
    DdpOverlapConfig ddp;

    /** GPUs the strategy occupies: the product of the three degrees. */
    int totalGpus() const { return tpDegree * ppDegree * dpDegree; }

    /** Number of axes with degree > 1 (2+ means genuinely hybrid). */
    int activeAxes() const
    {
        return (tpDegree > 1) + (ppDegree > 1) + (dpDegree > 1);
    }

    /** Compact display form, e.g. "tp2 x pp2 x dp2". */
    std::string describe() const;
};

/** Outcome of a hybrid forecast, with the screened per-GPU footprint. */
struct HybridResult
{
    double latencyMs = 0.0;
    bool oom = false;
    /**
     * Summed payload bytes priced per iteration: TP activation
     * all-reduces of every micro-batch, pipeline boundary transfers, and
     * the bucketed DP gradient all-reduce.
     */
    double commBytes = 0.0;
    /** Peak resident bytes per GPU (the max over pipeline stages). */
    double memoryBytes = 0.0;
    /** Pipeline fill/drain cost in excess of the steady state. */
    double bubbleMs = 0.0;
    /** DP gradient all-reduce time not hidden under backward compute. */
    double exposedDdpMs = 0.0;
    /** Forward-replay time added by activation recomputation. */
    double recomputeMs = 0.0;
};

/**
 * The paper's Table-8 strategies as hybrid presets: @p strategy over
 * all @p num_gpus GPUs. Tensor is tp = N; Pipeline is pp = N with
 * @p num_micro_batches and @p schedule; Data is dp = N with
 * DdpOverlapConfig{bucketBytes = +inf, overlapEfficiency = 0} — one
 * unbucketed gradient all-reduce exposed after backward, whose memory
 * screen is graph::modelMemoryBytes() at the per-GPU batch. Only the
 * pipeline is micro-batched: Data and Tensor ignore the last two
 * arguments and run one micro-batch.
 *
 * Priced by hybridTrainingMs(), the presets give the single-axis
 * formulas of Section 5.1: the TP graph's compute plus its
 * all-reduces; the local training graph at batch B/N plus one
 * all-reduce of every gradient; and the pipeline's
 * sum + (m - 1) * max over the stage prices, evaluated as
 * m * max + (sum - max) (equal up to one ulp).
 */
HybridConfig singleAxisConfig(Parallelism strategy, int num_gpus,
                              int num_micro_batches = 1,
                              PipelineSchedule schedule =
                                  PipelineSchedule::GPipe);

/**
 * Kernel graph of pipeline stage @p stage of @p num_stages with every
 * layer sharded at @p tp_degree: graph::buildLayerRangeGraph over the
 * stage's near-even layer range, embedding prologue on the first stage,
 * head epilogue on the last. With one stage this is exactly
 * buildTensorParallelGraph().
 */
graph::KernelGraph
buildHybridStageGraph(const graph::ModelConfig &config,
                      uint64_t micro_batch, int tp_degree, int stage,
                      int num_stages, bool training = true,
                      gpusim::DataType dtype = gpusim::DataType::Fp32);

/**
 * Trainable parameters resident on one GPU of the (stage, tp-rank)
 * grid: the stage's block parameters shard by @p tp_degree; embedding
 * (first stage) and head (last stage) replicate across TP ranks. DP
 * replicates whole grids, so the per-GPU count is independent of the DP
 * degree. Summing tp * count over the stages recovers the model's total
 * parameter count plus (tp - 1) extra copies of the replicated tensors.
 */
double hybridStageParameterCount(const graph::ModelConfig &config,
                                 int stage, int pp_degree, int tp_degree);

/**
 * Peak resident bytes on one GPU of stage @p stage under @p hybrid at
 * per-replica micro-batch size @p micro_batch: optimizer state for the
 * stage's TP-sharded parameters, the schedule's activation stash
 * (GPipe: all M micro-batches; 1F1B: min(M, stages); interleaved:
 * larger than 1F1B by the virtual-stage factor, never beyond M), and
 * two DDP bucket buffers when dp > 1 and the all-reduce overlaps
 * backward (overlapEfficiency > 0). Recomputation shrinks the per-layer
 * stash to the layer-input checkpoint.
 */
double hybridStageMemoryBytes(const graph::ModelConfig &config,
                              uint64_t micro_batch, int stage,
                              const HybridConfig &hybrid);

/**
 * Structural preconditions of running @p config at @p global_batch on
 * @p server under @p hybrid: degrees multiply to the GPU count, TP
 * divides the model widths, stages fit the layers (times the virtual
 * factor when interleaved), and the batch splits evenly into replicas
 * and micro-batches. Empty string when valid, else the reason. The
 * forecast entry point aborts on the same conditions.
 */
std::string validateHybrid(const graph::ModelConfig &config,
                           const ServerConfig &server,
                           uint64_t global_batch,
                           const HybridConfig &hybrid);

/**
 * validateHybrid() for a singleAxisConfig() preset, which additionally
 * rejects the interleaved and zero-bubble schedules: the single-axis
 * pipeline is GPipe or plain 1F1B, and the other two are asked for
 * through a hybrid forecast or the simulator.
 */
std::string validateStrategy(const graph::ModelConfig &config,
                             const ServerConfig &server,
                             uint64_t global_batch,
                             const HybridConfig &preset);

/**
 * Thread-safe memo of priced pipeline-stage graphs, shared across the
 * forecasts of one strategy sweep. A stage's predicted latency (compute
 * plus its TP collectives) depends only on (tp, stages, stage index,
 * micro-batch size, training-vs-forward) — not on the DP degree, the
 * schedule, or the recompute flag — so the dozens of sweep points that
 * share a (tp, pp) split re-price the same handful of graphs. One memo
 * is valid for a single (predictor, collective model, server, model
 * config) tuple; sweepStrategies() owns one internally.
 */
class StagePriceMemo
{
  public:
    /** Price of one stage graph. */
    struct Price
    {
        /** Predicted compute + TP-collective latency, milliseconds. */
        double totalMs = 0.0;
        /** TP-collective payload bytes of the graph. */
        double commBytes = 0.0;
    };

    /**
     * The price of @p key: the memoized one, or the result of
     * @p price() run by the first caller to miss. The memo is
     * single-flight: a caller that finds @p key being priced by
     * another thread waits for that result instead of pricing it
     * again, so each key is priced once. If @p price throws, the key
     * is released (a waiter then prices it) and the exception
     * propagates.
     */
    Price getOrPrice(const std::string &key,
                     const std::function<Price()> &price);

    /** Lookups served from the memo, including those that waited. */
    uint64_t hits() const;

    /** Lookups that had to price a graph. */
    uint64_t misses() const;

    /** Keys priced and stored. */
    size_t size() const;

  private:
    struct Entry
    {
        Price price;
        /** False while the claiming thread is still pricing. */
        bool ready = false;
    };

    mutable std::mutex mutex;
    std::condition_variable priced;
    std::unordered_map<std::string, Entry> entries;
    uint64_t hitCount = 0;
    uint64_t missCount = 0;
};

/**
 * Forecast one training iteration of @p config at @p global_batch on
 * @p server under the composed strategy @p hybrid: per-GPU stage
 * latency through @p predictor (TP collectives priced per micro-batch),
 * the pipeline bubble of the schedule, boundary send-recvs, and the DP
 * gradient all-reduce overlapped bucket-by-bucket against the last
 * micro-batch's backward pass — with the per-stage OOM screen of
 * hybridStageMemoryBytes(). The singleAxisConfig() presets price the
 * Table-8 strategies through this same entry point.
 * With @p memo, stage-graph prices are read from (and inserted into)
 * the memo instead of re-predicted — the cross-point reuse of the
 * strategy sweep.
 */
HybridResult
hybridTrainingMs(const graph::LatencyPredictor &predictor,
                 const CollectiveModel &comms, const ServerConfig &server,
                 const graph::ModelConfig &config, uint64_t global_batch,
                 const HybridConfig &hybrid,
                 StagePriceMemo *memo = nullptr);

/**
 * Per-stage price vectors of one hybrid configuration at micro-batch
 * size @p micro_batch: exactly the numbers hybridTrainingMs() folds
 * into its latency formula, exposed so alternative schedule pricers
 * (the discrete-event simulator) work from bit-identical stage costs.
 * replayMs/replayCommBytes are zero-filled unless
 * @p hybrid.recomputeActivations.
 */
struct HybridStagePrices
{
    /** Predicted stage latency incl. TP collectives, per stage. */
    std::vector<double> trainMs;
    /** Forward-replay latency of activation recomputation, per stage. */
    std::vector<double> replayMs;
    /** TP-collective payload of the training graph, per stage. */
    std::vector<double> trainCommBytes;
    /** TP-collective payload of the replay graph, per stage. */
    std::vector<double> replayCommBytes;
};

HybridStagePrices
hybridStagePrices(const graph::LatencyPredictor &predictor,
                  const CollectiveModel &comms, const ServerConfig &server,
                  const graph::ModelConfig &config, uint64_t micro_batch,
                  const HybridConfig &hybrid,
                  StagePriceMemo *memo = nullptr);

/** Cost split of a bucketed DDP gradient all-reduce. */
struct DdpAllReduceCost
{
    /** Sum over every bucket. */
    double totalMs = 0.0;
    /** The trailing bucket, which can never hide under backward. */
    double lastBucketMs = 0.0;
};

/**
 * Bucketed ring all-reduce of @p bytes across @p group peers — the DDP
 * cost model hybridTrainingMs() overlaps against the backward window,
 * exposed for the simulator's collective tasks.
 */
DdpAllReduceCost
ddpAllReduceCost(const CollectiveModel &comms, double bytes,
                 double bucket_bytes, int group, double link_gbps);

/** Which forecaster priced a sweep entry. */
enum class SweepEngine
{
    /** The algebraic pipeline model (hybridTrainingMs). */
    ClosedForm,
    /** The discrete-event simulator (sim::simulateHybrid). */
    Simulator,
};

/** Wire/JSON name: "closed_form" or "sim". */
const char *sweepEngineName(SweepEngine engine);

/** Search space and execution policy of sweepStrategies(). */
struct SweepOptions
{
    /** Micro-batch counts to try for pipelined strategies. */
    std::vector<int> microBatchCandidates = {1, 2, 4, 8, 16, 32};
    /** Also try each configuration with activation recomputation. */
    bool tryRecompute = true;
    /** Include the interleaved schedule (when stages permit). */
    bool tryInterleaved = true;
    /** Virtual stages per GPU for interleaved candidates. */
    int virtualStagesPerGpu = 2;
    DdpOverlapConfig ddp;

    /**
     * Evaluate every runnable grid point, disabling branch-and-bound
     * pruning — the escape hatch for auditing the full space (it is
     * what `neusight-distributed --sweep --exhaustive` sets). The
     * pruned default returns the identical winner and the identical
     * top-@ref keepTop ranking prefix, just without the entries that
     * provably cannot reach that prefix.
     */
    bool exhaustive = false;

    /**
     * Depth of the ranking prefix the pruned sweep preserves exactly: a
     * factorization is pruned only when its lower bound exceeds the
     * keepTop-th best latency found so far, so any pruned point is
     * strictly slower than keepTop surviving plans.
     */
    int keepTop = 10;

    /**
     * Safety slack on the branch-and-bound cut: prune only when the
     * bound exceeds the threshold by this fraction. The compute bound
     * assumes stage latency is subadditive in the micro-batch size
     * (splitting a batch never makes the total cheaper), which the
     * learned predictor honors almost everywhere; the slack absorbs
     * the residual nonlinearity.
     */
    double boundSlack = 0.05;

    /**
     * Never prune the pure-TP / pure-PP / pure-DP factorizations, so
     * the ranked result always carries the single-axis baselines that
     * bestSingleAxisEntry() and the Table-8 benches compare against.
     */
    bool keepSingleAxisBaselines = true;

    /**
     * Worker threads evaluating surviving grid points (0 = one per
     * hardware thread, 1 = serial). The predictor must be safe for
     * concurrent const use — trained NeuSight and the simulator oracle
     * both are.
     */
    int threads = 0;

    /** Share priced stage graphs across sweep points (StagePriceMemo). */
    bool reuseStagePrices = true;

    /**
     * Registry receiving the sweep.* counters (factorizations, prune
     * and memo accounting — the same values SweepStats reports),
     * incremented once at the end of each sweepStrategies() call.
     * Null disables registry reporting; the ForecastEngine passes its
     * own registry here.
     */
    std::shared_ptr<obs::MetricsRegistry> metrics;

    /**
     * Alternative point pricer: when set, every surviving grid point is
     * evaluated through this callable instead of hybridTrainingMs()
     * (the simulator's sweep arm installs sim::simulateHybrid here via
     * sim::simulatorSweepOptions). The branch-and-bound cuts stay sound
     * for any pricer that never beats m x (slowest stage) — true of the
     * simulator, whose bottleneck GPU is busy at least that long. The
     * memo argument is the sweep's shared StagePriceMemo (may be null).
     */
    std::function<HybridResult(const HybridConfig &, StagePriceMemo *)>
        pointEvaluator;

    /**
     * Add zero-bubble candidates to pipelined factorizations. Honored
     * only alongside a @ref pointEvaluator that can price them — the
     * closed-form default cannot, and ignores this flag.
     */
    bool includeZeroBubble = false;
};

/** One surviving point of the strategy sweep. */
struct SweepEntry
{
    HybridConfig config;
    HybridResult result;
    /** Which forecaster produced @ref result. */
    SweepEngine engine = SweepEngine::ClosedForm;
};

/** Work accounting of one sweepStrategies() call. */
struct SweepStats
{
    /** (tp, pp, dp) factorizations of the GPU count. */
    size_t factorizations = 0;
    /** Factorizations whose whole grid the bound eliminated. */
    size_t prunedFactorizations = 0;
    /** Micro-batch rows the per-m bound eliminated inside survivors. */
    size_t prunedMicroRows = 0;
    /** Grid points priced through hybridTrainingMs. */
    size_t evaluatedPoints = 0;
    /** Valid grid points skipped by either pruning level. */
    size_t skippedPoints = 0;
    /** Stage-graph prices served from the cross-point memo. */
    uint64_t stagePriceHits = 0;
    /** Stage-graph prices computed through the predictor. */
    uint64_t stagePriceMisses = 0;
};

/**
 * Strategy search: every (tp, pp, dp) factorization of the server's
 * GPU count, crossed with the micro-batch counts, schedules, and
 * recomputation settings of @p options, screened through
 * validateHybrid() and the OOM check, and ranked by forecast iteration
 * time (ties broken toward simpler configurations). Entries that fail
 * validation or do not fit are dropped — the returned list contains
 * only runnable configurations, fastest first. Micro-batching is swept
 * for non-pipelined splits too (gradient accumulation: the in-flight
 * stash shrinks m-fold, which can admit plans the full batch cannot
 * fit), with the schedule pinned to 1F1B since GPipe-vs-1F1B only
 * distinguishes pipeline stash behaviour.
 *
 * By default the search is branch-and-bound with two cut levels. Per
 * (tp, pp, dp) factorization: a compute-plus-TP-collective lower bound
 * — the full per-replica batch through the whole TP-sharded model,
 * divided by the stage count, which no micro-batch count, schedule, or
 * recompute setting can beat — skips whole grids (bounds are processed
 * most-promising first). Inside surviving grids, each micro-batch row
 * gets the tighter bound m x price(model at the row's micro size) / pp:
 * the iteration runs the slowest stage m times and the stage graphs
 * partition the model's nodes exactly, so the bound holds by
 * arithmetic alone — this is the cut that bites on deep micro-batch
 * grids, where wave quantization makes small micro-batches expensive.
 * Both levels prune against the keepTop-th best latency found so far.
 * Surviving points evaluate on a thread pool with stage-graph prices
 * shared through a StagePriceMemo. Set options.exhaustive to audit the
 * full space; @p stats, when given, reports how much work the bounds
 * and the memo saved.
 */
std::vector<SweepEntry>
sweepStrategies(const graph::LatencyPredictor &predictor,
                const CollectiveModel &comms, const ServerConfig &server,
                const graph::ModelConfig &config, uint64_t global_batch,
                const SweepOptions &options = SweepOptions{},
                SweepStats *stats = nullptr);

/**
 * The fastest single-axis (pure TP, pure PP, or pure DP) entry of a
 * ranked sweep, or nullptr when every runnable plan is hybrid. The
 * pointer aliases @p entries.
 */
const SweepEntry *
bestSingleAxisEntry(const std::vector<SweepEntry> &entries);

/** The Table-9 cluster hierarchy: TP inside a node, DP across nodes. */
struct MultiNodeConfig
{
    int gpusPerNode = 8;
    /** Tensor-parallel degree inside each node (must divide the heads). */
    int tpDegree = 8;
    uint64_t perNodeBatch = 8;
    /** Inter-node fabric bandwidth per node in Gbit/s (InfiniBand). */
    double interNodeGbps = 100.0;
    /**
     * Fat-tree contention: the achievable fraction of the fabric starts
     * at 1 on one node and collapses quadratically past the
     * @p fabricSaturationNodes knee toward @p fabricFloorFraction — the
     * Table-9 shape of one large jump to cluster scale followed by a
     * nearly flat tail. The defaults are calibrated so the GPT-3
     * forecast of bench/table09_multinode.cpp reproduces the paper's
     * published ~12 s plateau (12028 / 12136 / 12565 ms at 384 / 768 /
     * 3840 nodes) on 8 x H100 nodes over 100 Gbps InfiniBand.
     */
    double fabricFloorFraction = 0.023;
    double fabricSaturationNodes = 3.0;

    /** Achievable fraction of the nominal fabric bandwidth at @p nodes. */
    double fabricEfficiency(int nodes) const;
};

/**
 * Forecast one training iteration on @p num_nodes nodes of
 * @p cfg.gpusPerNode x @p gpu: tensor parallelism over the intra-node
 * link, data parallelism over the inter-node fabric (gradients already
 * sharded by TP), per-node batch @p cfg.perNodeBatch.
 */
double
multiNodeIterationMs(const graph::LatencyPredictor &predictor,
                     const CollectiveModel &comms,
                     const graph::ModelConfig &config,
                     const gpusim::GpuSpec &gpu, int num_nodes,
                     const MultiNodeConfig &cfg);

} // namespace neusight::dist

#endif // NEUSIGHT_DIST_PARALLEL_HPP
