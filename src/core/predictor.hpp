/**
 * @file
 * The NeuSight predictor (the paper's primary contribution, Section 4):
 * per-operator-family MLPs predict tile-level *utilization* through the
 * law util = alpha - beta/numWaves (Eq. 7-8), bounded by a sigmoid; the
 * kernel latency follows from the per-SM roofline (Eq. 1) and the wave
 * arithmetic (Eq. 2-4). Kernel predictions aggregate over the dataflow
 * graph for per-GPU latency (Section 5).
 */

#ifndef NEUSIGHT_CORE_PREDICTOR_HPP
#define NEUSIGHT_CORE_PREDICTOR_HPP

#include <map>
#include <memory>
#include <string>

#include "core/kernel_cache.hpp"
#include "core/tile_db.hpp"
#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "graph/latency_predictor.hpp"
#include "nn/module.hpp"
#include "nn/scaler.hpp"
#include "nn/trainer.hpp"

namespace neusight::core {

/**
 * Canonical lookup name of a kernel: fused kernels match their first
 * operator ("add+layernorm" -> "add", Section 4.4) and backward kernels
 * match their forward family ("layernorm_bwd" -> "layernorm"), since the
 * library tiles them identically. Also the op-name canonicalization of
 * the serving layer's prediction-cache fingerprint.
 */
std::string canonicalOpName(const std::string &op_name);

/** Hyper-parameters of one utilization MLP and its training loop. */
struct PredictorConfig
{
    /**
     * MLP width / depth. The paper uses 8 hidden layers of 512 units;
     * the default here is the scaled CPU-friendly configuration
     * (DESIGN.md Section 4) — pass {512, 8} for paper fidelity.
     */
    size_t hiddenDim = 64;
    size_t hiddenLayers = 6;
    nn::TrainConfig train;
    uint64_t seed = 11;

    /// @name Ablation switches (DESIGN.md Section 7). Defaults = paper.
    /// @{
    /**
     * Bound (alpha, beta) with a sigmoid (Eq. 8). Disabling lets the MLP
     * emit arbitrary utilizations — the "no performance laws" ablation.
     */
    bool sigmoidBound = true;
    /**
     * Keep the -beta/numWaves term of Eq. 7. Disabling predicts a
     * constant per-kernel utilization — the "no occupancy ramp" ablation.
     */
    bool waveTerm = true;
    /**
     * Clamp standardized features to the range seen during training (the
     * input-side bound; see FeatureScaler::setClampToFitRange).
     */
    bool clampFeatures = true;
    /// @}

    PredictorConfig()
    {
        train.epochs = 60;
        train.batchSize = 64;
        train.lr = 1e-3;
        train.lrDecay = 0.98;
        train.weightDecay = 1e-5;
        train.loss = nn::LossKind::Smape;
        train.validationFraction = 0.15;
    }
};

/** Utilization floor: predictions clamp to [kMinUtil, 1]. */
inline constexpr double kMinUtil = 1e-3;

/** Per-kernel prediction breakdown (for tests, ablations and debugging). */
struct PredictionDetail
{
    std::vector<uint64_t> tileDims;
    uint64_t numTiles = 0;
    uint64_t numWaves = 0;
    double alpha = 0.0;
    double beta = 0.0;
    double utilization = 0.0;
    double rooflinePerSm = 0.0;
    double latencyMs = 0.0;
    /** True when the memory-bound fallback path produced the estimate. */
    bool memoryFallback = false;
};

/** One operator family's utilization predictor. */
class KernelPredictor
{
  public:
    /**
     * Numeric lane for the MLP forward pass. F64 runs the reference
     * double-precision kernels and stays bit-identical across releases;
     * F32 runs the fused single-precision SIMD lane
     * (nn::Mlp::inferRowsF32), which agrees with F64 to ~1e-6 relative
     * on (alpha, beta) and well within 1e-4 on predicted latency.
     */
    enum class Precision
    {
        F64,
        F32,
    };

    /** Construct an untrained predictor for @p type. */
    KernelPredictor(gpusim::OpType type, const PredictorConfig &config);

    /**
     * Train on measured launches (profiler tile metadata included in each
     * sample). Returns the loss history.
     */
    nn::TrainHistory train(const dataset::OperatorDataset &data);

    /**
     * Predict the latency of @p desc on @p gpu given the tile dims the
     * database matched (Eq. 1-8). Routes through predictBatch() with a
     * single row, so the two paths cannot diverge.
     */
    PredictionDetail predict(const gpusim::KernelDesc &desc,
                             const gpusim::GpuSpec &gpu,
                             const std::vector<uint64_t> &tile_dims) const;

    /**
     * Predict N kernels of this family in one pass: the feature matrix
     * is built, scaled, and pushed through the MLP as a single (N, F)
     * batch with the tape-free Mlp::inferRows, so the per-kernel cost
     * collapses to feature construction plus one row of a batched GEMM.
     * @p tile_dims holds one tile-dimension vector per kernel (the tile
     * database match). Results are bit-identical to calling predict()
     * per kernel.
     */
    std::vector<PredictionDetail>
    predictBatch(const std::vector<gpusim::KernelDesc> &descs,
                 const gpusim::GpuSpec &gpu,
                 const std::vector<std::vector<uint64_t>> &tile_dims) const;

    /** The operator family this predictor serves. */
    gpusim::OpType type() const { return opType; }

    /**
     * Select the numeric lane for predict/predictBatch. Switching to F32
     * snapshots the current MLP weights into float32 (and train/load
     * refresh the snapshot), so call it only while no predictions are in
     * flight — the same single-writer rule as NeuSight::attachCache.
     */
    void setPrecision(Precision precision);

    /** The active numeric lane (default F64). */
    Precision precision() const { return precision_; }

    /** Serialize MLP weights, scaler and utilization floor (binary). */
    void save(std::ostream &out) const;

    /** Restore state written by save(). */
    void load(std::istream &in);

    /**
     * Lowest utilization the prediction may emit. Training sets this from
     * the corpus: no kernel of this family ever ran below that fraction
     * of its roofline on any training GPU, so predictions clamp to the
     * observed operating range (with a 2x safety margin) — the output-
     * side analogue of the sigmoid bound, which keeps far-out-of-
     * distribution shapes from collapsing to near-zero utilization and
     * exploding the latency.
     */
    double utilizationFloor() const { return utilFloor; }

  private:
    gpusim::OpType opType;
    PredictorConfig config;
    std::unique_ptr<nn::Mlp> mlp;
    nn::FeatureScaler scaler;
    double utilFloor = kMinUtil;
    Precision precision_ = Precision::F64;
};

/** Parse "f64"/"f32" (tool --precision flags); anything else is fatal. */
KernelPredictor::Precision parsePrecision(const std::string &name);

/** Canonical spelling of a precision lane ("f64" / "f32"). */
const char *precisionName(KernelPredictor::Precision precision);

/** The full NeuSight framework: five predictors + tile database. */
class NeuSight : public graph::LatencyPredictor
{
  public:
    std::string name() const override { return "NeuSight"; }

    /** Construct untrained with the given per-predictor configuration. */
    explicit NeuSight(const PredictorConfig &config = PredictorConfig());

    /**
     * Train every operator-family predictor and populate the tile
     * database from the corpus' profiler metadata.
     */
    void train(const std::map<gpusim::OpType,
                              dataset::OperatorDataset> &corpus);

    /** Predict one kernel's latency on @p gpu in milliseconds. */
    double predictKernelMs(const gpusim::KernelDesc &desc,
                           const gpusim::GpuSpec &gpu) const override;

    /** Full breakdown for one kernel. */
    PredictionDetail predictKernelDetail(const gpusim::KernelDesc &desc,
                                         const gpusim::GpuSpec &gpu) const;

    /**
     * Attach a kernel-prediction cache: predictKernelDetail (and thus
     * every kernel/graph forecast) first consults the cache by canonical
     * (kernel, GPU) fingerprint and inserts on a miss, so graph
     * forecasts skip re-predicting repeated kernels. Pass nullptr to
     * detach.
     *
     * Thread-safety: once trained (or loaded), concurrent predict*()
     * calls are safe — the forward pass only reads parameters and the
     * tile database, and the cache must be internally synchronized
     * (see KernelPredictionCache). Attach or detach the cache, and run
     * train()/load(), only while no predictions are in flight.
     */
    void attachCache(std::shared_ptr<KernelPredictionCache> cache);

    /** The attached prediction cache, or nullptr. */
    const std::shared_ptr<KernelPredictionCache> &predictionCache() const
    {
        return cache_;
    }

    /**
     * Batched kernel prediction with graph-level dedup: the descriptors
     * group by canonical (kernel, GPU) fingerprint — transformer graphs
     * repeat the same few dozen shapes across every layer — each unique
     * fingerprint is resolved once (attached cache first, then one
     * predictBatch call per operator family for the misses, memory
     * fallback for families without a learned predictor), and the
     * per-descriptor latencies fan back out. Graph forecasts route
     * through this, so they pay one batched MLP pass per op family
     * instead of one taped forward per node. Thread-safe once trained
     * (see attachCache).
     */
    std::vector<double>
    predictKernelsMs(const std::vector<gpusim::KernelDesc> &descs,
                     const gpusim::GpuSpec &gpu) const override;

    /**
     * predictTableMs(compileGraph(g), gpu): the fingerprint dedup then
     * runs over the graph's unique kernels instead of every node. The
     * first occurrence of each canonical fingerprint is among the
     * unique kernels' first occurrences, in the same order, so the
     * per-family MLP batches and every forecast are unchanged.
     */
    double predictGraphMs(const graph::KernelGraph &g,
                          const gpusim::GpuSpec &gpu) const override;

    /**
     * Select the numeric lane of every operator-family predictor (see
     * KernelPredictor::setPrecision). Apply only while no predictions
     * are in flight. F64 (the default) keeps all forecasts bit-identical
     * to prior releases; F32 trades ≤1e-4 relative latency drift for the
     * vectorized single-precision MLP lane.
     */
    void setPrecision(KernelPredictor::Precision precision);

    /** The active numeric lane (default F64). */
    KernelPredictor::Precision precision() const { return precision_; }

    /** The tile database (populated by train / load). */
    const TileDatabase &tileDatabase() const { return tileDb; }

    /** Mutable access (tests inject synthetic records). */
    TileDatabase &tileDatabase() { return tileDb; }

    /** Persist the trained framework to @p path. */
    void save(const std::string &path) const;

    /** Load a framework persisted with save(). */
    void load(const std::string &path);

    /**
     * Cache helper used by benches: load @p path if present, otherwise
     * generate the Section-6.1 corpus on @p gpus, train, and save.
     */
    static NeuSight trainOrLoad(const std::string &path,
                                const std::vector<gpusim::GpuSpec> &gpus,
                                const dataset::SamplerConfig &sampler,
                                const PredictorConfig &config =
                                    PredictorConfig());

  private:
    PredictorConfig config;
    std::map<gpusim::OpType, std::unique_ptr<KernelPredictor>> predictors;
    TileDatabase tileDb;
    std::shared_ptr<KernelPredictionCache> cache_;
    KernelPredictor::Precision precision_ = KernelPredictor::Precision::F64;
};

} // namespace neusight::core

#endif // NEUSIGHT_CORE_PREDICTOR_HPP
