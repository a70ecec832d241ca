/**
 * @file
 * Typed forecast requests and structured results for the serving layer.
 * A request names a workload (inference prefill, decode step, training
 * iteration, or a distributed training iteration) plus the target GPU;
 * the result carries the forecast, per-request service latency, and the
 * cache statistics observed at completion. Requests have a canonical
 * fingerprint so the server can coalesce identical in-flight work.
 */

#ifndef NEUSIGHT_SERVE_REQUEST_HPP
#define NEUSIGHT_SERVE_REQUEST_HPP

#include <cstdint>
#include <string>

#include "dist/parallel.hpp"
#include "gpusim/gpu_spec.hpp"
#include "gpusim/kernel_desc.hpp"
#include "serve/prediction_cache.hpp"

namespace neusight::serve {

/** The forecast families a ForecastEngine / ForecastServer accepts. */
enum class RequestKind
{
    /** Inference forward pass (the paper's first-token prefill metric). */
    Inference,
    /** One autoregressive decode step against a KV cache. */
    DecodeStep,
    /** One single-GPU training iteration (forward + backward). */
    Training,
    /** One distributed training iteration on a multi-GPU server. */
    Distributed,
    /** One composed TP x PP x DP training iteration (Section 5.1). */
    Hybrid,
    /**
     * Discrete-event simulation of a hybrid training iteration
     * (sim::simulateHybrid): prices the zero-bubble schedule and
     * deterministic jitter the closed-form Hybrid kind cannot.
     */
    Simulate,
    /** Strategy sweep: answer with the fastest runnable hybrid plan. */
    HybridSweep,
    /** Metrics-registry snapshot (the "stats" wire op); no forecast. */
    Stats,
    /**
     * Liveness probe (the "ping" wire op): answered inline by the
     * socket layer without touching the engine queue, so it proves the
     * event loop is alive even when every worker thread is busy. The
     * shard router heartbeats its workers with it.
     */
    Ping,
};

/** Display name, e.g. "inference". */
const char *requestKindName(RequestKind kind);

/**
 * Queue class of a request ("priority" on the wire). High-priority
 * requests drain before normal ones; admission control and
 * backpressure are identical for both, and coalescing ignores the
 * class entirely (the forecast is the same either way).
 */
enum class RequestPriority
{
    Normal,
    High,
};

/** One forecast request. */
struct ForecastRequest
{
    RequestKind kind = RequestKind::Inference;
    /** Table-5 model name (resolved through graph::findModel). */
    std::string model = "GPT2-Large";
    /** Batch size (per-GPU for single-device kinds). */
    uint64_t batch = 1;
    /** KV-cache length for DecodeStep. */
    uint64_t pastLen = 0;
    /** Fully resolved target GPU (database entry or JSON-defined). */
    gpusim::GpuSpec gpu;
    gpusim::DataType dtype = gpusim::DataType::Fp32;

    /// @name Multi-GPU fields (Distributed / Hybrid / HybridSweep).
    /// @{
    int numGpus = 4;
    /** Global batch across the server. */
    uint64_t globalBatch = 4;
    /** Table-8 strategy of a Distributed request. */
    dist::Parallelism strategy = dist::Parallelism::Data;
    /**
     * Composed TP x PP x DP strategy of a Hybrid / Simulate request. A
     * Distributed request uses only its numMicroBatches and schedule,
     * which dist::singleAxisConfig() applies to a pipeline strategy.
     */
    dist::HybridConfig hybrid;
    /** Peak GPU-to-GPU bandwidth GB/s; 0 = the GPU spec's value. */
    double linkGBps = 0.0;
    /** Simulate kind: per-task compute jitter fraction (>= 0). */
    double jitterFraction = 0.0;
    /** Simulate kind: seed of the deterministic jitter stream. */
    uint64_t simSeed = 0;
    /// @}

    /**
     * Registry name of the predictor backend answering this request
     * (api::PredictorRegistry); empty selects the engine's default, so
     * one server can answer heterogeneous predictors side by side.
     * Part of the fingerprint: different backends never coalesce.
     */
    std::string backend;

    /**
     * Queue class; excluded from the fingerprint (a high and a normal
     * request for the same forecast coalesce — whoever queued first
     * determines the position).
     */
    RequestPriority priority = RequestPriority::Normal;

    /** Client-supplied id echoed in the response (never coalesced on). */
    std::string tag;

    /**
     * Per-request deadline in milliseconds ("timeout_ms" on the wire);
     * 0 defers to the server's --request-timeout default. Enforced by
     * the socket layer (the request is answered with a typed "timeout"
     * error once expired), and deliberately excluded from the
     * fingerprint: the forecast itself is deadline-independent, so
     * requests differing only in timeout still coalesce.
     */
    uint64_t timeoutMs = 0;

    /**
     * Canonical identity of the forecast this request asks for: two
     * requests with equal fingerprints are guaranteed equal results, so
     * the server answers both with one computation. The tag is excluded.
     */
    std::string fingerprint() const;
};

/** Structured outcome of one request. */
struct ForecastResult
{
    /** Echoed request tag. */
    std::string tag;
    /** False when the request was rejected or failed; see error. */
    bool ok = true;
    std::string error;
    /**
     * Machine-readable failure class ("code" on the wire): "timeout",
     * "overload", "unavailable", "draining", or empty for errors that
     * predate the vocabulary (parse failures, engine exceptions).
     * Clients branch on this instead of string-matching error text.
     */
    std::string errorCode;

    /** The forecast. */
    double latencyMs = 0.0;
    /** Distributed OOM screening verdict. */
    bool oom = false;
    /**
     * Composed strategy of the answer, e.g. "tp2 x pp2 x dp2": the
     * requested plan for Hybrid, the sweep winner for HybridSweep.
     */
    std::string strategy;
    /** Priced communication payload (distributed kinds). */
    double commBytes = 0.0;
    /** Pipeline fill/drain bubble (Hybrid / Simulate kinds). */
    double bubbleMs = 0.0;
    /** Exposed DP all-reduce tail (Hybrid / Simulate kinds). */
    double exposedDdpMs = 0.0;
    /** Compute nodes in the forecasted graph. */
    size_t kernelCount = 0;

    /** Wall-clock service time in the worker, microseconds. */
    double serviceMicros = 0.0;
    /** True when answered by piggybacking on an identical request. */
    bool coalesced = false;
    /** Server-wide cache counters observed at completion. */
    CacheStats cache;
    /**
     * Serialized JSON payload of non-forecast kinds (the Stats kind's
     * registry snapshot); empty for forecasts. Wire responses embed it
     * as a JSON object instead of the latency fields.
     */
    std::string payload;
};

} // namespace neusight::serve

#endif // NEUSIGHT_SERVE_REQUEST_HPP
