/**
 * @file
 * Discrete-event cluster simulator over the dist:: cost models: lowers
 * a HybridConfig into a ScheduleProgram of per-virtual-stage forward /
 * backward / transfer / all-reduce tasks and executes it on the event
 * engine. Stage compute prices come from dist::hybridStagePrices — the
 * exact numbers the closed form folds into its algebra — so GPipe,
 * 1F1B, and interleaved-1F1B reproduce hybridTrainingMs() within a
 * tight relative tolerance on bottleneck-last models (the golden-pin
 * parity anchor, enforced by sim_test and bench_sim_throughput).
 *
 * The Table-8 single-axis strategies are dist::singleAxisConfig()
 * presets, so a pure pipeline (pp = N, GPipe or 1F1B) is simulated by
 * simulateHybrid() on its preset, with the closed form's per-stage
 * memory screen.
 *
 * On top of that baseline the simulator prices what no closed form
 * can:
 *  - the zero-bubble schedule (backward split into an input-gradient
 *    pass B on the critical path and a weight-gradient pass W that
 *    fills the drain bubble),
 *  - seeded deterministic per-task jitter and per-stage stragglers
 *    (the same seed always yields the same timeline, and more jitter
 *    can never shorten it),
 *  - link contention: DP gradient reducers optionally share one
 *    fabric, stretching each other processor-sharing style instead of
 *    reducing on disjoint links.
 *
 * The event timeline can be emitted through obs::Tracer as Chrome
 * trace spans (one lane per GPU plus a comm lane) for Perfetto.
 */

#ifndef NEUSIGHT_SIM_SIMULATOR_HPP
#define NEUSIGHT_SIM_SIMULATOR_HPP

#include <cstdint>

#include "dist/parallel.hpp"

namespace neusight::sim {

/** Perturbations and execution knobs of one simulation. */
struct SimOptions
{
    /**
     * Multiplicative compute jitter: each compute task stretches by a
     * deterministic per-task factor in [1, 1 + jitterFraction), hashed
     * from @ref seed and the task index. Zero reproduces the
     * unperturbed schedule exactly.
     */
    double jitterFraction = 0.0;
    /** Seed of the jitter stream. */
    uint64_t seed = 0;
    /** Physical stage slowed by @ref stragglerFactor (-1: none). */
    int stragglerStage = -1;
    /** Duration multiplier of the straggler stage's compute (>= 1). */
    double stragglerFactor = 1.0;
    /**
     * Run every DP gradient all-reduce over one shared fabric instead
     * of per-stage disjoint links: concurrent reducers split the
     * bandwidth (processor sharing), so overlapping collectives
     * stretch each other.
     */
    bool sharedFabric = false;
    /**
     * Emit the task timeline into obs::Tracer::global() as Chrome
     * trace spans with simulated-time timestamps (no-op unless the
     * tracer is enabled).
     */
    bool emitTrace = false;
};

/** Outcome of one simulation. */
struct SimResult
{
    /**
     * The fields hybridTrainingMs() reports, measured off the event
     * timeline instead of computed in closed form: latencyMs is the
     * makespan, bubbleMs the bottleneck GPU's idle time before compute
     * ends, exposedDdpMs the tail after the last compute task.
     */
    dist::HybridResult hybrid;
    /** Events the engine processed (throughput accounting). */
    uint64_t events = 0;
    /** Tasks in the lowered program. */
    uint64_t tasks = 0;
};

/**
 * Simulate one training iteration of @p hybrid — the discrete-event
 * counterpart of dist::hybridTrainingMs(), and the only pricer of
 * PipelineSchedule::ZeroBubble. Aborts (death-testable) when
 * validateHybrid() rejects the configuration; screen user input first.
 * The OOM screen, comm-byte, memory, and recompute accounting mirror
 * the closed form exactly.
 */
SimResult
simulateHybrid(const graph::LatencyPredictor &predictor,
               const dist::CollectiveModel &comms,
               const dist::ServerConfig &server,
               const graph::ModelConfig &config, uint64_t global_batch,
               const dist::HybridConfig &hybrid,
               const SimOptions &options = SimOptions{},
               dist::StagePriceMemo *memo = nullptr);

/**
 * The sweep's simulator arm: @p base with a pointEvaluator installed
 * that prices every grid point through simulateHybrid() (zero-bubble
 * candidates included) — pass the result to dist::sweepStrategies().
 * @p predictor and @p comms are captured by reference and must outlive
 * the sweep; @p config and @p server are copied.
 */
dist::SweepOptions
simulatorSweepOptions(const graph::LatencyPredictor &predictor,
                      const dist::CollectiveModel &comms,
                      const dist::ServerConfig &server,
                      const graph::ModelConfig &config,
                      uint64_t global_batch,
                      const dist::SweepOptions &base = dist::SweepOptions{},
                      const SimOptions &sim = SimOptions{});

} // namespace neusight::sim

#endif // NEUSIGHT_SIM_SIMULATOR_HPP
