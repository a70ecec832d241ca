#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"

namespace neusight::sim {

namespace {

using dist::HybridConfig;
using dist::PipelineSchedule;

/**
 * Stateless SplitMix64 hash of (seed, index) to a uniform double in
 * [0, 1). Keyed on the task index — not on execution order — so the
 * same seed perturbs the same task identically regardless of how the
 * schedule around it shifts, and jitter scales monotonically in the
 * fraction.
 */
double
unitHash(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/**
 * Everything the schedule lowering needs, already priced: per-physical-
 * stage compute times (the exact dist::hybridStagePrices numbers),
 * boundary transfer cost, and the DP reducers' exposure durations.
 */
struct LowerSpec
{
    int numStages = 1;    // physical pipeline stages (one GPU each)
    int virtualPerGpu = 1; // interleaving chunks per GPU
    int numMicro = 1;
    PipelineSchedule schedule = PipelineSchedule::OneFOneB;
    /** Full fwd+bwd stage compute per micro-batch, excl. replay. */
    std::vector<double> trainMs;
    /** Forward-replay compute per micro-batch (recompute), else 0. */
    std::vector<double> replayMs;
    /** One stage-boundary activation/gradient transfer. */
    double boundaryMs = 0.0;
    /** Per-stage DP all-reduce exposure; empty disables DP tasks. */
    std::vector<double> ddpExposedMs;
    bool sharedFabric = false;
};

/** Dispatch key: class rank, then warmup group, then chunk, then micro. */
uint64_t
priorityKey(uint64_t cls, uint64_t group, uint64_t chunk, uint64_t micro)
{
    return (cls << 56) | (group << 32) | (chunk << 24) | micro;
}

struct Lowered
{
    ScheduleProgram program;
    std::vector<double> baseMs;
};

/**
 * Lower a schedule into a task DAG. Virtual stage `vs` of V = S * v
 * lives on GPU vs % S as chunk vs / S (the Megatron placement); its
 * compute chunks cost 1/v of the GPU's stage time, split 1/3 forward,
 * 2/3 backward (recompute replay rides with the backward). The
 * schedule itself is expressed purely through dispatch priorities:
 * GPipe runs forwards before backwards; 1F1B-family schedules run
 * ready backwards first, which makes the 1F1B steady state emerge from
 * the greedy engine; zero-bubble splits the backward into a B pass
 * (input gradients — on the inter-stage critical path) and a lowest-
 * priority W pass (weight gradients) that fills drain-bubble idle.
 */
Lowered
lower(const LowerSpec &spec)
{
    const int S = spec.numStages;
    const int v = spec.virtualPerGpu;
    const int m = spec.numMicro;
    const int V = S * v;
    const bool zb = spec.schedule == PipelineSchedule::ZeroBubble;
    const bool gpipe = spec.schedule == PipelineSchedule::GPipe;
    const uint64_t fwd_cls = gpipe ? 0 : 1;
    const uint64_t bwd_cls = gpipe ? 1 : 0;
    const uint64_t wgt_cls = 2;

    Lowered low;
    ScheduleProgram &p = low.program;
    p.numGpus = S;

    // One exclusive channel per (link, direction): forward activations
    // and backward gradients between the same GPUs do not contend
    // (full-duplex links), and distinct GPU pairs never share.
    std::map<std::tuple<int, int, int>, int> links;
    const auto channelFor = [&](int from, int to, bool backward) {
        const auto key = std::make_tuple(from, to, backward ? 1 : 0);
        const auto it = links.find(key);
        if (it != links.end())
            return it->second;
        const int c = p.addChannel(/*shared=*/false);
        links.emplace(key, c);
        return c;
    };

    const auto grid = [&](int vs, int k) { return vs * m + k; };
    std::vector<int> fwdId(static_cast<size_t>(V) * m, -1);
    std::vector<int> bwdId(static_cast<size_t>(V) * m, -1);
    std::vector<int> wgtId(zb ? static_cast<size_t>(V) * m : 0, -1);
    std::vector<int> xferFId(V > 1 ? static_cast<size_t>(V - 1) * m : 0,
                             -1);
    std::vector<int> xferBId(V > 1 ? static_cast<size_t>(V) * m : 0, -1);

    const auto addCompute = [&](TaskKind kind, uint64_t cls, int vs,
                                int k, double dur) {
        const int g = vs % S;
        const int chunk = vs / S;
        SimTask t;
        t.kind = kind;
        t.gpu = g;
        t.stage = g;
        t.chunk = chunk;
        t.micro = k;
        t.durationMs = dur;
        // Forwards climb the chunks, backwards drain them top-down;
        // the micro-batch group rotates every S micros (warmup depth).
        const uint64_t chunk_key =
            kind == TaskKind::Forward
                ? static_cast<uint64_t>(chunk)
                : static_cast<uint64_t>(v - 1 - chunk);
        t.priority = priorityKey(cls, static_cast<uint64_t>(k / S),
                                 chunk_key, static_cast<uint64_t>(k % S));
        return p.addTask(std::move(t));
    };

    const auto addTransfer = [&](int from_vs, int to_vs, bool backward,
                                 int k) {
        SimTask t;
        t.kind = TaskKind::Transfer;
        t.channel = channelFor(from_vs % S, to_vs % S, backward);
        t.stage = from_vs % S;
        t.chunk = from_vs / S;
        t.micro = k;
        t.durationMs = spec.boundaryMs;
        t.priority = (static_cast<uint64_t>(k) << 16) |
                     static_cast<uint64_t>(from_vs);
        return p.addTask(std::move(t));
    };

    for (int vs = 0; vs < V; ++vs) {
        const int g = vs % S;
        const double t_stage = spec.trainMs[g];
        const double r_stage =
            spec.replayMs.empty() ? 0.0 : spec.replayMs[g];
        const double vf = static_cast<double>(v);
        const double fwd_ms = t_stage / (3.0 * vf);
        // Recompute's forward replay runs right before the backward it
        // feeds, so it rides inside the backward task's duration.
        const double bwd_ms =
            zb ? (t_stage / 3.0 + r_stage) / vf
               : (t_stage * (2.0 / 3.0) + r_stage) / vf;
        const double wgt_ms = t_stage / (3.0 * vf);
        for (int k = 0; k < m; ++k) {
            fwdId[grid(vs, k)] =
                addCompute(TaskKind::Forward, fwd_cls, vs, k, fwd_ms);
            bwdId[grid(vs, k)] = addCompute(
                zb ? TaskKind::BackwardInput : TaskKind::Backward,
                bwd_cls, vs, k, bwd_ms);
            if (zb)
                wgtId[grid(vs, k)] = addCompute(TaskKind::BackwardWeight,
                                                wgt_cls, vs, k, wgt_ms);
        }
    }
    for (int vs = 0; vs + 1 < V; ++vs)
        for (int k = 0; k < m; ++k)
            xferFId[grid(vs, k)] = addTransfer(vs, vs + 1, false, k);
    for (int vs = 1; vs < V; ++vs)
        for (int k = 0; k < m; ++k)
            xferBId[grid(vs, k)] = addTransfer(vs, vs - 1, true, k);

    // Dependency wiring: forward chain up the virtual stages, the last
    // chunk's backward follows its forward, backward chain down, W
    // after its B.
    for (int vs = 0; vs < V; ++vs) {
        for (int k = 0; k < m; ++k) {
            const int f = fwdId[grid(vs, k)];
            const int b = bwdId[grid(vs, k)];
            if (vs > 0) {
                p.tasks[xferFId[grid(vs - 1, k)]].deps.push_back(
                    fwdId[grid(vs - 1, k)]);
                p.tasks[f].deps.push_back(xferFId[grid(vs - 1, k)]);
            }
            if (vs == V - 1) {
                p.tasks[b].deps.push_back(f);
            } else {
                p.tasks[xferBId[grid(vs + 1, k)]].deps.push_back(
                    bwdId[grid(vs + 1, k)]);
                p.tasks[b].deps.push_back(xferBId[grid(vs + 1, k)]);
                // A chunk backs up only what it forwarded.
                p.tasks[b].deps.push_back(f);
            }
            if (zb)
                p.tasks[wgtId[grid(vs, k)]].deps.push_back(b);
        }
    }

    // DP gradient reducers: barrier tasks that start once every compute
    // task has retired (the closed form overlaps their buckets against
    // the backward window analytically — the task duration here is the
    // exposed remainder, so dedicated links reproduce it exactly). A
    // shared fabric instead multiplexes every stage's reducer through
    // one processor-sharing channel.
    if (!spec.ddpExposedMs.empty()) {
        std::vector<int> all_compute;
        all_compute.reserve(p.tasks.size());
        for (size_t i = 0; i < p.tasks.size(); ++i)
            if (p.tasks[i].gpu >= 0)
                all_compute.push_back(static_cast<int>(i));
        const int shared_channel =
            spec.sharedFabric ? p.addChannel(/*shared=*/true) : -1;
        for (int s = 0; s < S; ++s) {
            SimTask t;
            t.kind = TaskKind::AllReduce;
            t.channel = spec.sharedFabric
                            ? shared_channel
                            : p.addChannel(/*shared=*/false);
            t.stage = s;
            t.durationMs = spec.ddpExposedMs[s];
            t.priority = static_cast<uint64_t>(s);
            t.deps = all_compute;
            p.addTask(std::move(t));
        }
    }

    low.baseMs.reserve(p.tasks.size());
    for (const SimTask &t : p.tasks)
        low.baseMs.push_back(t.durationMs);
    return low;
}

struct ExecOutcome
{
    RunResult run;
    std::vector<double> durations;
};

/**
 * Two-pass execution. Pass 1 runs the greedy engine on base durations —
 * the planned schedule. Under perturbation, pass 2 replays that
 * recorded dispatch order with stretched durations by chaining each
 * resource's queue (chainProgram): the makespan becomes the longest
 * path through a fixed DAG, so it is monotone in every duration — more
 * jitter can never finish earlier — and zero perturbation reproduces
 * pass 1 exactly (pass 2 is skipped). This models synchronous training
 * faithfully: the schedule is decided ahead of time, stragglers stall
 * it rather than re-plan it.
 */
ExecOutcome
execute(const Lowered &low, const SimOptions &options)
{
    const RunResult plan = runProgram(low.program, low.baseMs);
    const bool straggling =
        options.stragglerStage >= 0 && options.stragglerFactor != 1.0;
    if (options.jitterFraction <= 0.0 && !straggling)
        return {plan, low.baseMs};

    std::vector<double> stretched = low.baseMs;
    for (size_t i = 0; i < low.program.tasks.size(); ++i) {
        if (!isComputeTask(low.program.tasks[i].kind))
            continue;
        if (straggling &&
            low.program.tasks[i].stage == options.stragglerStage)
            stretched[i] *= options.stragglerFactor;
        if (options.jitterFraction > 0.0)
            stretched[i] *=
                1.0 + options.jitterFraction * unitHash(options.seed, i);
    }
    const ScheduleProgram chained = chainProgram(low.program, plan);
    RunResult run = runProgram(chained, stretched);
    run.events += plan.events;
    return {run, std::move(stretched)};
}

/** Emit the executed timeline as Chrome trace spans (simulated time). */
void
emitTimeline(const ScheduleProgram &program, const RunResult &run,
             const std::vector<double> &durations)
{
    obs::Tracer &tracer = obs::Tracer::global();
    if (!tracer.enabled())
        return;
    for (size_t i = 0; i < program.tasks.size(); ++i) {
        const SimTask &t = program.tasks[i];
        std::string name = "sim.";
        if (t.gpu >= 0) {
            name += "gpu" + std::to_string(t.gpu) + '.';
            name += taskKindTag(t.kind);
            name += ".m" + std::to_string(t.micro);
            if (t.chunk > 0)
                name += ".c" + std::to_string(t.chunk);
        } else {
            name += taskKindTag(t.kind);
            name += ".s" + std::to_string(t.stage) + ".m" +
                    std::to_string(t.micro);
        }
        // Simulated milliseconds map to trace microseconds; one lane
        // per GPU, comm lanes after them.
        const int depth = t.gpu >= 0 ? t.gpu
                                     : program.numGpus + t.channel;
        tracer.add(std::move(name), "sim", run.startMs[i] * 1000.0,
                   durations[i] * 1000.0, depth);
    }
}

} // namespace

SimResult
simulateHybrid(const graph::LatencyPredictor &predictor,
               const dist::CollectiveModel &comms,
               const dist::ServerConfig &server,
               const graph::ModelConfig &config, uint64_t global_batch,
               const dist::HybridConfig &hybrid, const SimOptions &options,
               dist::StagePriceMemo *memo)
{
    // Death-testable precondition, exactly like hybridTrainingMs:
    // callers with user-supplied configurations screen through
    // validateHybrid() first.
    const std::string reject =
        dist::validateHybrid(config, server, global_batch, hybrid);
    ensure(reject.empty(), "simulateHybrid: " + reject);
    if (options.jitterFraction < 0.0)
        fatal("simulateHybrid: jitter fraction must be >= 0");
    if (options.stragglerFactor <= 0.0)
        fatal("simulateHybrid: straggler factor must be positive");

    const gpusim::GpuSpec &gpu = server.resolvedGpu();
    const double link = server.effectiveLinkGBps();
    const int pp = hybrid.ppDegree;
    const uint64_t m = static_cast<uint64_t>(hybrid.numMicroBatches);
    const uint64_t micro =
        global_batch / (static_cast<uint64_t>(hybrid.dpDegree) * m);

    SimResult out;
    dist::HybridResult &result = out.hybrid;
    // The OOM screen is the closed form's — simulation changes when
    // work runs, not what fits.
    for (int s = 0; s < pp; ++s) {
        const double mem =
            dist::hybridStageMemoryBytes(config, micro, s, hybrid);
        result.memoryBytes = std::max(result.memoryBytes, mem);
        if (mem > gpu.memBytes())
            result.oom = true;
    }
    if (result.oom)
        return out;

    // Stage compute prices: bit-identical to the closed form's inputs.
    const dist::HybridStagePrices prices = dist::hybridStagePrices(
        predictor, comms, server, config, micro, hybrid, memo);
    std::vector<double> stage_ms(pp, 0.0);
    double tp_payload = 0.0;
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
    }
    result.recomputeMs = static_cast<double>(m) * recompute_ms;
    result.commBytes += static_cast<double>(m) * tp_payload;

    const int v =
        hybrid.schedule == PipelineSchedule::Interleaved1F1B
            ? hybrid.virtualStagesPerGpu
            : 1;
    LowerSpec spec;
    spec.numStages = pp;
    spec.virtualPerGpu = v;
    spec.numMicro = hybrid.numMicroBatches;
    spec.schedule = hybrid.schedule;
    spec.trainMs = prices.trainMs;
    if (hybrid.recomputeActivations)
        spec.replayMs = prices.replayMs;
    spec.sharedFabric = options.sharedFabric;

    if (pp > 1) {
        const double boundary_bytes =
            static_cast<double>(micro * config.seq * config.hidden) *
            static_cast<double>(
                gpusim::dtypeBytes(gpusim::DataType::Fp32));
        spec.boundaryMs = comms.sendRecvMs(boundary_bytes, link);
        const double crossings =
            static_cast<double>(m) * static_cast<double>(pp * v - 1) *
            2.0;
        result.commBytes += crossings * boundary_bytes;
    }

    if (hybrid.dpDegree > 1) {
        spec.ddpExposedMs.assign(pp, 0.0);
        double payload = 0.0;
        for (int s = 0; s < pp; ++s) {
            const double grad_bytes =
                dist::hybridStageParameterCount(config, s, pp,
                                                hybrid.tpDegree) *
                4.0;
            payload += grad_bytes;
            const dist::DdpAllReduceCost cost = dist::ddpAllReduceCost(
                comms, grad_bytes, hybrid.ddp.bucketBytes,
                hybrid.dpDegree, link);
            const double window = hybrid.ddp.overlapEfficiency *
                                  (2.0 / 3.0) * stage_ms[s];
            spec.ddpExposedMs[s] =
                cost.lastBucketMs +
                std::max(0.0,
                         cost.totalMs - cost.lastBucketMs - window);
        }
        result.commBytes += payload;
    }

    const Lowered low = lower(spec);
    const ExecOutcome exec = execute(low, options);
    if (options.emitTrace)
        emitTimeline(low.program, exec.run, exec.durations);

    result.latencyMs = exec.run.makespanMs;
    result.bubbleMs =
        std::max(0.0, exec.run.computeEndMs - exec.run.maxGpuBusyMs);
    result.exposedDdpMs =
        hybrid.dpDegree > 1
            ? std::max(0.0, exec.run.makespanMs - exec.run.computeEndMs)
            : 0.0;
    out.events = exec.run.events;
    out.tasks = low.program.tasks.size();
    return out;
}

dist::SweepOptions
simulatorSweepOptions(const graph::LatencyPredictor &predictor,
                      const dist::CollectiveModel &comms,
                      const dist::ServerConfig &server,
                      const graph::ModelConfig &config,
                      uint64_t global_batch, const dist::SweepOptions &base,
                      const SimOptions &sim)
{
    dist::SweepOptions options = base;
    options.includeZeroBubble = true;
    // std::function requires copyable captures: config and server ride
    // in shared_ptrs; predictor and comms stay caller-owned references.
    const auto model = std::make_shared<graph::ModelConfig>(config);
    const auto box = std::make_shared<dist::ServerConfig>(server);
    const graph::LatencyPredictor *pred = &predictor;
    const dist::CollectiveModel *collectives = &comms;
    options.pointEvaluator =
        [pred, collectives, box, model, global_batch,
         sim](const dist::HybridConfig &point,
              dist::StagePriceMemo *memo) -> dist::HybridResult {
        return simulateHybrid(*pred, *collectives, *box, *model,
                              global_batch, point, sim, memo)
            .hybrid;
    };
    return options;
}

} // namespace neusight::sim
