/**
 * @file
 * Tests for the discrete-event cluster simulator: event-queue
 * determinism, parity of the lowered GPipe / 1F1B / interleaved
 * schedules against the closed-form pipeline algebra (including the
 * golden regression pins), the perturbation model (zero jitter is
 * exact, more jitter is never faster, stragglers stretch the
 * timeline), the zero-bubble schedule's bubble advantage, and
 * shared-fabric contention.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dist/collective.hpp"
#include "dist/parallel.hpp"
#include "eval/oracle.hpp"
#include "graph/models.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace neusight::sim {
namespace {

using dist::HybridConfig;
using dist::PipelineSchedule;
using dist::ServerConfig;
using dist::SimCollectives;
using graph::ModelConfig;

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q;
    q.push(3.0, EventKind::TaskFinish, 0);
    q.push(1.0, EventKind::TaskFinish, 1);
    q.push(2.0, EventKind::TaskFinish, 2);
    EXPECT_EQ(q.pop().task, 1);
    EXPECT_EQ(q.pop().task, 2);
    EXPECT_DOUBLE_EQ(q.nowMs(), 2.0);
    EXPECT_EQ(q.pop().task, 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.popped(), 3u);
}

TEST(EventQueue, TiesBreakByPushOrder)
{
    // Simultaneous events pop in push order — the determinism anchor:
    // no dependence on heap internals or pointer values.
    EventQueue q;
    for (int i = 0; i < 64; ++i)
        q.push(5.0, EventKind::TaskFinish, i);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(q.pop().task, i);
}

TEST(Cluster, GreedyPicksLowestPriorityAndChainsReplay)
{
    // One GPU, two independent tasks: the lower priority key runs
    // first; chainProgram then freezes that order.
    ScheduleProgram p;
    p.numGpus = 1;
    SimTask a;
    a.gpu = 0;
    a.durationMs = 2.0;
    a.priority = 7;
    SimTask b = a;
    b.priority = 3;
    p.addTask(a);
    p.addTask(b);
    const RunResult run = runProgram(p, {2.0, 2.0});
    ASSERT_EQ(run.gpuOrder[0].size(), 2u);
    EXPECT_EQ(run.gpuOrder[0][0], 1); // b first: lower key
    EXPECT_DOUBLE_EQ(run.makespanMs, 4.0);

    const ScheduleProgram chained = chainProgram(p, run);
    // Stretch the winner: the replay keeps b -> a and stretches the
    // makespan monotonically.
    const RunResult replay = runProgram(chained, {2.0, 5.0});
    EXPECT_EQ(replay.gpuOrder[0][0], 1);
    EXPECT_DOUBLE_EQ(replay.makespanMs, 7.0);
}

TEST(Cluster, SharedChannelProcessorSharing)
{
    // Two equal transfers joining an empty shared link together take
    // twice their solo duration (each gets half the bandwidth).
    ScheduleProgram p;
    p.numGpus = 0;
    const int c = p.addChannel(/*shared=*/true);
    for (int i = 0; i < 2; ++i) {
        SimTask t;
        t.kind = TaskKind::AllReduce;
        t.channel = c;
        t.durationMs = 3.0;
        t.priority = static_cast<uint64_t>(i);
        p.addTask(t);
    }
    const RunResult run = runProgram(p, {3.0, 3.0});
    EXPECT_NEAR(run.makespanMs, 6.0, 1e-9);
    // An exclusive channel serializes instead: same total here, but a
    // staggered join differs. Solo on shared = solo duration.
    ScheduleProgram solo;
    solo.numGpus = 0;
    const int cs = solo.addChannel(/*shared=*/true);
    SimTask t;
    t.kind = TaskKind::AllReduce;
    t.channel = cs;
    t.durationMs = 3.0;
    solo.addTask(t);
    EXPECT_NEAR(runProgram(solo, {3.0}).makespanMs, 3.0, 1e-9);
}

/** Golden fixture: GPT2-Large on 8x A100-40GB (the dist_test pin). */
struct GoldenFixture
{
    eval::SimulatorOracle oracle;
    SimCollectives comms{"A100-NVLink"};
    ServerConfig server;
    const ModelConfig &model = graph::findModel("GPT2-Large");

    GoldenFixture()
    {
        server.systemName = "A100-NVLink";
        server.gpuName = "A100-40GB";
        server.numGpus = 8;
    }
};

double
relErr(double a, double b)
{
    return std::fabs(a - b) / std::max(std::fabs(b), 1e-12);
}

TEST(SimParity, GoldenPinTp2Pp2Dp2)
{
    // The simulator must land on the closed form's golden pins: GPT2-
    // Large, global batch 16, tp2 x pp2 x dp2, 4 micro-batches, 1F1B.
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 2;
    hy.ppDegree = 2;
    hy.dpDegree = 2;
    hy.numMicroBatches = 4;
    hy.schedule = PipelineSchedule::OneFOneB;
    const SimResult plain = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                           fx.model, 16, hy);
    hy.recomputeActivations = true;
    const SimResult rec = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                         fx.model, 16, hy);
    ASSERT_FALSE(plain.hybrid.oom);
    ASSERT_FALSE(rec.hybrid.oom);
    EXPECT_LT(relErr(plain.hybrid.latencyMs, 1474.292), 1e-3);
    EXPECT_LT(relErr(rec.hybrid.latencyMs, 1958.671), 1e-3);
}

TEST(SimParity, SchedulesMatchClosedFormWithinTolerance)
{
    // Every closed-form-priceable schedule, against hybridTrainingMs on
    // the same configuration: 0.1% relative. The non-latency accounting
    // (bytes, memory, recompute) must agree exactly — it is the same
    // arithmetic.
    GoldenFixture fx;
    const struct
    {
        PipelineSchedule schedule;
        int tp, pp, dp, m;
        bool recompute;
    } cases[] = {
        {PipelineSchedule::GPipe, 2, 2, 2, 4, false},
        {PipelineSchedule::OneFOneB, 2, 2, 2, 4, false},
        {PipelineSchedule::OneFOneB, 2, 2, 2, 4, true},
        {PipelineSchedule::OneFOneB, 1, 4, 2, 8, false},
        {PipelineSchedule::Interleaved1F1B, 2, 2, 2, 4, false},
        {PipelineSchedule::OneFOneB, 2, 1, 4, 1, false}, // no pipeline
        {PipelineSchedule::OneFOneB, 1, 1, 8, 1, false}, // pure DP
        {PipelineSchedule::OneFOneB, 4, 1, 2, 1, false}, // TP-heavy
    };
    for (const auto &c : cases) {
        HybridConfig hy;
        hy.tpDegree = c.tp;
        hy.ppDegree = c.pp;
        hy.dpDegree = c.dp;
        hy.numMicroBatches = c.m;
        hy.schedule = c.schedule;
        hy.recomputeActivations = c.recompute;
        SCOPED_TRACE(testing::Message()
                     << "tp" << c.tp << " pp" << c.pp << " dp" << c.dp
                     << " m" << c.m << " sch" << static_cast<int>(c.schedule)
                     << " rec" << c.recompute);
        const auto closed = hybridTrainingMs(fx.oracle, fx.comms,
                                             fx.server, fx.model, 16, hy);
        const SimResult sim = simulateHybrid(fx.oracle, fx.comms,
                                             fx.server, fx.model, 16, hy);
        ASSERT_FALSE(closed.oom);
        ASSERT_FALSE(sim.hybrid.oom);
        EXPECT_LT(relErr(sim.hybrid.latencyMs, closed.latencyMs), 1e-3);
        EXPECT_DOUBLE_EQ(sim.hybrid.commBytes, closed.commBytes);
        EXPECT_DOUBLE_EQ(sim.hybrid.memoryBytes, closed.memoryBytes);
        EXPECT_DOUBLE_EQ(sim.hybrid.recomputeMs, closed.recomputeMs);
    }
}

TEST(SimParity, DeepInterleavedBoundsTheClosedForm)
{
    // On deep interleaved pipelines the closed-form bubble
    // (sum - max) / v is a lower bound no greedy 1F1B executor fully
    // reaches: the last micro-batch's backward must traverse the other
    // GPUs' high chunks before the bottleneck GPU's final low-chunk
    // backward, and by then the GPU holds less deferred work than that
    // window — exposed drain the algebra does not see. Pin the sim
    // between the bound and a modest envelope so a lowering regression
    // in either direction fails loudly.
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 1;
    hy.ppDegree = 4;
    hy.dpDegree = 2;
    hy.numMicroBatches = 8;
    hy.schedule = PipelineSchedule::Interleaved1F1B;
    const auto closed = hybridTrainingMs(fx.oracle, fx.comms, fx.server,
                                         fx.model, 16, hy);
    const SimResult sim = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                         fx.model, 16, hy);
    ASSERT_FALSE(closed.oom);
    EXPECT_GE(sim.hybrid.latencyMs, closed.latencyMs * (1.0 - 1e-9));
    EXPECT_LE(sim.hybrid.latencyMs, closed.latencyMs * 1.06);
}

TEST(SimParity, PipelinePathMatchesClosedForm)
{
    // The Table-8 pipeline preset (pp = N) on the event engine against
    // the closed form. GPT2-Large's 36 layers split evenly 4 ways and
    // unevenly 8 ways (5,5,5,5,4,4,4,4): the memory screen must charge
    // each stage its real layer count in both. The closed form never
    // undercuts the timeline's makespan; its 1e-3 parity anchor holds
    // where the bottleneck stage is last (the even split, where the
    // head makes it so). With the five-layer bottleneck stages first,
    // the timeline lands ~0.3% under the closed form.
    GoldenFixture fx;
    for (int stages : {4, 8}) {
        fx.server.numGpus = stages;
        for (PipelineSchedule s :
             {PipelineSchedule::GPipe, PipelineSchedule::OneFOneB}) {
            const HybridConfig pipe = dist::singleAxisConfig(
                dist::Parallelism::Pipeline, stages, 8, s);
            const auto closed = hybridTrainingMs(fx.oracle, fx.comms,
                                                 fx.server, fx.model, 8,
                                                 pipe);
            const SimResult sim = simulateHybrid(fx.oracle, fx.comms,
                                                 fx.server, fx.model, 8,
                                                 pipe);
            SCOPED_TRACE(std::to_string(stages) + " stages, " +
                         dist::pipelineScheduleName(s));
            ASSERT_FALSE(closed.oom);
            EXPECT_LE(sim.hybrid.latencyMs,
                      closed.latencyMs * (1.0 + 1e-9));
            EXPECT_LT(relErr(sim.hybrid.latencyMs, closed.latencyMs),
                      stages == 4 ? 1e-3 : 5e-3);
            EXPECT_DOUBLE_EQ(sim.hybrid.commBytes, closed.commBytes);
            EXPECT_EQ(sim.hybrid.memoryBytes, closed.memoryBytes);
        }
    }
}

TEST(SimDeterminism, SameSeedSameTimeline)
{
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 1;
    hy.ppDegree = 4;
    hy.dpDegree = 2;
    hy.numMicroBatches = 8;
    hy.schedule = PipelineSchedule::OneFOneB;
    SimOptions opt;
    opt.jitterFraction = 0.2;
    opt.seed = 42;
    const SimResult a = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                       fx.model, 16, hy, opt);
    const SimResult b = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                       fx.model, 16, hy, opt);
    EXPECT_DOUBLE_EQ(a.hybrid.latencyMs, b.hybrid.latencyMs);
    EXPECT_EQ(a.events, b.events);

    // A different seed perturbs differently.
    opt.seed = 43;
    const SimResult c = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                       fx.model, 16, hy, opt);
    EXPECT_NE(a.hybrid.latencyMs, c.hybrid.latencyMs);
}

TEST(SimDeterminism, ZeroJitterIsTheUnperturbedSchedule)
{
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 2;
    hy.ppDegree = 2;
    hy.dpDegree = 2;
    hy.numMicroBatches = 4;
    hy.schedule = PipelineSchedule::OneFOneB;
    SimOptions zero;
    zero.jitterFraction = 0.0;
    zero.seed = 7; // seed is irrelevant at zero jitter
    const SimResult base = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                          fx.model, 16, hy);
    const SimResult jit = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                         fx.model, 16, hy, zero);
    EXPECT_DOUBLE_EQ(base.hybrid.latencyMs, jit.hybrid.latencyMs);
}

TEST(SimJitter, MoreJitterIsNeverFaster)
{
    // The pass-2 replay executes a fixed DAG, so the makespan is
    // monotone in the jitter fraction for any fixed seed.
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 1;
    hy.ppDegree = 4;
    hy.dpDegree = 2;
    hy.numMicroBatches = 8;
    hy.schedule = PipelineSchedule::OneFOneB;
    for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        double prev = 0.0;
        for (double frac : {0.0, 0.05, 0.1, 0.2, 0.4}) {
            SimOptions opt;
            opt.jitterFraction = frac;
            opt.seed = seed;
            const SimResult r = simulateHybrid(
                fx.oracle, fx.comms, fx.server, fx.model, 16, hy, opt);
            EXPECT_GE(r.hybrid.latencyMs, prev)
                << "seed " << seed << " frac " << frac;
            prev = r.hybrid.latencyMs;
        }
    }
}

TEST(SimStraggler, SlowStageStretchesTheWholePipeline)
{
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 1;
    hy.ppDegree = 4;
    hy.dpDegree = 2;
    hy.numMicroBatches = 8;
    hy.schedule = PipelineSchedule::OneFOneB;
    const SimResult base = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                          fx.model, 16, hy);
    // Slowing the bottleneck stage (the last one carries the LM head)
    // stretches every steady-state turn: a large, sub-linear hit.
    SimOptions opt;
    opt.stragglerStage = 3;
    opt.stragglerFactor = 1.5;
    const SimResult slow = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                          fx.model, 16, hy, opt);
    EXPECT_GT(slow.hybrid.latencyMs, base.hybrid.latencyMs * 1.2);
    EXPECT_LT(slow.hybrid.latencyMs, base.hybrid.latencyMs * 1.5);
    // A non-bottleneck straggler hurts less: only its own fill/drain
    // legs stretch until it becomes the new bottleneck.
    opt.stragglerStage = 1;
    const SimResult mid = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                         fx.model, 16, hy, opt);
    EXPECT_GT(mid.hybrid.latencyMs, base.hybrid.latencyMs);
    EXPECT_LT(mid.hybrid.latencyMs, slow.hybrid.latencyMs);
}

TEST(SimZeroBubble, BeatsOneFOneBOnBubble)
{
    // The W-pass fills drain idle: zero-bubble's bubble never exceeds
    // 1F1B's on the same configuration, and wins strictly on a deep
    // pipeline.
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 1;
    hy.ppDegree = 4;
    hy.dpDegree = 2;
    hy.numMicroBatches = 8;
    hy.schedule = PipelineSchedule::OneFOneB;
    const SimResult ofob = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                          fx.model, 16, hy);
    hy.schedule = PipelineSchedule::ZeroBubble;
    const SimResult zb = simulateHybrid(fx.oracle, fx.comms, fx.server,
                                        fx.model, 16, hy);
    ASSERT_FALSE(zb.hybrid.oom);
    EXPECT_LE(zb.hybrid.bubbleMs, ofob.hybrid.bubbleMs * (1.0 + 1e-9));
    EXPECT_LT(zb.hybrid.latencyMs, ofob.hybrid.latencyMs);
    EXPECT_GT(ofob.hybrid.bubbleMs - zb.hybrid.bubbleMs,
              0.05 * ofob.hybrid.bubbleMs);
}

TEST(SimZeroBubble, ClosedFormRefusesToPriceIt)
{
    // The dist algebra cannot express the B/W split: pricing zero-
    // bubble through hybridTrainingMs is a programming error (abort),
    // and validateStrategy screens it off the single-axis preset.
    GoldenFixture fx;
    HybridConfig hy;
    hy.ppDegree = 2;
    hy.tpDegree = 1;
    hy.dpDegree = 4;
    hy.numMicroBatches = 4;
    hy.schedule = PipelineSchedule::ZeroBubble;
    EXPECT_DEATH(hybridTrainingMs(fx.oracle, fx.comms, fx.server,
                                  fx.model, 16, hy),
                 "zero-bubble");
    EXPECT_FALSE(validateStrategy(fx.model, fx.server, 16,
                                  dist::singleAxisConfig(
                                      dist::Parallelism::Pipeline, 8, 4,
                                      PipelineSchedule::ZeroBubble))
                     .empty());
}

TEST(SimContention, SharedFabricNeverBeatsDisjointLinks)
{
    // Reducers contending on one fabric can only slow the tail down.
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 1;
    hy.ppDegree = 4;
    hy.dpDegree = 2;
    hy.numMicroBatches = 8;
    hy.schedule = PipelineSchedule::OneFOneB;
    const SimResult disjoint = simulateHybrid(fx.oracle, fx.comms,
                                              fx.server, fx.model, 16, hy);
    SimOptions opt;
    opt.sharedFabric = true;
    const SimResult shared = simulateHybrid(fx.oracle, fx.comms,
                                            fx.server, fx.model, 16, hy,
                                            opt);
    EXPECT_GE(shared.hybrid.latencyMs,
              disjoint.hybrid.latencyMs * (1.0 - 1e-9));
    EXPECT_GE(shared.hybrid.exposedDdpMs,
              disjoint.hybrid.exposedDdpMs * (1.0 - 1e-9));
}

TEST(SimSweep, SimulatorArmStampsEngineAndAddsZeroBubble)
{
    GoldenFixture fx;
    fx.server.numGpus = 4;
    dist::SweepOptions base;
    base.microBatchCandidates = {4, 8};
    base.tryRecompute = false;
    base.threads = 1;
    const dist::SweepOptions simOpts = simulatorSweepOptions(
        fx.oracle, fx.comms, fx.server, fx.model, 16, base);
    const auto entries = dist::sweepStrategies(fx.oracle, fx.comms,
                                               fx.server, fx.model, 16,
                                               simOpts);
    ASSERT_FALSE(entries.empty());
    bool sawZeroBubble = false;
    for (const auto &e : entries) {
        EXPECT_EQ(e.engine, dist::SweepEngine::Simulator);
        if (e.config.schedule == PipelineSchedule::ZeroBubble) {
            sawZeroBubble = true;
            EXPECT_GT(e.config.ppDegree, 1);
        }
    }
    EXPECT_TRUE(sawZeroBubble);
    // Ranked fastest-first, like the closed-form sweep.
    for (size_t i = 1; i < entries.size(); ++i)
        EXPECT_LE(entries[i - 1].result.latencyMs,
                  entries[i].result.latencyMs);
}

TEST(SimValidation, RejectsInvalidConfigurations)
{
    GoldenFixture fx;
    HybridConfig hy;
    hy.tpDegree = 3; // does not divide 8 GPUs
    EXPECT_DEATH(simulateHybrid(fx.oracle, fx.comms, fx.server, fx.model,
                                16, hy),
                 "simulateHybrid");
    EXPECT_FALSE(validateStrategy(fx.model, fx.server, 16,
                                  dist::singleAxisConfig(
                                      dist::Parallelism::Pipeline, 8, 4,
                                      PipelineSchedule::Interleaved1F1B))
                     .empty());
}

} // namespace
} // namespace neusight::sim
