/**
 * @file
 * Branch-and-bound sweep equivalence: the pruned, memoized, parallel
 * sweepStrategies must return the identical winner (and top-keepTop
 * ranking prefix) as the exhaustive escape hatch, on both Table-8 grids
 * (GPT2-Large and GPT3-2.7B), while provably doing less work. Also
 * pins that the StagePriceMemo and the thread pool do not change any
 * forecast, and that the memo prices each key once under concurrency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "dist/parallel.hpp"
#include "eval/oracle.hpp"
#include "graph/models.hpp"

namespace neusight::dist {
namespace {

using graph::ModelConfig;

bool
sameConfig(const HybridConfig &a, const HybridConfig &b)
{
    return a.tpDegree == b.tpDegree && a.ppDegree == b.ppDegree &&
           a.dpDegree == b.dpDegree &&
           a.numMicroBatches == b.numMicroBatches &&
           a.schedule == b.schedule &&
           a.recomputeActivations == b.recomputeActivations;
}

ServerConfig
a100x8()
{
    ServerConfig server;
    server.systemName = "A100-NVLink";
    server.gpuName = "A100-40GB";
    server.numGpus = 8;
    return server;
}

ServerConfig
h100x4()
{
    ServerConfig server;
    server.systemName = "H100-DGX";
    server.gpuName = "H100";
    server.numGpus = 4;
    return server;
}

/**
 * Run the pruned default and the exhaustive escape hatch on one grid
 * and require the identical winner and top-keepTop ranking prefix,
 * with bound/memo/thread bookkeeping showing real savings.
 */
void
expectPrunedMatchesExhaustive(const ServerConfig &server,
                              const std::string &model_name,
                              uint64_t global_batch)
{
    const eval::SimulatorOracle oracle;
    const SimCollectives comms(server.systemName);
    const ModelConfig &m = graph::findModel(model_name);

    SweepOptions exhaustive;
    exhaustive.exhaustive = true;
    SweepStats ex_stats;
    const auto full = sweepStrategies(oracle, comms, server, m,
                                      global_batch, exhaustive, &ex_stats);

    SweepOptions pruned; // Defaults: branch-and-bound + memo + threads.
    SweepStats pr_stats;
    const auto cut = sweepStrategies(oracle, comms, server, m,
                                     global_batch, pruned, &pr_stats);

    ASSERT_FALSE(full.empty());
    ASSERT_FALSE(cut.empty());
    ASSERT_LE(cut.size(), full.size());

    // Identical winner, identical forecast — and the whole prefix the
    // pruning contract guarantees (keepTop deep).
    const size_t prefix = std::min<size_t>(
        {static_cast<size_t>(pruned.keepTop), full.size(), cut.size()});
    for (size_t i = 0; i < prefix; ++i) {
        EXPECT_TRUE(sameConfig(full[i].config, cut[i].config))
            << "rank " << i + 1 << ": exhaustive "
            << full[i].config.describe() << " m"
            << full[i].config.numMicroBatches << " vs pruned "
            << cut[i].config.describe() << " m"
            << cut[i].config.numMicroBatches;
        EXPECT_DOUBLE_EQ(full[i].result.latencyMs,
                         cut[i].result.latencyMs)
            << "rank " << i + 1;
    }

    // The single-axis baselines survive pruning by policy.
    const SweepEntry *full_single = bestSingleAxisEntry(full);
    const SweepEntry *cut_single = bestSingleAxisEntry(cut);
    ASSERT_EQ(full_single != nullptr, cut_single != nullptr);
    if (full_single != nullptr) {
        EXPECT_TRUE(sameConfig(full_single->config, cut_single->config));
        EXPECT_DOUBLE_EQ(full_single->result.latencyMs,
                         cut_single->result.latencyMs);
    }

    // The bound must have done real work on multi-factorization grids,
    // and the memo must have been hit.
    EXPECT_EQ(ex_stats.prunedFactorizations, 0u);
    EXPECT_LE(pr_stats.evaluatedPoints, ex_stats.evaluatedPoints);
    EXPECT_GT(pr_stats.stagePriceHits, 0u);
}

TEST(SweepPrune, MatchesExhaustiveOnGpt2LargeGrid)
{
    expectPrunedMatchesExhaustive(h100x4(), "GPT2-Large", 16);
}

TEST(SweepPrune, MatchesExhaustiveOnGpt3Flagship)
{
    expectPrunedMatchesExhaustive(a100x8(), "GPT3-2.7B", 32);
}

TEST(SweepPrune, BoundActuallyPrunesDeepMicroGrids)
{
    // Where the per-micro-row bound bites: a comm-heavy grid (the
    // smaller GPT2-Large on 8 GPUs) whose deep micro-batch rows pay
    // wave-quantization and collective costs the winner provably
    // avoids. The bound must eliminate work, not just break even — and
    // the ranked prefix must still match the exhaustive space (checked
    // here at full depth against the separate equivalence tests).
    const eval::SimulatorOracle oracle;
    const ServerConfig server = a100x8();
    const SimCollectives comms(server.systemName);
    const ModelConfig &m = graph::findModel("GPT2-Large");
    SweepStats stats;
    sweepStrategies(oracle, comms, server, m, 32, SweepOptions{}, &stats);
    EXPECT_GT(stats.prunedMicroRows + stats.prunedFactorizations, 0u);
    EXPECT_GT(stats.skippedPoints, 0u);
    EXPECT_GT(stats.stagePriceHits, 0u);
}

TEST(SweepPrune, MemoDoesNotChangeHybridForecasts)
{
    const eval::SimulatorOracle oracle;
    const ServerConfig server = a100x8();
    const SimCollectives comms(server.systemName);
    const ModelConfig &m = graph::findModel("GPT2-Large");

    StagePriceMemo memo;
    for (const bool recompute : {false, true}) {
        for (const PipelineSchedule schedule :
             {PipelineSchedule::GPipe, PipelineSchedule::OneFOneB,
              PipelineSchedule::Interleaved1F1B}) {
            HybridConfig hy;
            hy.tpDegree = 2;
            hy.ppDegree = 2;
            hy.dpDegree = 2;
            hy.numMicroBatches = 4;
            hy.schedule = schedule;
            hy.recomputeActivations = recompute;
            const HybridResult plain = hybridTrainingMs(
                oracle, comms, server, m, 16, hy);
            // Twice through the same memo: cold then warm.
            const HybridResult cold = hybridTrainingMs(
                oracle, comms, server, m, 16, hy, &memo);
            const HybridResult warm = hybridTrainingMs(
                oracle, comms, server, m, 16, hy, &memo);
            // The memo path prices stages by component (embedding +
            // layers + head), re-associating the node sum: equal to
            // the plain path to FP rounding. Memoized results repeat
            // bitwise.
            EXPECT_NEAR(plain.latencyMs, cold.latencyMs,
                        1e-9 * plain.latencyMs);
            EXPECT_DOUBLE_EQ(cold.latencyMs, warm.latencyMs);
            EXPECT_NEAR(plain.commBytes, cold.commBytes,
                        1e-9 * plain.commBytes);
            EXPECT_DOUBLE_EQ(cold.commBytes, warm.commBytes);
            EXPECT_DOUBLE_EQ(cold.recomputeMs, warm.recomputeMs);
        }
    }
    EXPECT_GT(memo.hits(), 0u);
}

TEST(SweepPrune, StagePriceMemoPricesEachKeyOnce)
{
    const eval::SimulatorOracle oracle;
    const ServerConfig server = a100x8();
    const SimCollectives comms(server.systemName);
    const ModelConfig &m = graph::findModel("GPT2-Large");

    // Four threads released together price the same plans through one
    // memo: a thread that finds a key in flight waits for its price.
    std::vector<HybridConfig> plans;
    for (const auto &[tp, pp, dp] :
         {std::tuple{2, 2, 2}, std::tuple{2, 4, 1}, std::tuple{1, 4, 2},
          std::tuple{4, 2, 1}, std::tuple{1, 8, 1}}) {
        HybridConfig hy;
        hy.tpDegree = tp;
        hy.ppDegree = pp;
        hy.dpDegree = dp;
        hy.numMicroBatches = 2;
        plans.push_back(hy);
    }
    StagePriceMemo memo;
    std::atomic<int> waiting{4};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&] {
            waiting.fetch_sub(1);
            while (waiting.load() > 0)
                std::this_thread::yield();
            for (const HybridConfig &hy : plans)
                hybridTrainingMs(oracle, comms, server, m, 16, hy, &memo);
        });
    for (std::thread &worker : workers)
        worker.join();
    EXPECT_EQ(memo.misses(), memo.size());
    EXPECT_GT(memo.hits(), 0u);

    // So the sweep's memo accounting no longer depends on its pool.
    SweepOptions serial;
    serial.threads = 1;
    SweepOptions pooled;
    pooled.threads = 4;
    SweepStats serial_stats;
    SweepStats pooled_stats;
    sweepStrategies(oracle, comms, server, m, 32, serial, &serial_stats);
    sweepStrategies(oracle, comms, server, m, 32, pooled, &pooled_stats);
    EXPECT_EQ(pooled_stats.stagePriceMisses, serial_stats.stagePriceMisses);
    EXPECT_EQ(pooled_stats.stagePriceHits, serial_stats.stagePriceHits);
}

TEST(SweepPrune, ThreadPoolIsDeterministic)
{
    // Same exhaustive space priced serially and on the pool: identical
    // ranked lists (the comparator is total over the swept fields).
    const eval::SimulatorOracle oracle;
    const ServerConfig server = h100x4();
    const SimCollectives comms(server.systemName);
    const ModelConfig &m = graph::findModel("GPT2-Large");

    SweepOptions serial;
    serial.exhaustive = true;
    serial.threads = 1;
    SweepOptions pooled;
    pooled.exhaustive = true;
    pooled.threads = 8;
    const auto a = sweepStrategies(oracle, comms, server, m, 16, serial);
    const auto b = sweepStrategies(oracle, comms, server, m, 16, pooled);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(sameConfig(a[i].config, b[i].config)) << i;
        EXPECT_DOUBLE_EQ(a[i].result.latencyMs, b[i].result.latencyMs)
            << i;
    }
}

} // namespace
} // namespace neusight::dist
