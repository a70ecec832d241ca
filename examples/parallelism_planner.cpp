/**
 * @file
 * Parallelism planning on a multi-GPU server (paper Section 5.1):
 * forecast one training iteration of GPT3-XL under data, tensor, and
 * pipeline parallelism on a 4x A100-40GB NVLink server and a 4x H100
 * DGX, and report the best strategy per server — including
 * configurations that only some strategies can fit in memory. Then go
 * beyond single axes: sweep every composed TP x PP x DP strategy
 * (micro-batching, pipeline schedules, activation recomputation) on
 * the memory-bound server and print the ranked plan.
 */

#include <cstdio>

#include "common/table.hpp"
#include "core/predictor.hpp"
#include "dist/parallel.hpp"
#include "serve/prediction_cache.hpp"

int
main()
{
    using namespace neusight;

    core::NeuSight neusight = core::NeuSight::trainOrLoad(
        "neusight_nvidia.bin", gpusim::nvidiaTrainingSet(),
        dataset::SamplerConfig{});
    const dist::EstimatedCollectives comms("A100-NVLink", 600.0);

    std::vector<dist::ServerConfig> servers(2);
    servers[0].systemName = "A100-NVLink";
    servers[0].gpuName = "A100-40GB";
    servers[0].numGpus = 4;
    servers[1].systemName = "H100-DGX";
    servers[1].gpuName = "H100";
    servers[1].numGpus = 4;

    const graph::ModelConfig &model = graph::findModel("GPT3-XL");
    const uint64_t global_batch = 4;

    TextTable table("GPT3-XL training-iteration forecast, global batch 4,"
                    " single micro-batch",
                    {"Server", "Strategy", "Forecast ms"});
    for (const auto &server : servers) {
        const char *best_name = nullptr;
        double best_ms = 0.0;
        for (dist::Parallelism strategy :
             {dist::Parallelism::Data, dist::Parallelism::Tensor,
              dist::Parallelism::Pipeline}) {
            const auto result = dist::hybridTrainingMs(
                neusight, comms, server, model, global_batch,
                dist::singleAxisConfig(strategy, server.numGpus));
            if (result.oom) {
                table.addRow({server.systemName,
                              dist::parallelismName(strategy), "OOM"});
                continue;
            }
            table.addRow({server.systemName,
                          dist::parallelismName(strategy),
                          TextTable::num(result.latencyMs, 1)});
            if (best_name == nullptr || result.latencyMs < best_ms) {
                best_name = dist::parallelismName(strategy);
                best_ms = result.latencyMs;
            }
        }
        if (best_name != nullptr)
            std::printf("Best on %s: %s (%.1f ms forecast)\n",
                        server.systemName.c_str(), best_name, best_ms);
    }
    std::printf("\n");
    table.print();

    // The strategy sweep: compose the axes instead of picking one.
    // GPT3-XL at a production batch is memory-tight on the 40 GB A100,
    // where hybrid splits (and recomputation) earn their keep. The
    // sweep forecasts hundreds of graph variants that share almost all
    // kernel shapes, so memoize per-kernel predictions first.
    neusight.attachCache(
        std::make_shared<serve::PredictionCache>(1 << 16));
    const uint64_t sweep_batch = 16;
    const auto plan = dist::sweepStrategies(neusight, comms, servers[0],
                                            model, sweep_batch);
    TextTable sweep_table(
        model.name + " strategy sweep on 4x A100-40GB (global batch " +
            std::to_string(sweep_batch) + ", top 5 of " +
            std::to_string(plan.size()) + " runnable)",
        {"Rank", "Strategy", "Micro", "Schedule", "Recompute",
         "Forecast ms", "Mem GB/GPU"});
    for (size_t i = 0; i < plan.size() && i < 5; ++i) {
        const auto &e = plan[i];
        sweep_table.addRow(
            {std::to_string(i + 1), e.config.describe(),
             std::to_string(e.config.numMicroBatches),
             e.config.ppDegree > 1
                 ? dist::pipelineScheduleName(e.config.schedule)
                 : "-",
             e.config.recomputeActivations ? "yes" : "no",
             TextTable::num(e.result.latencyMs, 1),
             TextTable::num(e.result.memoryBytes / 1e9, 1)});
    }
    std::printf("\n");
    sweep_table.print();
    return 0;
}
