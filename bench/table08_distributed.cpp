/**
 * @file
 * Table 8 reproduction: distributed training latency on two 4-GPU
 * servers — A100-40GB x 4 (NVLink, 600 GB/s) and H100 x 4 (DGX,
 * 900 GB/s) — for GPT2-Large (global batch 4 and 16) and GPT3-XL
 * (batch 4), under data / tensor / pipeline parallelism with a single
 * micro-batch. Ground truth: simulator + SimCollectives; forecast:
 * NeuSight + the Section-5.1 link-utilization estimator calibrated on
 * the A100 NVLink system. Each strategy is a dist::singleAxisConfig()
 * preset priced by dist::hybridTrainingMs().
 */

#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "dist/parallel.hpp"
#include "eval/oracle.hpp"

using namespace neusight;

int
main()
{
    setQuiet(false);
    core::NeuSight &neusight = bench::nvidiaNeuSight();
    const eval::SimulatorOracle oracle;
    const dist::EstimatedCollectives estimator("A100-NVLink", 600.0);

    std::vector<dist::ServerConfig> servers(2);
    servers[0].systemName = "A100-NVLink";
    servers[0].gpuName = "A100-40GB";
    servers[0].numGpus = 4;
    servers[1].systemName = "H100-DGX";
    servers[1].gpuName = "H100";
    servers[1].numGpus = 4;

    const std::vector<std::pair<std::string, uint64_t>> workloads = {
        {"GPT2-Large", 4}, {"GPT2-Large", 16}, {"GPT3-XL", 4}};

    TextTable table("Table 8: distributed training latency prediction "
                    "(single micro-batch)",
                    {"Model", "Global batch", "Server", "Strategy",
                     "Measured ms", "Predicted ms", "Error"});
    CsvWriter csv(bench::csvPath("table08_distributed"),
                  {"model", "global_batch", "server", "strategy",
                   "measured_ms", "predicted_ms", "error_pct", "oom"});

    RunningMean mean_err;
    for (const auto &[model_name, batch] : workloads) {
        const auto &model = graph::findModel(model_name);
        for (const auto &server : servers) {
            const dist::SimCollectives truth_comms(server.systemName);
            for (dist::Parallelism strategy :
                 {dist::Parallelism::Data, dist::Parallelism::Tensor,
                  dist::Parallelism::Pipeline}) {
                const dist::HybridConfig preset =
                    dist::singleAxisConfig(strategy, server.numGpus);
                const auto truth = dist::hybridTrainingMs(
                    oracle, truth_comms, server, model, batch, preset);
                const auto guess = dist::hybridTrainingMs(
                    neusight, estimator, server, model, batch, preset);
                if (truth.oom || guess.oom) {
                    table.addRow({model_name, std::to_string(batch),
                                  server.systemName,
                                  dist::parallelismName(strategy), "OOM",
                                  "OOM", "-"});
                    csv.writeRow({model_name, std::to_string(batch),
                                  server.systemName,
                                  dist::parallelismName(strategy), "", "",
                                  "", "1"});
                    continue;
                }
                const double err = absPercentageError(guess.latencyMs,
                                                      truth.latencyMs);
                mean_err.add(err);
                table.addRow({model_name, std::to_string(batch),
                              server.systemName,
                              dist::parallelismName(strategy),
                              TextTable::num(truth.latencyMs, 1),
                              TextTable::num(guess.latencyMs, 1),
                              TextTable::pct(err)});
                csv.writeRow({model_name, std::to_string(batch),
                              server.systemName,
                              dist::parallelismName(strategy),
                              CsvWriter::fmt(truth.latencyMs, 2),
                              CsvWriter::fmt(guess.latencyMs, 2),
                              CsvWriter::fmt(err, 1), "0"});
            }
        }
    }
    table.print();
    std::printf("\nMean error over non-OOM cells: %.1f%% (paper: 7.7%% "
                "overall; 6.7%% H100 server, 10.5%% A100 server).\n",
                mean_err.value());
    return 0;
}
