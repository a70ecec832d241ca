/**
 * @file
 * Extension study (paper Section 5.1: the GPipe schedule "can be easily
 * extended to other schedules"): micro-batched GPipe vs 1F1B on a
 * 4-stage pipeline. The two schedules share the ideal (M + S - 1)-slot
 * latency; the study shows (a) the bubble fraction shrinking as
 * micro-batches amortize the fill/drain slots and (b) the memory
 * frontier — the activation stash is M micro-batches under GPipe but at
 * most S under 1F1B, so 1F1B keeps fitting where GPipe runs out of HBM.
 * Each cell is the dist::singleAxisConfig() pipeline preset (pp = 4)
 * priced by dist::hybridTrainingMs().
 */

#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "dist/parallel.hpp"
#include "eval/oracle.hpp"

using namespace neusight;

int
main()
{
    setQuiet(false);
    const eval::SimulatorOracle oracle;
    const dist::SimCollectives comms("V100-server");
    dist::ServerConfig server;
    server.systemName = "V100-server";
    server.gpuName = "V100";
    server.numGpus = 4;
    const auto &model = graph::findModel("GPT2-Large");

    TextTable table("GPipe vs 1F1B, GPT2-Large on 4x V100, "
                    "micro-batch size 1",
                    {"micro-batches", "bubble frac", "GPipe (ms)",
                     "1F1B (ms)", "GPipe stash", "1F1B stash"});
    CsvWriter csv(bench::csvPath("ablation_schedule"),
                  {"micro_batches", "bubble_fraction", "gpipe_ms",
                   "ofob_ms", "gpipe_oom", "ofob_oom"});

    for (int m : {1, 2, 4, 8, 16, 32}) {
        const auto forecast = [&](dist::PipelineSchedule schedule) {
            return dist::hybridTrainingMs(
                oracle, comms, server, model, static_cast<uint64_t>(m),
                dist::singleAxisConfig(dist::Parallelism::Pipeline,
                                       server.numGpus, m, schedule));
        };
        const auto a = forecast(dist::PipelineSchedule::GPipe);
        const auto b = forecast(dist::PipelineSchedule::OneFOneB);

        const double bubble = 3.0 / (static_cast<double>(m) + 3.0);
        table.addRow(
            {std::to_string(m), TextTable::pct(100.0 * bubble),
             a.oom ? "OOM" : TextTable::num(a.latencyMs, 1),
             b.oom ? "OOM" : TextTable::num(b.latencyMs, 1),
             std::to_string(m) + " micro",
             std::to_string(std::min(m, server.numGpus)) + " micro"});
        csv.writeRow({std::to_string(m), CsvWriter::fmt(bubble),
                      a.oom ? "" : CsvWriter::fmt(a.latencyMs, 2),
                      b.oom ? "" : CsvWriter::fmt(b.latencyMs, 2),
                      a.oom ? "1" : "0", b.oom ? "1" : "0"});
    }
    table.print();
    std::printf("\nSame-M rows share latency by construction; the frontier "
                "is memory — 1F1B's stash caps at the stage count.\n");
    return 0;
}
