/**
 * @file
 * neusight-distributed: forecast the training-iteration latency of a
 * model distributed over a multi-GPU server (Section 5.1) under data,
 * tensor, or pipeline parallelism — single-axis side by side, one
 * composed TP x PP x DP strategy, or a full strategy sweep.
 *
 *   neusight-distributed --model GPT2-Large --gpu H100 --num-gpus 4
 *   neusight-distributed --model GPT3-XL --strategy tensor \
 *                        --global-batch 16
 *   neusight-distributed --model GPT3-2.7B --gpu A100-40GB \
 *                        --global-batch 16 --tp 2 --dp 2 --recompute
 *   neusight-distributed --model GPT3-2.7B --gpu A100-40GB \
 *                        --global-batch 16 --sweep --sweep-json plan.json
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "api/engine.hpp"
#include "common/argparse.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dist/parallel.hpp"
#include "graph/model_io.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "tool_common.hpp"

namespace {

using namespace neusight;

/** Exit-time observability dumps (--metrics-json / --trace-out). */
void
dumpObservability(const api::ForecastEngine &engine,
                  const std::string &metrics_path,
                  const std::string &trace_path)
{
    if (!metrics_path.empty()) {
        engine.metrics()->writeJson(metrics_path);
        std::fprintf(stderr,
                     "neusight-distributed: wrote metrics snapshot to "
                     "%s\n",
                     metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        const size_t events =
            obs::Tracer::global().writeChromeTrace(trace_path);
        std::fprintf(stderr,
                     "neusight-distributed: wrote %zu trace events to "
                     "%s\n",
                     events, trace_path.c_str());
    }
}

common::Json
sweepEntryJson(int rank, const dist::SweepEntry &entry)
{
    common::Json row;
    row.set("rank", rank);
    row.set("tp", entry.config.tpDegree);
    row.set("pp", entry.config.ppDegree);
    row.set("dp", entry.config.dpDegree);
    row.set("micro_batches", entry.config.numMicroBatches);
    row.set("schedule",
            dist::pipelineScheduleName(entry.config.schedule));
    row.set("engine", dist::sweepEngineName(entry.engine));
    row.set("recompute", entry.config.recomputeActivations);
    row.set("latency_ms", entry.result.latencyMs);
    row.set("bubble_ms", entry.result.bubbleMs);
    row.set("exposed_ddp_ms", entry.result.exposedDdpMs);
    row.set("recompute_ms", entry.result.recomputeMs);
    row.set("memory_gb_per_gpu", entry.result.memoryBytes / 1e9);
    row.set("comm_gb", entry.result.commBytes / 1e9);
    return row;
}

/** The --sweep mode: ranked strategy search with optional JSON report. */
int
runSweep(const graph::LatencyPredictor &predictor,
         const dist::CollectiveModel &comms,
         const dist::ServerConfig &server, const graph::ModelConfig &model,
         uint64_t global_batch, const dist::SweepOptions &options,
         int top, const std::string &json_path)
{
    dist::SweepStats stats;
    const auto entries = dist::sweepStrategies(predictor, comms, server,
                                               model, global_batch,
                                               options, &stats);
    if (entries.empty())
        fatal("no runnable strategy found: every (tp, pp, dp) "
              "factorization failed validation or the memory screen");

    TextTable table(
        model.name + " strategy sweep on " +
            std::to_string(server.numGpus) + "x " + server.gpuName +
            " (global batch " + std::to_string(global_batch) + ", " +
            std::to_string(entries.size()) + " runnable strategies)",
        {"rank", "strategy", "micro", "schedule", "recompute",
         "predicted (ms)", "mem GB/GPU", "comm GB"});
    const size_t shown =
        top > 0 ? std::min<size_t>(entries.size(),
                                   static_cast<size_t>(top))
                : entries.size();
    for (size_t i = 0; i < shown; ++i) {
        const auto &e = entries[i];
        table.addRow({std::to_string(i + 1), e.config.describe(),
                      std::to_string(e.config.numMicroBatches),
                      e.config.ppDegree > 1
                          ? dist::pipelineScheduleName(e.config.schedule)
                          : "-",
                      e.config.recomputeActivations ? "yes" : "no",
                      TextTable::num(e.result.latencyMs, 1),
                      TextTable::num(e.result.memoryBytes / 1e9, 1),
                      TextTable::num(e.result.commBytes / 1e9, 2)});
    }
    table.print();
    std::printf("\nsweep: %zu points priced across %zu factorizations; "
                "%zu points pruned by the bound (%zu whole "
                "factorizations, %zu micro rows); stage-price memo "
                "%llu hits / %llu misses\n",
                stats.evaluatedPoints, stats.factorizations,
                stats.skippedPoints, stats.prunedFactorizations,
                stats.prunedMicroRows,
                static_cast<unsigned long long>(stats.stagePriceHits),
                static_cast<unsigned long long>(stats.stagePriceMisses));

    // Winner vs the best single-axis plan: the sweep's value statement.
    const dist::SweepEntry &winner = entries.front();
    const dist::SweepEntry *best_single =
        dist::bestSingleAxisEntry(entries);
    if (winner.config.activeAxes() >= 2 && best_single != nullptr)
        std::printf("\nBest hybrid %s is %.1fx faster than the best "
                    "single-axis plan (%s, %.1f ms).\n",
                    winner.config.describe().c_str(),
                    best_single->result.latencyMs /
                        winner.result.latencyMs,
                    best_single->config.describe().c_str(),
                    best_single->result.latencyMs);

    if (!options.exhaustive && stats.skippedPoints > 0 &&
        (top <= 0 || !json_path.empty()))
        inform("the bound pruned " +
               std::to_string(stats.skippedPoints) +
               " provably-slower points; pass --exhaustive for the "
               "complete ranked space");

    if (!json_path.empty()) {
        common::Json report;
        report.set("model", model.name);
        report.set("gpu", server.gpuName);
        report.set("num_gpus", server.numGpus);
        report.set("global_batch", static_cast<uint64_t>(global_batch));
        report.set("exhaustive", options.exhaustive);
        report.set("pruned_points",
                   static_cast<uint64_t>(stats.skippedPoints));
        common::Json::Array rows;
        for (size_t i = 0; i < entries.size(); ++i)
            rows.push_back(
                sweepEntryJson(static_cast<int>(i + 1), entries[i]));
        report.set("strategies", common::Json(std::move(rows)));
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot write " + json_path);
        out << report.dump() << "\n";
        inform("wrote " + std::to_string(entries.size()) +
               " ranked strategies to " + json_path);
    }
    return 0;
}

int
run(int argc, const char *const *argv)
{
    common::ArgParser args(
        "neusight-distributed",
        "forecast distributed training latency on a multi-GPU server");
    args.addString("model", "GPT2-Large",
                   "Table-5 name or model JSON path");
    args.addString("gpu", "H100", "GPU name or spec JSON path");
    args.addString("gpu-json", "",
                   "path to a GPU spec JSON file (overrides --gpu; "
                   "forecast a hypothetical GPU from its public numbers)");
    args.addInt("num-gpus", 4, "GPUs in the server");
    args.addInt("global-batch", 4, "global batch size");
    args.addString("strategy", "all", "data | tensor | pipeline | all");
    args.addInt("micro-batches", 1,
                "pipeline micro-batches per iteration");
    args.addString("schedule", "gpipe",
                   "pipeline schedule: gpipe | 1f1b | interleaved | "
                   "zero-bubble (zero-bubble implies --simulate)");
    args.addInt("tp", 0, "tensor-parallel degree of a hybrid forecast "
                         "(with --pp/--dp; unset degrees default to 1)");
    args.addInt("pp", 0, "pipeline-parallel degree of a hybrid forecast");
    args.addInt("dp", 0, "data-parallel degree of a hybrid forecast");
    args.addFlag("recompute", "recompute activations in the backward "
                              "pass (trades FLOPs for stash memory)");
    args.addInt("virtual-stages", 2,
                "model chunks per GPU for the interleaved schedule");
    args.addFlag("simulate",
                 "price the forecast on the discrete-event cluster "
                 "simulator instead of the closed form (defaults to a "
                 "pure pipeline over every GPU when no --tp/--pp/--dp "
                 "is given)");
    args.addFlag("zero-bubble",
                 "use the zero-bubble schedule (backward split into "
                 "input- and weight-gradient passes); simulator-only, "
                 "implies --simulate");
    args.addDouble("jitter", 0.0,
                   "per-task compute jitter fraction for --simulate "
                   "(deterministic given --seed; implies --simulate)");
    args.addInt("seed", 0, "seed of the --jitter stream");
    args.addFlag("sweep", "search every (tp, pp, dp, micro-batch, "
                          "schedule, recompute) combination and rank the "
                          "runnable ones by forecast iteration time");
    args.addFlag("exhaustive",
                 "with --sweep: evaluate every runnable point instead "
                 "of branch-and-bound pruning (same winner and top "
                 "ranks, audits the full space)");
    args.addInt("sweep-threads", 0,
                "with --sweep: worker threads pricing sweep points "
                "(0 = one per hardware thread)");
    args.addInt("top", 10, "sweep rows to print (0 = all surviving)");
    args.addString("engine", "closed_form",
                   "with --sweep: pricing engine, closed_form | sim "
                   "(sim prices every point on the event simulator and "
                   "adds zero-bubble candidates to the grid)");
    args.addString("sweep-json", "",
                   "also write the ranked sweep as JSON (every runnable "
                   "point with --exhaustive; otherwise the prune "
                   "survivors, exact through the top keepTop ranks)");
    args.addDouble("link-gbps", 0.0,
                   "peak GPU-to-GPU bandwidth GB/s (0 = GPU spec value)");
    args.addString("reference-system", "A100-NVLink",
                   "in-hand server used to calibrate link utilization");
    args.addDouble("reference-link-gbps", 600.0,
                   "peak link bandwidth of the reference system");
    args.addString("predictor", "neusight_nvidia.bin",
                   "trained predictor cache path");
    args.addString("precision", "f64",
                   "NeuSight MLP inference lane: f64 (bit-exact "
                   "reference) or f32 (SIMD single-precision)");
    args.addString("metrics-json", "",
                   "write the metrics-registry snapshot (sweep.* "
                   "counters, cache counters) to this path on exit");
    args.addString("trace-out", "",
                   "enable span tracing and write Chrome trace-event "
                   "JSON to this path on exit");
    if (!args.parse(argc, argv))
        return 0;

    if (!args.getString("trace-out").empty())
        obs::Tracer::global().setEnabled(true);

    const graph::ModelConfig model =
        graph::resolveModel(args.getString("model"));
    // --gpu already accepts a spec path; --gpu-json forces file
    // resolution (a hypothetical GPU can shadow a database name).
    const gpusim::GpuSpec gpu = api::ForecastEngine::resolveGpu(
        args.getString("gpu"), args.getString("gpu-json"));

    dist::ServerConfig server;
    server.systemName = gpu.name + "-server";
    // Pin the resolved spec so JSON-defined GPUs work in the library's
    // distributed forecasts (no findGpu round-trip on the name).
    server.setGpu(gpu);
    server.numGpus = static_cast<int>(args.getInt("num-gpus"));
    server.linkGBps = args.getDouble("link-gbps");
    if (server.numGpus < 2)
        fatal("--num-gpus must be at least 2");

    std::vector<dist::Parallelism> strategies;
    const std::string choice = args.getString("strategy");
    if (choice == "data" || choice == "all")
        strategies.push_back(dist::Parallelism::Data);
    if (choice == "tensor" || choice == "all")
        strategies.push_back(dist::Parallelism::Tensor);
    if (choice == "pipeline" || choice == "all")
        strategies.push_back(dist::Parallelism::Pipeline);
    if (strategies.empty())
        fatal("--strategy must be data, tensor, pipeline, or all");

    const int micro_batches = static_cast<int>(args.getInt("micro-batches"));
    if (micro_batches < 1)
        fatal("--micro-batches must be at least 1");
    const std::string schedule_name = args.getString("schedule");
    dist::PipelineSchedule schedule = dist::PipelineSchedule::GPipe;
    if (schedule_name == "1f1b")
        schedule = dist::PipelineSchedule::OneFOneB;
    else if (schedule_name == "interleaved")
        schedule = dist::PipelineSchedule::Interleaved1F1B;
    else if (schedule_name == "zero-bubble")
        schedule = dist::PipelineSchedule::ZeroBubble;
    else if (schedule_name != "gpipe")
        fatal("--schedule must be gpipe, 1f1b, interleaved, or "
              "zero-bubble");
    if (args.getFlag("zero-bubble"))
        schedule = dist::PipelineSchedule::ZeroBubble;
    if (args.getDouble("jitter") < 0.0)
        fatal("--jitter must be non-negative");
    // Anything only the event engine can price routes to it implicitly.
    const bool simulate =
        args.getFlag("simulate") || args.getDouble("jitter") > 0.0 ||
        schedule == dist::PipelineSchedule::ZeroBubble;
    sim::SimOptions sim_options;
    sim_options.jitterFraction = args.getDouble("jitter");
    sim_options.seed = static_cast<uint64_t>(args.getInt("seed"));

    if (args.getInt("global-batch") < 1)
        fatal("--global-batch must be at least 1");
    const uint64_t global_batch =
        static_cast<uint64_t>(args.getInt("global-batch"));
    // The engine wires the predictor, the kernel-prediction cache
    // (sweeps forecast hundreds of graph variants sharing almost all
    // kernel shapes — the cache turns the repeats into hash lookups),
    // and the calibrated collective model in one place.
    const api::ForecastEngine engine(
        api::EngineConfig()
            .predictor(args.getString("predictor"))
            .precision(args.getString("precision"))
            .collectives(args.getString("reference-system"),
                         args.getDouble("reference-link-gbps")));
    const graph::LatencyPredictor &neusight = engine.backend();
    const dist::CollectiveModel &comms = engine.collectives();
    const std::string metrics_path = args.getString("metrics-json");
    const std::string trace_path = args.getString("trace-out");

    if (args.getFlag("sweep")) {
        dist::SweepOptions options;
        options.metrics = engine.metrics();
        options.tryRecompute = true;
        options.virtualStagesPerGpu =
            static_cast<int>(args.getInt("virtual-stages"));
        options.exhaustive = args.getFlag("exhaustive");
        options.threads =
            static_cast<int>(args.getInt("sweep-threads"));
        // Keep at least the printed prefix exact under pruning.
        if (args.getInt("top") > 0)
            options.keepTop = std::max(
                options.keepTop, static_cast<int>(args.getInt("top")));
        const std::string engine_choice = args.getString("engine");
        if (engine_choice == "sim" || simulate)
            options = sim::simulatorSweepOptions(neusight, comms, server,
                                                 model, global_batch,
                                                 options, sim_options);
        else if (engine_choice != "closed_form")
            fatal("--engine must be closed_form or sim");
        const int rc =
            runSweep(neusight, comms, server, model, global_batch,
                     options, static_cast<int>(args.getInt("top")),
                     args.getString("sweep-json"));
        dumpObservability(engine, metrics_path, trace_path);
        return rc;
    }

    // A composed TP x PP x DP forecast: any of --tp/--pp/--dp selects
    // the hybrid path; unset degrees default to 1. --simulate without
    // degrees defaults to a pure pipeline over every GPU (the setting
    // where the simulator-only schedules and perturbations matter).
    if (args.given("tp") || args.given("pp") || args.given("dp") ||
        simulate) {
        const bool degrees_given =
            args.given("tp") || args.given("pp") || args.given("dp");
        dist::HybridConfig hybrid;
        hybrid.tpDegree =
            args.given("tp") ? static_cast<int>(args.getInt("tp")) : 1;
        hybrid.ppDegree = args.given("pp")
                              ? static_cast<int>(args.getInt("pp"))
                              : (degrees_given ? 1 : server.numGpus);
        hybrid.dpDegree =
            args.given("dp") ? static_cast<int>(args.getInt("dp")) : 1;
        hybrid.numMicroBatches = micro_batches;
        hybrid.schedule = schedule;
        hybrid.virtualStagesPerGpu =
            static_cast<int>(args.getInt("virtual-stages"));
        hybrid.recomputeActivations = args.getFlag("recompute");
        const std::string reject =
            dist::validateHybrid(model, server, global_batch, hybrid);
        if (!reject.empty())
            fatal("hybrid strategy: " + reject);
        dist::HybridResult result;
        uint64_t sim_events = 0;
        uint64_t sim_tasks = 0;
        if (simulate) {
            sim_options.emitTrace = !trace_path.empty();
            const sim::SimResult simulated = sim::simulateHybrid(
                neusight, comms, server, model, global_batch, hybrid,
                sim_options);
            result = simulated.hybrid;
            sim_events = simulated.events;
            sim_tasks = simulated.tasks;
        } else {
            result = dist::hybridTrainingMs(neusight, comms, server,
                                            model, global_batch, hybrid);
        }
        TextTable table(model.name + " hybrid training forecast on " +
                            std::to_string(server.numGpus) + "x " +
                            gpu.name + " (global batch " +
                            std::to_string(global_batch) +
                            (simulate ? ", event simulator)" : ")"),
                        {"metric", "value"});
        table.addRow({"strategy", hybrid.describe()});
        table.addRow({"micro-batches",
                      std::to_string(hybrid.numMicroBatches)});
        table.addRow({"schedule",
                      hybrid.ppDegree > 1
                          ? dist::pipelineScheduleName(hybrid.schedule)
                          : "-"});
        table.addRow({"recompute",
                      hybrid.recomputeActivations ? "yes" : "no"});
        if (result.oom) {
            table.addRow({"predicted", "out of memory"});
            table.addRow({"mem GB/GPU",
                          TextTable::num(result.memoryBytes / 1e9, 1)});
            table.print();
            dumpObservability(engine, metrics_path, trace_path);
            return 1;
        }
        table.addRow({"predicted (ms)",
                      TextTable::num(result.latencyMs, 1)});
        table.addRow({"pipeline bubble (ms)",
                      TextTable::num(result.bubbleMs, 1)});
        table.addRow({"exposed DDP comm (ms)",
                      TextTable::num(result.exposedDdpMs, 1)});
        table.addRow({"recompute overhead (ms)",
                      TextTable::num(result.recomputeMs, 1)});
        table.addRow({"mem GB/GPU",
                      TextTable::num(result.memoryBytes / 1e9, 1)});
        table.addRow({"comm GB",
                      TextTable::num(result.commBytes / 1e9, 2)});
        if (simulate) {
            table.addRow({"sim events",
                          std::to_string(sim_events)});
            table.addRow({"sim tasks", std::to_string(sim_tasks)});
            if (sim_options.jitterFraction > 0.0)
                table.addRow(
                    {"jitter",
                     TextTable::num(sim_options.jitterFraction, 2) +
                         " (seed " +
                         std::to_string(sim_options.seed) + ")"});
        }
        table.print();
        dumpObservability(engine, metrics_path, trace_path);
        return 0;
    }

    TextTable table(model.name + " training on " +
                        std::to_string(server.numGpus) + "x " + gpu.name +
                        " (global batch " +
                        std::to_string(args.getInt("global-batch")) + ")",
                    {"strategy", "predicted (ms)", "comm GB", "note"});
    // Each Table-8 strategy is a hybrid preset. Pre-validate it so a
    // bad combination reports cleanly instead of reaching the library's
    // abort path: skip the row under --strategy all, reject an explicit
    // ask.
    for (dist::Parallelism strategy : strategies) {
        const dist::HybridConfig preset = dist::singleAxisConfig(
            strategy, server.numGpus, micro_batches, schedule);
        const std::string reject =
            dist::validateStrategy(model, server, global_batch, preset);
        if (!reject.empty()) {
            if (choice != "all")
                fatal(std::string(dist::parallelismName(strategy)) +
                      ": " + reject);
            table.addRow({dist::parallelismName(strategy), "-", "-",
                          reject});
            continue;
        }

        const dist::HybridResult result = dist::hybridTrainingMs(
            neusight, comms, server, model, global_batch, preset);
        std::string note;
        if (preset.numMicroBatches > 1)
            note = std::to_string(preset.numMicroBatches) +
                   " micro-batches, " +
                   dist::pipelineScheduleName(preset.schedule);
        table.addRow({dist::parallelismName(strategy),
                      result.oom ? "-" : TextTable::num(result.latencyMs, 1),
                      result.oom
                          ? "-"
                          : TextTable::num(result.commBytes / 1e9, 2),
                      result.oom ? "out of memory" : note});
    }
    table.print();
    dumpObservability(engine, metrics_path, trace_path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::toolInit();
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
