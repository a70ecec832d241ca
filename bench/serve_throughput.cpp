/**
 * @file
 * Serving-throughput bench: forecast requests/s through ForecastServer
 * versus worker count, with the kernel-prediction cache enabled and
 * disabled, on a repeated-model workload (the production pattern: the
 * same few models asked about over and over at varying batch and
 * context length). Prints a table and writes a JSON report for CI.
 *
 *   bench_serve_throughput                    # NeuSight backend
 *   bench_serve_throughput --backend oracle --json out.json
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "bench_common.hpp"
#include "common/argparse.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "eval/oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/prediction_cache.hpp"
#include "serve/server.hpp"

#include <sstream>

namespace {

using namespace neusight;

std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> items;
    std::stringstream ss(value);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

/**
 * The repeated-model request mix: a handful of models, each asked for
 * prefill at a few batch sizes and decode at a few context lengths —
 * every request distinct, but nearly every kernel shared with earlier
 * requests (transformer layers repeat shapes).
 */
std::vector<serve::ForecastRequest>
buildWorkload(size_t count)
{
    const std::vector<std::string> models = {"GPT2-Large", "GPT3-XL",
                                             "BERT-Large", "OPT-1.3B"};
    const gpusim::GpuSpec &gpu = gpusim::findGpu("H100");
    std::vector<serve::ForecastRequest> requests;
    requests.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        serve::ForecastRequest req;
        req.model = models[i % models.size()];
        req.gpu = gpu;
        if (i % 3 == 0) {
            req.kind = serve::RequestKind::Inference;
            req.batch = 1 + (i / 3) % 4;
        } else {
            req.kind = serve::RequestKind::DecodeStep;
            req.batch = 4;
            req.pastLen = 256 + 128 * ((i / 3) % 8);
        }
        req.tag = "r" + std::to_string(i);
        requests.push_back(std::move(req));
    }
    return requests;
}

struct RunResult
{
    double reqPerSec = 0.0;
    double hitRate = 0.0;
    /** End-to-end request latency quantiles (serve.e2e_us histogram). */
    double p50Us = 0.0;
    double p99Us = 0.0;
};

/**
 * Per-span cost of the disabled tracer path, nanoseconds: the overhead
 * every instrumented hot path pays when tracing is off. Deterministic
 * (one relaxed load + a branch), so CI gates on it instead of a noisy
 * req/s A/B comparison.
 */
double
disabledSpanNs(size_t iterations)
{
    obs::Tracer tracer; // Never enabled.
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iterations; ++i) {
        obs::TraceSpan span("bench.disabled", "bench", tracer);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count();
    return ns / static_cast<double>(iterations);
}

RunResult
runOnce(const graph::LatencyPredictor &backend, size_t workers,
        const std::shared_ptr<serve::PredictionCache> &cache,
        const std::vector<serve::ForecastRequest> &requests)
{
    // The backend carries its own cache wiring (attachCache or the
    // CachedPredictor decorator), so the engine adds no cache of its own.
    auto registry = std::make_shared<api::PredictorRegistry>();
    registry->addExternal("bench", backend);
    auto engine = std::make_shared<api::ForecastEngine>(
        api::EngineConfig().backend("bench").withRegistry(registry).cache(0));
    serve::ServerOptions options;
    options.workers = workers;
    options.queueCapacity = requests.size() + 1;
    serve::ForecastServer server(engine, options);

    std::vector<std::future<serve::ForecastResult>> futures;
    futures.reserve(requests.size());
    const auto start = std::chrono::steady_clock::now();
    for (const serve::ForecastRequest &req : requests)
        futures.push_back(server.submit(req));
    for (auto &future : futures) {
        const serve::ForecastResult result = future.get();
        ensure(result.ok, "serve_throughput: request failed: " +
                              result.error);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    server.stop();

    RunResult out;
    out.reqPerSec =
        static_cast<double>(requests.size()) / std::max(seconds, 1e-9);
    if (cache)
        out.hitRate = cache->stats().hitRate();
    // The server's own end-to-end histogram (each runOnce builds a
    // fresh engine, so the distribution is this run's alone).
    const auto e2e = server.metrics()->histogram("serve.e2e_us");
    out.p50Us = e2e->quantile(0.50);
    out.p99Us = e2e->quantile(0.99);
    return out;
}

int
run(int argc, const char *const *argv)
{
    common::ArgParser args("bench_serve_throughput",
                           "forecast requests/s vs worker count, cached "
                           "vs uncached");
    args.addString("backend", "neusight", "neusight | oracle");
    args.addInt("requests", 192, "requests per timed run");
    args.addString("workers", "1,2,4,8", "comma list of worker counts");
    args.addInt("cache-capacity", 65536, "prediction-cache entries");
    args.addString("json", "serve_throughput.json",
                   "JSON report output path");
    args.addDouble("min-speedup", 0.0,
                   "fail (exit 3) when the cached/uncached speedup of "
                   "any worker count falls below this; 0 disables");
    args.addDouble("max-disabled-span-ns", 0.0,
                   "fail (exit 3) when the disabled-tracer span "
                   "overhead exceeds this many ns; 0 disables");
    if (!args.parse(argc, argv))
        return 0;

    setQuiet(false);
    const size_t count = static_cast<size_t>(args.getInt("requests"));
    const size_t capacity =
        static_cast<size_t>(args.getInt("cache-capacity"));
    if (count < 1 || capacity < 1)
        fatal("--requests and --cache-capacity must be at least 1");

    // Backends. The cached NeuSight path goes through attachCache (the
    // native wiring); the oracle is wrapped in the CachedPredictor
    // decorator — both exercise the same PredictionCache.
    const std::string backend_name = args.getString("backend");
    eval::SimulatorOracle oracle;
    core::NeuSight *neusight = nullptr;
    if (backend_name == "neusight")
        neusight = &bench::nvidiaNeuSight();
    else if (backend_name != "oracle")
        fatal("--backend must be neusight or oracle");

    const std::vector<serve::ForecastRequest> requests =
        buildWorkload(count);

    TextTable table("Serving throughput, " + backend_name +
                        " backend (" + std::to_string(count) +
                        " repeated-model requests)",
                    {"workers", "cached req/s", "uncached req/s",
                     "speedup", "hit rate", "p50 (us)", "p99 (us)"});
    common::Json runs;
    double min_speedup = 0.0;
    for (const std::string &item : splitList(args.getString("workers"))) {
        const size_t workers =
            static_cast<size_t>(std::stoul(item));
        if (workers < 1)
            fatal("--workers entries must be at least 1");

        auto cache =
            std::make_shared<serve::PredictionCache>(capacity);
        RunResult cached;
        RunResult uncached;
        if (neusight) {
            neusight->attachCache(cache);
            cached = runOnce(*neusight, workers, cache, requests);
            neusight->attachCache(nullptr);
            uncached = runOnce(*neusight, workers, nullptr, requests);
        } else {
            const serve::CachedPredictor decorated(oracle, cache);
            cached = runOnce(decorated, workers, cache, requests);
            uncached = runOnce(oracle, workers, nullptr, requests);
        }
        const double speedup = cached.reqPerSec / uncached.reqPerSec;
        min_speedup = min_speedup == 0.0
                          ? speedup
                          : std::min(min_speedup, speedup);
        table.addRow({std::to_string(workers),
                      TextTable::num(cached.reqPerSec, 0),
                      TextTable::num(uncached.reqPerSec, 0),
                      TextTable::num(speedup, 1) + "x",
                      TextTable::num(100.0 * cached.hitRate, 1) + "%",
                      TextTable::num(cached.p50Us, 0),
                      TextTable::num(cached.p99Us, 0)});

        common::Json entry;
        entry.set("workers", static_cast<uint64_t>(workers));
        entry.set("cached_req_per_s", cached.reqPerSec);
        entry.set("uncached_req_per_s", uncached.reqPerSec);
        entry.set("speedup", speedup);
        entry.set("cache_hit_rate", cached.hitRate);
        entry.set("e2e_p50_us", cached.p50Us);
        entry.set("e2e_p99_us", cached.p99Us);
        entry.set("uncached_e2e_p50_us", uncached.p50Us);
        entry.set("uncached_e2e_p99_us", uncached.p99Us);
        runs.push(std::move(entry));
    }
    table.print();

    // Disabled-path overhead: the cost the observability layer adds to
    // every instrumented scope when tracing is off.
    const double span_ns = disabledSpanNs(1u << 20);
    std::printf("\ndisabled-tracer span overhead: %.1f ns/span\n",
                span_ns);

    common::Json report;
    report.set("backend", backend_name);
    report.set("requests", static_cast<uint64_t>(count));
    report.set("cache_capacity", static_cast<uint64_t>(capacity));
    report.set("min_speedup", min_speedup);
    report.set("disabled_span_ns", span_ns);
    report.set("runs", std::move(runs));
    const std::string path = args.getString("json");
    std::ofstream out(path);
    if (!out)
        fatal("cannot write JSON report '" + path + "'");
    out << report.dump(2) << "\n";
    std::printf("\nJSON report written to %s\n", path.c_str());

    const double required = args.getDouble("min-speedup");
    if (required > 0.0 && min_speedup < required) {
        std::fprintf(stderr,
                     "serve_throughput: cache speedup %.1fx is below "
                     "the required %.1fx\n",
                     min_speedup, required);
        return 3;
    }
    const double span_budget = args.getDouble("max-disabled-span-ns");
    if (span_budget > 0.0 && span_ns > span_budget) {
        std::fprintf(stderr,
                     "serve_throughput: disabled-span overhead %.1f ns "
                     "exceeds the %.1f ns budget\n",
                     span_ns, span_budget);
        return 3;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
