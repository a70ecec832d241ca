/**
 * @file
 * neusight-serve: the forecast server as a command-line service. Reads
 * JSON request lines (see serve/wire.hpp) from stdin (REPL: one answer
 * per line as it arrives) or from a script file (batch: submitted all at
 * once through the worker pool), prints one JSON result line per
 * request, and reports throughput and cache statistics on exit.
 *
 *   echo '{"op":"inference","model":"GPT3-XL","batch":4,"gpu":"H100"}' \
 *       | neusight-serve --workers 2
 *   cat requests.jsonl | neusight-serve --async --workers 8
 *   neusight-serve --script requests.jsonl --workers 8 --repeat 16
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "common/argparse.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "serve/prediction_cache.hpp"
#include "serve/server.hpp"
#include "net/fault.hpp"
#include "net/frontend.hpp"
#include "serve/wire.hpp"
#include "tool_common.hpp"

namespace {

using namespace neusight;

void
printResult(const serve::ForecastResult &result)
{
    std::printf("%s\n", serve::resultToJson(result).dump(0).c_str());
    std::fflush(stdout);
}

/**
 * --listen mode: hand the socket front-end (src/net/frontend.hpp) an
 * engine factory and serve until a stop signal drains. The factory runs
 * after fork in each shard worker, so shards>1 builds one engine (own
 * caches) per process.
 */
int
runListen(const common::ArgParser &args, const std::string &listen,
          size_t shards, size_t max_inflight,
          const std::function<std::shared_ptr<api::ForecastEngine>()>
              &buildEngine)
{
    if (!args.getString("script").empty() || args.getFlag("async") ||
        args.getInt("repeat") != 1)
        fatal("--listen serves sockets; --script/--async/--repeat drive "
              "stdin mode");
    if (shards > 1) {
        // These write process-local files / reports; N workers would
        // race on them. The "stats" wire op serves the merged view.
        if (!args.getString("cache-save").empty())
            fatal("--cache-save needs --shards 1 (every worker would "
                  "overwrite the same snapshot; use the per-shard "
                  "caches live instead)");
        if (!args.getString("metrics-json").empty())
            fatal("--metrics-json needs --shards 1 (query the merged "
                  "registry over the wire with {\"op\":\"stats\"})");
        if (!args.getString("trace-out").empty())
            fatal("--trace-out needs --shards 1");
        if (args.getInt("stats-interval") != 0)
            fatal("--stats-interval needs --shards 1");
    }

    std::string address = "127.0.0.1";
    std::string port_text = listen;
    const size_t colon = listen.rfind(':');
    if (colon != std::string::npos) {
        address = listen.substr(0, colon);
        port_text = listen.substr(colon + 1);
    }
    int64_t port = -1;
    try {
        size_t used = 0;
        port = std::stoll(port_text, &used);
        if (used != port_text.size())
            port = -1;
    } catch (const std::exception &) {
        port = -1;
    }
    if (port < 0 || port > 65535)
        fatal("--listen wants \"PORT\" or \"ADDR:PORT\" (got '" +
              listen + "')");

    const size_t workers = static_cast<size_t>(args.getInt("workers"));
    const size_t queue = static_cast<size_t>(args.getInt("queue"));
    // Shared with the epilogue below: only ever set by an in-process
    // factory call (shards == 1); worker processes fill their own copy.
    std::shared_ptr<api::ForecastEngine> local_engine;
    const auto factory = [&]() {
        auto engine = buildEngine();
        serve::ServerOptions options;
        options.workers = workers;
        options.queueCapacity = queue;
        local_engine = engine;
        return std::make_unique<serve::ForecastServer>(engine, options);
    };

    net::FrontendOptions fopt;
    fopt.bindAddress = address;
    fopt.port = static_cast<uint16_t>(port);
    fopt.shards = shards;
    fopt.maxInFlightPerClient = max_inflight;
    fopt.drainTimeoutMs = static_cast<int>(args.getInt("drain-timeout"));
    fopt.requestTimeoutMs =
        static_cast<int>(args.getInt("request-timeout"));
    fopt.heartbeatIntervalMs =
        static_cast<int>(args.getInt("heartbeat-interval"));
    fopt.faultSpec = args.getString("fault-spec");
    const int code = net::runFrontend(fopt, factory);

    if (shards == 1 && local_engine) {
        if (!args.getString("cache-save").empty()) {
            const size_t saved = local_engine->savePredictionCache();
            std::fprintf(stderr,
                         "neusight-serve: saved %zu cache entries to "
                         "%s\n",
                         saved, args.getString("cache-save").c_str());
        }
        if (!args.getString("metrics-json").empty()) {
            local_engine->metrics()->writeJson(
                args.getString("metrics-json"));
            std::fprintf(stderr,
                         "neusight-serve: wrote metrics snapshot to "
                         "%s\n",
                         args.getString("metrics-json").c_str());
        }
        if (!args.getString("trace-out").empty()) {
            const size_t events =
                obs::Tracer::global().writeChromeTrace(
                    args.getString("trace-out"));
            std::fprintf(stderr,
                         "neusight-serve: wrote %zu trace events to "
                         "%s\n",
                         events, args.getString("trace-out").c_str());
        }
    }
    return code;
}

int
run(int argc, const char *const *argv)
{
    // The accepted backend list comes from the registry itself, so the
    // help text below and the engine's unknown-backend error can never
    // drift from what is actually registered.
    const std::string backend_names =
        api::PredictorRegistry::withBuiltins()->namesJoined();

    common::ArgParser args(
        "neusight-serve",
        "serve latency forecasts over a JSON line protocol");
    args.addString("script", "",
                   "request script path (JSON lines); empty reads stdin");
    args.addInt("workers", 4, "worker threads");
    args.addInt("queue", 256, "request queue capacity");
    args.addInt("repeat", 1, "replay the script N times (batch mode)");
    args.addString("backend", "neusight",
                   "default forecast backend: " + backend_names +
                       " (requests may name any of these per line via "
                       "\"backend\")");
    args.addString("predictor", "neusight_nvidia.bin",
                   "trained predictor cache path (neusight backend)");
    args.addString("precision", "f64",
                   "NeuSight MLP inference lane: f64 (bit-exact "
                   "reference) or f32 (SIMD single-precision)");
    args.addInt("cache-capacity", 65536,
                "kernel-prediction cache entries");
    args.addFlag("no-cache", "disable the kernel-prediction cache");
    args.addString("cache-load", "",
                   "warm-start: load a kernel-prediction cache snapshot "
                   "(JSON lines written by --cache-save)");
    args.addString("cache-save", "",
                   "snapshot the kernel-prediction cache to this path "
                   "on exit");
    args.addInt("graph-cache-capacity", 128,
                "model-graph cache entries (constructed KernelGraphs "
                "memoized per request fingerprint)");
    args.addFlag("no-graph-cache", "disable the model-graph cache");
    args.addFlag("async",
                 "pipeline stdin with execution: submit every line as "
                 "it arrives and print results in submission order, so "
                 "one piped client saturates the worker pool");
    args.addString("metrics-json", "",
                   "write the metrics-registry snapshot (counters, "
                   "per-kind latency histograms) to this path on exit");
    args.addString("trace-out", "",
                   "enable span tracing and write a Chrome trace-event "
                   "JSON (chrome://tracing / Perfetto) to this path on "
                   "exit");
    args.addInt("stats-interval", 0,
                "print the metrics table to stderr every N seconds "
                "(0 disables)");
    args.addString("listen", "",
                   "serve over TCP instead of stdin: \"PORT\" or "
                   "\"ADDR:PORT\" (port 0 binds an ephemeral port, "
                   "reported on stderr); SIGTERM/SIGINT drain "
                   "gracefully");
    args.addInt("shards", 1,
                "worker processes behind --listen; requests route to "
                "shards by consistent-hashing their fingerprints, so "
                "each shard's caches stay hot and disjoint");
    args.addInt("max-inflight", 256,
                "per-connection in-flight requests before admission "
                "control rejects (--listen mode)");
    args.addInt("request-timeout", 30000,
                "default per-request deadline in ms (--listen mode); a "
                "request past it gets a typed \"timeout\" error; a "
                "request's own \"timeout_ms\" field overrides; 0 = "
                "unbounded");
    args.addInt("drain-timeout", 30000,
                "graceful-drain bound in ms after SIGTERM/SIGINT "
                "(--listen mode): answer what was accepted, then exit "
                "even if unflushed");
    args.addInt("heartbeat-interval", 1000,
                "router-to-shard heartbeat period in ms (--listen with "
                "--shards > 1); a shard missing 3 pongs is presumed "
                "wedged, killed and respawned; 0 disables");
    const char *env_fault = std::getenv("NEUSIGHT_FAULT_SPEC");
    args.addString("fault-spec", env_fault ? env_fault : "",
                   "chaos fault injection into the shard workers, e.g. "
                   "\"kill:shard=1,after=100;delay:ms=5,every=8\" "
                   "(kinds: kill|wedge|delay|truncate|garbage; defaults "
                   "from $NEUSIGHT_FAULT_SPEC; --listen mode)");
    if (!args.parse(argc, argv))
        return 0;

    if (!args.getString("trace-out").empty())
        obs::Tracer::global().setEnabled(true);

    const int64_t workers = args.getInt("workers");
    const int64_t queue = args.getInt("queue");
    const int64_t repeat = args.getInt("repeat");
    const int64_t capacity = args.getInt("cache-capacity");
    if (workers < 1 || queue < 1 || repeat < 1 || capacity < 1)
        fatal("--workers, --queue, --repeat and --cache-capacity must "
              "be at least 1");
    const int64_t graph_capacity = args.getInt("graph-cache-capacity");
    if (graph_capacity < 1)
        fatal("--graph-cache-capacity must be at least 1");
    const bool no_cache = args.getFlag("no-cache");
    if (no_cache && (!args.getString("cache-load").empty() ||
                     !args.getString("cache-save").empty()))
        fatal("--cache-load/--cache-save need the kernel-prediction "
              "cache (drop --no-cache)");

    const auto buildEngine = [&]() {
        auto built = std::make_shared<api::ForecastEngine>(
            api::EngineConfig()
                .backend(args.getString("backend"))
                .predictor(args.getString("predictor"))
                .precision(args.getString("precision"))
                .cache(no_cache ? 0 : static_cast<size_t>(capacity))
                .graphCache(args.getFlag("no-graph-cache")
                                ? 0
                                : static_cast<size_t>(graph_capacity))
                .loadCacheFrom(args.getString("cache-load"))
                .saveCacheTo(args.getString("cache-save")));
        if (!args.getString("cache-load").empty())
            std::fprintf(stderr,
                         "neusight-serve: warmed the prediction cache "
                         "with %zu entries from %s\n",
                         built->predictionCache()->size(),
                         args.getString("cache-load").c_str());
        // Load the default backend up front: an unknown --backend
        // fails here, with the registry-derived list in the error.
        built->backend();
        return built;
    };

    const std::string listen = args.getString("listen");
    const int64_t shards = args.getInt("shards");
    const int64_t max_inflight = args.getInt("max-inflight");
    if (shards < 1)
        fatal("--shards must be at least 1");
    if (max_inflight < 1)
        fatal("--max-inflight must be at least 1");
    if (listen.empty() && shards != 1)
        fatal("--shards needs --listen (sharding is a property of the "
              "socket front-end)");
    if (args.getInt("request-timeout") < 0 ||
        args.getInt("heartbeat-interval") < 0)
        fatal("--request-timeout and --heartbeat-interval must be "
              "non-negative (0 disables)");
    if (args.getInt("drain-timeout") < 1)
        fatal("--drain-timeout must be at least 1 ms");
    if (!args.getString("fault-spec").empty()) {
        if (listen.empty())
            fatal("--fault-spec needs --listen (faults inject into the "
                  "socket serving path)");
        // Validate the grammar now: a typo must fail at startup, not
        // silently inject nothing in the workers.
        net::FaultInjector::parseRules(args.getString("fault-spec"));
    }
    if (!listen.empty())
        return runListen(args, listen, static_cast<size_t>(shards),
                         static_cast<size_t>(max_inflight), buildEngine);

    auto engine = buildEngine();
    const std::shared_ptr<serve::PredictionCache> cache =
        engine->predictionCache();

    serve::ServerOptions options;
    options.workers = static_cast<size_t>(workers);
    options.queueCapacity = static_cast<size_t>(queue);
    serve::ForecastServer server(engine, options);

    // Periodic stderr metrics reporting: a detached-loop thread woken
    // early on shutdown so exit never waits out the interval.
    const int64_t stats_interval = args.getInt("stats-interval");
    if (stats_interval < 0)
        fatal("--stats-interval must be non-negative");
    std::mutex reporter_mutex;
    std::condition_variable reporter_cv;
    bool reporter_stop = false;
    std::thread reporter;
    if (stats_interval > 0) {
        reporter = std::thread([&] {
            std::unique_lock<std::mutex> lock(reporter_mutex);
            for (;;) {
                if (reporter_cv.wait_for(
                        lock, std::chrono::seconds(stats_interval),
                        [&] { return reporter_stop; }))
                    return;
                const std::string table = engine->metrics()->toTable();
                std::fprintf(stderr, "neusight-serve: metrics\n%s",
                             table.c_str());
            }
        });
    }

    const auto start = std::chrono::steady_clock::now();
    uint64_t answered = 0;
    uint64_t failed = 0;

    const std::string script = args.getString("script");
    if (!script.empty() && args.getFlag("async"))
        fatal("--async applies to stdin; --script already submits the "
              "whole script through the worker pool");
    if (script.empty()) {
        if (repeat != 1)
            fatal("--repeat needs --script (stdin is answered line by "
                  "line as it arrives)");
        // Stdin: submit each line the moment it parses and print results
        // in submission order. Without --async the window is one request,
        // so each answer prints before the next line is read (a REPL
        // over a held-open pipe). --async overlaps execution with
        // reading, so one piped client keeps every worker busy; ready
        // results print as lines arrive, and a slow head-of-line request
        // holds back at most 4096 completed ones.
        const size_t backlog = args.getFlag("async") ? 4096 : 0;
        std::deque<std::future<serve::ForecastResult>> inflight;
        const auto emitFront = [&] {
            const serve::ForecastResult result = inflight.front().get();
            inflight.pop_front();
            ++answered;
            if (!result.ok)
                ++failed;
            printResult(result);
        };
        std::string line;
        size_t line_no = 0;
        while (std::getline(std::cin, line)) {
            ++line_no;
            if (serve::isSkippableRequestLine(line))
                continue;
            try {
                inflight.push_back(server.submit(serve::requestFromJson(
                    common::Json::parse(line))));
            } catch (const std::exception &e) {
                serve::ForecastResult result;
                result.ok = false;
                result.error = "line " + std::to_string(line_no) + ": " +
                               e.what();
                std::promise<serve::ForecastResult> immediate;
                immediate.set_value(std::move(result));
                inflight.push_back(immediate.get_future());
            }
            while (!inflight.empty() &&
                   inflight.front().wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready)
                emitFront();
            while (inflight.size() > backlog)
                emitFront();
        }
        while (!inflight.empty())
            emitFront();
    } else {
        std::ifstream in(script);
        if (!in)
            fatal("cannot open request script '" + script + "'");
        const std::vector<serve::ForecastRequest> requests =
            serve::readRequestScript(in);
        if (requests.empty())
            fatal("request script '" + script + "' holds no requests");
        std::vector<std::future<serve::ForecastResult>> futures;
        futures.reserve(requests.size() * static_cast<size_t>(repeat));
        for (int64_t r = 0; r < repeat; ++r)
            for (const serve::ForecastRequest &req : requests)
                futures.push_back(server.submit(req));
        for (auto &future : futures) {
            serve::ForecastResult result = future.get();
            ++answered;
            if (!result.ok)
                ++failed;
            printResult(result);
        }
    }
    server.stop();
    if (reporter.joinable()) {
        {
            std::lock_guard<std::mutex> lock(reporter_mutex);
            reporter_stop = true;
        }
        reporter_cv.notify_all();
        reporter.join();
    }

    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const serve::ServerStats stats = server.stats();
    std::fprintf(stderr,
                 "neusight-serve: %llu requests (%llu failed, %llu "
                 "coalesced) in %.1f ms (%.0f req/s, %zu workers)\n",
                 static_cast<unsigned long long>(answered),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(stats.coalesced), wall_ms,
                 answered > 0 ? answered * 1e3 / wall_ms : 0.0,
                 stats.workers);
    if (cache) {
        const serve::CacheStats cs = cache->stats();
        std::fprintf(stderr,
                     "neusight-serve: cache %zu/%zu entries, %llu hits / "
                     "%llu misses (%.1f%% hit rate), %llu evictions\n",
                     cs.size, cs.capacity,
                     static_cast<unsigned long long>(cs.hits),
                     static_cast<unsigned long long>(cs.misses),
                     100.0 * cs.hitRate(),
                     static_cast<unsigned long long>(cs.evictions));
    }
    if (server.modelGraphCache()) {
        const serve::CacheStats gs = server.modelGraphCache()->stats();
        std::fprintf(stderr,
                     "neusight-serve: graph cache %zu/%zu graphs, %llu "
                     "hits / %llu misses (%.1f%% hit rate)\n",
                     gs.size, gs.capacity,
                     static_cast<unsigned long long>(gs.hits),
                     static_cast<unsigned long long>(gs.misses),
                     100.0 * gs.hitRate());
    }
    if (!args.getString("cache-save").empty()) {
        const size_t saved = engine->savePredictionCache();
        std::fprintf(stderr,
                     "neusight-serve: saved %zu cache entries to %s\n",
                     saved, args.getString("cache-save").c_str());
    }
    if (!args.getString("metrics-json").empty()) {
        engine->metrics()->writeJson(args.getString("metrics-json"));
        std::fprintf(stderr,
                     "neusight-serve: wrote metrics snapshot to %s\n",
                     args.getString("metrics-json").c_str());
    }
    if (!args.getString("trace-out").empty()) {
        const size_t events = obs::Tracer::global().writeChromeTrace(
            args.getString("trace-out"));
        std::fprintf(stderr,
                     "neusight-serve: wrote %zu trace events to %s\n",
                     events, args.getString("trace-out").c_str());
    }
    return failed == 0 ? 0 : 2;
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
