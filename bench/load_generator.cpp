/**
 * @file
 * Socket load generator: drives the TCP front-end (net::runFrontend)
 * end to end — fork a server, replay a mixed hot-cache request stream
 * over real sockets from pipelined client connections, and report
 * req/s plus end-to-end latency quantiles per shard count. The gate
 * compares the highest shard count against shards=1: multi-process
 * sharding must not lose throughput on a hot-cache workload (and is
 * expected to gain, since shards own disjoint cache populations).
 *
 *   bench_load_generator --requests 1000000 --shards 1,4 \
 *       --json BENCH_net.json --min-scaling 1.0
 *
 * --chaos turns each run into a fault-tolerance benchmark: a chaos
 * thread SIGKILLs a live shard worker every --chaos-period-ms while
 * the clients keep driving load, and the report gains the kill count,
 * the error rate (typed errors are tolerated, not required to be
 * zero), and recovery-time quantiles (kill to respawned worker).
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "api/engine.hpp"
#include "common/argparse.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "net/frontend.hpp"
#include "net/io.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

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
 * The mixed hot-cache wire workload: a few models at a few batch sizes
 * and context lengths — a modest set of distinct fingerprints hit over
 * and over (the production pattern), pre-encoded once so the timed
 * loop's client-side cost is a write() per line.
 */
std::vector<std::string>
buildRequestLines()
{
    const std::vector<std::string> models = {"GPT2-Large", "GPT3-XL",
                                             "BERT-Large", "OPT-1.3B"};
    std::vector<std::string> lines;
    for (size_t m = 0; m < models.size(); ++m) {
        for (uint64_t batch = 1; batch <= 4; ++batch) {
            common::Json prefill;
            prefill.set("op", "inference");
            prefill.set("model", models[m]);
            prefill.set("batch", batch);
            prefill.set("gpu", "H100");
            lines.push_back(prefill.dump(0));
            common::Json decode;
            decode.set("op", "decode");
            decode.set("model", models[m]);
            decode.set("batch", batch);
            decode.set("past", 256 * batch);
            decode.set("gpu", "H100");
            lines.push_back(decode.dump(0));
        }
    }
    return lines;
}

/** Fork a TCP server child; returns its pid and the bound port. */
pid_t
spawnServer(size_t shards, size_t workers, bool chaos,
            uint16_t *port_out)
{
    int report[2];
    if (::pipe(report) != 0)
        fatal(std::string("load_generator: pipe failed: ") +
              strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal(std::string("load_generator: fork failed: ") +
              strerror(errno));
    if (pid == 0) {
        net::closeFd(report[0]);
        net::FrontendOptions fopt;
        fopt.port = 0;
        fopt.shards = shards;
        fopt.portReportFd = report[1];
        fopt.readyLabel = ""; // The port pipe is the ready signal.
        if (chaos) {
            // Under kill injection no request may hang forever, and a
            // fast heartbeat keeps detection off the critical path.
            fopt.requestTimeoutMs = 10000;
            fopt.heartbeatIntervalMs = 200;
        }
        const auto factory = [workers]() {
            auto engine = std::make_shared<api::ForecastEngine>(
                api::EngineConfig().backend("oracle"));
            engine->backend();
            serve::ServerOptions options;
            options.workers = workers;
            return std::make_unique<serve::ForecastServer>(engine,
                                                           options);
        };
        std::_Exit(net::runFrontend(fopt, factory));
    }
    net::closeFd(report[1]);
    // Read "<port>\n" — written once the socket listens, so connecting
    // after this read can never race the bind.
    std::string text;
    char c = 0;
    while (net::readRetry(report[0], &c, 1) == 1 && c != '\n')
        text.push_back(c);
    net::closeFd(report[0]);
    if (text.empty())
        fatal("load_generator: server child died before listening");
    *port_out = static_cast<uint16_t>(std::stoul(text));
    return pid;
}

/** One connection's share of the load, pipelined @p window deep. */
void
clientLoop(uint16_t port, const std::vector<std::string> &lines,
           size_t requests, size_t window, size_t offset,
           obs::Histogram &latency, std::atomic<uint64_t> &errors)
{
    const int fd = net::connectTcp("127.0.0.1", port);
    if (fd < 0)
        fatal(std::string("load_generator: connect failed: ") +
              strerror(errno));
    serve::LineFramer framer;
    std::unordered_map<uint64_t, std::chrono::steady_clock::time_point>
        sent;
    uint64_t next_tag = 0;
    size_t inflight = 0;

    const auto readReply = [&]() {
        std::string line;
        for (;;) {
            if (framer.next(line) == serve::LineFramer::Event::Line) {
                const auto now = std::chrono::steady_clock::now();
                uint64_t tag = UINT64_MAX;
                bool ok = false;
                try {
                    const common::Json json = common::Json::parse(line);
                    tag = static_cast<uint64_t>(
                        std::stoull(json.stringOr("tag", "")));
                    ok = json.boolOr("ok", false);
                } catch (const std::exception &) {
                }
                const auto it = sent.find(tag);
                if (it == sent.end()) {
                    errors.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
                if (ok)
                    latency.record(
                        std::chrono::duration<double, std::micro>(
                            now - it->second)
                            .count());
                else
                    errors.fetch_add(1, std::memory_order_relaxed);
                sent.erase(it);
                return;
            }
            char buf[64 * 1024];
            const ssize_t n = net::readRetry(fd, buf, sizeof(buf));
            if (n <= 0)
                fatal("load_generator: server closed the connection "
                      "mid-run");
            framer.feed(buf, static_cast<size_t>(n));
        }
    };

    for (size_t i = 0; i < requests; ++i) {
        while (inflight >= window) {
            readReply();
            --inflight;
        }
        const uint64_t tag = next_tag++;
        // Append the tag into the pre-encoded line: ...} -> ...,"tag":"N"}
        std::string line = lines[(offset + i) % lines.size()];
        line.pop_back();
        line += ",\"tag\":\"" + std::to_string(tag) + "\"}\n";
        sent.emplace(tag, std::chrono::steady_clock::now());
        if (!net::writeFully(fd, line.data(), line.size()))
            fatal("load_generator: write failed mid-run");
        ++inflight;
    }
    while (inflight > 0) {
        readReply();
        --inflight;
    }
    ::shutdown(fd, SHUT_WR);
    net::closeFd(fd);
}

/** The server's direct children (= live shard workers). */
std::vector<pid_t>
childrenOf(pid_t pid)
{
    const std::string path = "/proc/" + std::to_string(pid) + "/task/" +
                             std::to_string(pid) + "/children";
    std::ifstream in(path);
    std::vector<pid_t> pids;
    long long child = 0;
    while (in >> child)
        pids.push_back(static_cast<pid_t>(child));
    return pids;
}

/**
 * The chaos thread: every @p period_ms, SIGKILL one live shard worker
 * (rotating across the fleet) and time how long the supervisor takes
 * to bring the fleet back to strength — kill to respawned child, as
 * seen from /proc. Runs until @p done; skips a round while a previous
 * kill is still recovering.
 */
void
chaosLoop(pid_t server, size_t shards, int period_ms,
          std::atomic<bool> &done, obs::Histogram &recovery_ms,
          std::atomic<uint64_t> &kills)
{
    const auto sleepUnlessDone = [&done](int ms) {
        for (int waited = 0; waited < ms && !done.load(); waited += 5)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    while (!done.load()) {
        sleepUnlessDone(period_ms);
        if (done.load())
            return;
        const std::vector<pid_t> pids = childrenOf(server);
        if (pids.size() < shards)
            continue; // Still short-handed from the previous kill.
        const pid_t victim =
            pids[static_cast<size_t>(kills.load()) % pids.size()];
        if (::kill(victim, SIGKILL) != 0)
            continue;
        kills.fetch_add(1);
        const auto killed_at = std::chrono::steady_clock::now();
        // The dead child leaves /proc once the router reaps it; the
        // fleet is whole again once the respawned worker appears.
        bool shrank = false;
        while (!done.load()) {
            const size_t alive = childrenOf(server).size();
            if (alive < shards)
                shrank = true;
            else if (shrank) {
                recovery_ms.record(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - killed_at)
                        .count());
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
}

struct RunResult
{
    double reqPerSec = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    uint64_t errors = 0;
    uint64_t answered = 0;
    uint64_t kills = 0;
    double errorRate = 0.0;
    double recoveryP50Ms = 0.0;
    double recoveryP99Ms = 0.0;
};

RunResult
runOnce(size_t shards, size_t workers, size_t requests,
        size_t connections, size_t window,
        const std::vector<std::string> &lines, bool chaos,
        int chaos_period_ms)
{
    uint16_t port = 0;
    const pid_t server = spawnServer(shards, workers, chaos, &port);

    obs::Histogram latency;
    obs::Histogram recovery_ms;
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> kills{0};
    std::atomic<bool> chaos_done{false};
    std::thread chaos_thread;
    if (chaos && shards > 1)
        chaos_thread = std::thread(chaosLoop, server, shards,
                                   chaos_period_ms, std::ref(chaos_done),
                                   std::ref(recovery_ms),
                                   std::ref(kills));
    std::vector<std::thread> clients;
    const size_t per_conn = requests / connections;
    const auto start = std::chrono::steady_clock::now();
    for (size_t c = 0; c < connections; ++c) {
        const size_t extra = c == 0 ? requests % connections : 0;
        clients.emplace_back(clientLoop, port, std::cref(lines),
                             per_conn + extra, window,
                             c * 7919 /* decorrelate the mixes */,
                             std::ref(latency), std::ref(errors));
    }
    for (std::thread &t : clients)
        t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (chaos_thread.joinable()) {
        chaos_done.store(true);
        chaos_thread.join();
    }

    ::kill(server, SIGTERM);
    int status = 0;
    pid_t rc;
    do {
        rc = ::waitpid(server, &status, 0);
    } while (rc < 0 && errno == EINTR);
    ensure(rc == server && WIFEXITED(status) && WEXITSTATUS(status) == 0,
           "load_generator: server did not drain cleanly on SIGTERM");

    RunResult out;
    out.answered = latency.count();
    out.errors = errors.load();
    out.reqPerSec =
        static_cast<double>(requests) / std::max(seconds, 1e-9);
    out.p50Us = latency.quantile(0.50);
    out.p99Us = latency.quantile(0.99);
    out.p999Us = latency.quantile(0.999);
    out.kills = kills.load();
    out.errorRate = static_cast<double>(out.errors) /
                    static_cast<double>(std::max<size_t>(requests, 1));
    out.recoveryP50Ms = recovery_ms.quantile(0.50);
    out.recoveryP99Ms = recovery_ms.quantile(0.99);
    return out;
}

int
run(int argc, const char *const *argv)
{
    common::ArgParser args(
        "bench_load_generator",
        "req/s and latency quantiles through the TCP front-end vs "
        "shard count");
    args.addInt("requests", 1000000, "requests per shard-count run");
    args.addString("shards", "1,4", "comma list of shard counts");
    args.addInt("workers", 2, "forecast workers per shard");
    args.addInt("connections", 8, "client connections");
    args.addInt("window", 64, "pipelined requests per connection");
    args.addString("json", "load_generator.json",
                   "JSON report output path");
    args.addDouble("min-scaling", 0.0,
                   "fail (exit 3) when req/s at the highest shard count "
                   "falls below this multiple of the shards=1 req/s; "
                   "0 disables");
    args.addFlag("chaos",
                 "SIGKILL a shard worker every --chaos-period-ms during "
                 "each run and report error rate plus recovery-time "
                 "quantiles (sharded runs only)");
    args.addInt("chaos-period-ms", 2000,
                "interval between chaos kills with --chaos");
    if (!args.parse(argc, argv))
        return 0;

    setQuiet(false);
    const int64_t requests = args.getInt("requests");
    const int64_t workers = args.getInt("workers");
    const int64_t connections = args.getInt("connections");
    const int64_t window = args.getInt("window");
    const bool chaos = args.getFlag("chaos");
    const int64_t chaos_period_ms = args.getInt("chaos-period-ms");
    if (requests < 1 || workers < 1 || connections < 1 || window < 1)
        fatal("--requests, --workers, --connections and --window must "
              "be at least 1");
    if (chaos && chaos_period_ms < 1)
        fatal("--chaos-period-ms must be at least 1");

    const std::vector<std::string> lines = buildRequestLines();

    TextTable table(
        "Socket front-end load (" + std::to_string(requests) +
            " requests, " + std::to_string(connections) +
            " connections, window " + std::to_string(window) +
            (chaos ? ", chaos" : "") + ")",
        {"shards", "req/s", "p50 (us)", "p99 (us)", "p999 (us)",
         "errors", "kills", "recover p99"});
    common::Json runs;
    double first_reqps = 0.0;
    double last_reqps = 0.0;
    for (const std::string &item : splitList(args.getString("shards"))) {
        const size_t shards = static_cast<size_t>(std::stoul(item));
        if (shards < 1)
            fatal("--shards entries must be at least 1");
        const RunResult r = runOnce(
            shards, static_cast<size_t>(workers),
            static_cast<size_t>(requests),
            static_cast<size_t>(connections),
            static_cast<size_t>(window), lines, chaos,
            static_cast<int>(chaos_period_ms));
        // Under chaos, typed errors (timeouts on a killed shard) are
        // part of the deal; every request still got exactly one reply.
        if (!chaos)
            ensure(r.errors == 0, "load_generator: " +
                                      std::to_string(r.errors) +
                                      " requests failed");
        ensure(r.answered + r.errors ==
                   static_cast<uint64_t>(requests),
               "load_generator: replies do not account for every "
               "request");
        if (first_reqps == 0.0)
            first_reqps = r.reqPerSec;
        last_reqps = r.reqPerSec;
        table.addRow({std::to_string(shards),
                      TextTable::num(r.reqPerSec, 0),
                      TextTable::num(r.p50Us, 0),
                      TextTable::num(r.p99Us, 0),
                      TextTable::num(r.p999Us, 0),
                      std::to_string(r.errors),
                      std::to_string(r.kills),
                      r.kills > 0
                          ? TextTable::num(r.recoveryP99Ms, 0) + " ms"
                          : "-"});
        common::Json entry;
        entry.set("shards", static_cast<uint64_t>(shards));
        entry.set("req_per_s", r.reqPerSec);
        entry.set("p50_us", r.p50Us);
        entry.set("p99_us", r.p99Us);
        entry.set("p999_us", r.p999Us);
        entry.set("answered", r.answered);
        entry.set("errors", r.errors);
        if (chaos) {
            entry.set("kills", r.kills);
            entry.set("error_rate", r.errorRate);
            entry.set("recovery_ms_p50", r.recoveryP50Ms);
            entry.set("recovery_ms_p99", r.recoveryP99Ms);
        }
        runs.push(std::move(entry));
    }
    table.print();

    const double scaling =
        first_reqps > 0.0 ? last_reqps / first_reqps : 0.0;
    std::printf("\nscaling (highest shard count vs 1): %.2fx\n", scaling);

    common::Json report;
    report.set("requests", static_cast<uint64_t>(requests));
    report.set("connections", static_cast<uint64_t>(connections));
    report.set("window", static_cast<uint64_t>(window));
    report.set("workers_per_shard", static_cast<uint64_t>(workers));
    report.set("chaos", chaos);
    if (chaos)
        report.set("chaos_period_ms",
                   static_cast<uint64_t>(chaos_period_ms));
    report.set("scaling", scaling);
    report.set("runs", std::move(runs));
    const std::string path = args.getString("json");
    std::ofstream out(path);
    if (!out)
        fatal("cannot write JSON report '" + path + "'");
    out << report.dump(2) << "\n";
    std::printf("JSON report written to %s\n", path.c_str());

    const double required = args.getDouble("min-scaling");
    if (required > 0.0 && scaling < required) {
        std::fprintf(stderr,
                     "load_generator: shard scaling %.2fx is below the "
                     "required %.2fx\n",
                     scaling, required);
        return 3;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    net::ignoreSigpipe();
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
