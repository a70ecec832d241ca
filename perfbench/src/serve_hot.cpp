/**
 * @file
 * serve_hot: the real `neusight-serve --listen 127.0.0.1:0 --backend
 * oracle --workers 2`, driven over loopback TCP by this one thread. The
 * client holds two connections in a closed loop with one request
 * outstanding on each — concurrency at the worker count, so queue wait
 * does not amplify noise — and replays a seeded order of a 32-request
 * repertoire. After the warm-up pass every graph and kernel is a cache
 * hit, so the time goes to the socket path, the serve queue and the
 * prediction-cache probes. One client thread plus the server's event
 * loop and two workers stay within four cores. A run is kSegments
 * servers in turn, each started, warmed and timed for its share of the
 * run.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "net/io.hpp"
#include "serve/wire.hpp"
#include "streams.hpp"

namespace perfbench {

namespace api = neusight::api;
namespace net = neusight::net;
namespace serve = neusight::serve;
using api::ForecastResult;
using neusight::common::Json;

namespace {

/** The server's worker threads. */
constexpr size_t kWorkers = 2;
/** Client connections, each with one request outstanding: as many as
 *  workers, so queue wait does not amplify noise. */
constexpr size_t kConnections = kWorkers;
/**
 * Servers per run. Each is started (one setup_s sample), warmed and then
 * timed for an equal share of the run, so the starts spread over the
 * run and their median sees the host the requests see.
 */
constexpr int kSegments = 15;
/** Seeded replay order length (cycled). */
constexpr size_t kOrderLength = 4096;
/** Reply wait before a request counts as unanswered. */
constexpr int kReplyTimeoutMs = 10000;
/** Wait for a SIGTERM-ed server to exit (its default drain bound). */
constexpr int kStopTimeoutMs = 30000;
/** Passes over the repertoire of the in-process layer timings. */
constexpr int kLayerPasses = 20;
/** In-process forecasts timed, in replay order, for engine.forecast_us. */
constexpr size_t kForecastReplays = 1024;

/** A spawned server and the pipe carrying its stderr. */
struct Server
{
    pid_t pid = -1;
    int errFd = -1;
    uint16_t port = 0;
};

/** A client connection with its partial-line buffer. */
struct Conn
{
    int fd = -1;
    std::string buffer;
    bool busy = false;
    size_t index = 0;
    double sentAt = 0.0;
    bool traced = false;
};

/**
 * Spawn the server and block until its "listening on" line arrives on
 * stderr (no sleeps, no polling loops on a timer).
 */
Server
startServer(const std::string &binary)
{
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        // The server must not outlive this driver, however it exits.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        const int devnull = open("/dev/null", O_RDWR);
        dup2(devnull, 0);
        dup2(devnull, 1);
        dup2(pipe_fds[1], 2);
        net::closeAllFdsExcept({0, 1, 2});
        const std::string workers = std::to_string(kWorkers);
        execl(binary.c_str(), binary.c_str(), "--listen", "127.0.0.1:0",
              "--backend", "oracle", "--workers", workers.c_str(),
              static_cast<char *>(nullptr));
        _exit(127);
    }
    close(pipe_fds[1]);
    Server server;
    server.pid = pid;
    server.errFd = pipe_fds[0];
    std::string text;
    const std::string marker = "listening on 127.0.0.1:";
    char chunk[512];
    for (;;) {
        pollfd p{server.errFd, POLLIN, 0};
        if (poll(&p, 1, 60000) <= 0)
            throw std::runtime_error("server never became ready");
        const ssize_t n = net::readRetry(server.errFd, chunk, sizeof chunk);
        if (n <= 0)
            throw std::runtime_error("server exited before listening: " +
                                     text);
        text.append(chunk, static_cast<size_t>(n));
        const size_t at = text.find(marker);
        if (at != std::string::npos &&
            text.find('\n', at) != std::string::npos) {
            server.port = static_cast<uint16_t>(
                std::stoul(text.substr(at + marker.size())));
            return server;
        }
    }
}

/**
 * SIGTERM, drain stderr to EOF (the server's exit closes it), reap.
 * A server that has not exited within its drain timeout is killed.
 * Returns the wait status.
 */
int
stopServer(Server &server)
{
    if (server.pid < 0)
        return 0;
    kill(server.pid, SIGTERM);
    char chunk[512];
    for (;;) {
        pollfd p{server.errFd, POLLIN, 0};
        if (poll(&p, 1, kStopTimeoutMs) <= 0) {
            kill(server.pid, SIGKILL);
            break;
        }
        if (net::readRetry(server.errFd, chunk, sizeof chunk) <= 0)
            break;
    }
    close(server.errFd);
    int status = 0;
    while (waitpid(server.pid, &status, 0) < 0 && errno == EINTR) {
    }
    server.pid = -1;
    return status;
}

/** Stops the server on every exit path. */
struct ServerGuard
{
    Server server;
    ~ServerGuard() { stopServer(server); }
};

/** Stop the server; a server that does not drain cleanly fails the run. */
void
stopChecked(Report &report, Server &server)
{
    const int status = stopServer(server);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        report.fail("server did not drain cleanly on SIGTERM");
}

Conn
connect(const Server &server)
{
    Conn c;
    c.fd = net::connectTcp("127.0.0.1", server.port);
    if (c.fd < 0)
        throw std::runtime_error("connect failed");
    net::setTcpNoDelay(c.fd);
    return c;
}

void
send(Conn &c, const std::string &line)
{
    if (!net::writeFully(c.fd, line.data(), line.size()))
        throw std::runtime_error("send failed");
}

/** Pop one complete line from the buffer, if any. */
bool
popLine(Conn &c, std::string &line)
{
    const size_t nl = c.buffer.find('\n');
    if (nl == std::string::npos)
        return false;
    line.assign(c.buffer, 0, nl);
    c.buffer.erase(0, nl + 1);
    return true;
}

/** Read what is available; false on EOF or error. */
bool
fill(Conn &c)
{
    char chunk[65536];
    const ssize_t n = net::readRetry(c.fd, chunk, sizeof chunk);
    if (n <= 0)
        return false;
    c.buffer.append(chunk, static_cast<size_t>(n));
    return true;
}

/** Blocking request/reply on one connection (warm-up, stats). */
std::string
roundTrip(Conn &c, const std::string &line)
{
    send(c, line);
    std::string reply;
    while (!popLine(c, reply)) {
        pollfd p{c.fd, POLLIN, 0};
        if (poll(&p, 1, kReplyTimeoutMs) <= 0 || !fill(c))
            throw std::runtime_error("no reply from the server");
    }
    return reply;
}

/** Decode a forecast reply; sets @p index from its tag. */
ForecastResult
parseReply(const std::string &line, size_t &index, double &service_us)
{
    const Json json = Json::parse(line);
    ForecastResult r;
    r.ok = json.at("ok").asBool();
    r.error = json.stringOr("error", "");
    r.latencyMs = json.numberOr("latency_ms", 0.0);
    r.oom = json.boolOr("oom", false);
    r.strategy = json.stringOr("strategy", "");
    service_us = json.numberOr("service_us", 0.0);
    index = std::stoul(json.at("tag").asString());
    return r;
}

/** The server's metrics-registry snapshot. */
Json
stats(Conn &c)
{
    return Json::parse(roundTrip(c, "{\"op\":\"stats\"}\n")).at("stats");
}

/** Server counters summed over the timed segments of a run. */
struct StatsDeltas
{
    std::map<std::string, double> counters;
    double queueWaitUs = 0.0;
    double queueWaits = 0.0;

    /** Add what the server counted between two stats snapshots. */
    void add(const Json &before, const Json &after)
    {
        for (const char *name :
             {"cache.prediction.hits", "cache.prediction.misses",
              "cache.prediction.inserts", "cache.prediction.evictions",
              "cache.graph.hits", "cache.graph.misses"})
            counters[name] +=
                after.numberOr(name, 0.0) - before.numberOr(name, 0.0);
        const std::string wait = "serve.queue_wait_us";
        const auto count = [&](const Json &s) {
            return s.has(wait) ? s.at(wait).numberOr("count", 0.0) : 0.0;
        };
        const auto total = [&](const Json &s) {
            return s.has(wait) ? count(s) * s.at(wait).numberOr("mean", 0.0)
                               : 0.0;
        };
        queueWaitUs += total(after) - total(before);
        queueWaits += count(after) - count(before);
    }
};

/** Median time per call of @p fn over @p passes. */
template <typename Fn>
double
medianMicros(int passes, Fn &&fn)
{
    Samples s;
    for (int i = 0; i < passes; ++i) {
        const double t = nowSeconds();
        fn();
        s.add(1e6 * (nowSeconds() - t));
    }
    return s.median();
}

} // namespace

Report
runServeHot(const Options &options)
{
    net::ignoreSigpipe();
    Report report;
    report.info.set("memory_latency_ns_start", memoryLatencyNs());

    const std::vector<StreamItem> repertoire = hotRepertoire();
    const std::vector<size_t> order =
        hotOrder(options.seed, repertoire.size(), kOrderLength);
    std::vector<std::string> lines;
    for (const StreamItem &item : repertoire)
        lines.push_back(serve::requestToJson(item.request).dump(0) + "\n");

    // Reference answers from a fresh in-process engine, before any
    // timing.
    api::ForecastEngine reference(engineConfig());
    std::vector<ForecastResult> expected;
    for (const StreamItem &item : repertoire)
        expected.push_back(reference.forecast(item.request));

    TimedPhase phase;
    Samples setup;
    Samples start_ms;
    Samples peak_rss_mb;
    Samples traced_ms;
    Samples rtt_minus_service_us;
    Samples service_us_samples;
    StatsDeltas deltas;
    size_t cursor = 0;
    ServerGuard guard;
    const double segment_seconds = options.seconds / kSegments;
    for (int segment = 0; segment < kSegments; ++segment) {
        // Setup: exec to the ready line, then a warm-up pass over the
        // repertoire.
        const double t = nowSeconds();
        guard.server = startServer(options.serveBinary);
        start_ms.add(1000.0 * (nowSeconds() - t));
        Conn warm = connect(guard.server);
        for (size_t k = 0; k < repertoire.size(); ++k) {
            size_t index = 0;
            double service_us = 0.0;
            const ForecastResult r =
                parseReply(roundTrip(warm, lines[k]), index, service_us);
            if (index != k)
                report.fail("warm-up reply out of order");
            sameAnswer(report, r, expected[k], "warm-up request " +
                                                   std::to_string(k));
        }
        setup.add(nowSeconds() - t);
        net::closeFd(warm.fd);
        const Server &server = guard.server;

        Conn control = connect(server);
        const Json stats_before = stats(control);
        std::vector<Conn> conns;
        for (size_t i = 0; i < kConnections; ++i)
            conns.push_back(connect(server));

        // Timed segment: closed loop, one request outstanding per
        // connection, continuing the replay order.
        const double timed_before = phase.seconds;
        const ProcUsage usage_start = procUsage(server.pid);
        const double start = nowSeconds();
        const double deadline = start + segment_seconds;
        double last_reply = start;
        const auto issue = [&](Conn &c) {
            c.index = order[cursor++ % order.size()];
            c.sentAt = nowSeconds();
            c.traced = inTracedBlock(options, timed_before + c.sentAt - start);
            c.busy = true;
            ++phase.ledger.sent;
            send(c, lines[c.index]);
        };
        for (Conn &c : conns)
            issue(c);
        const auto busy = [&] {
            return std::any_of(conns.begin(), conns.end(),
                               [](const Conn &c) { return c.busy; });
        };
        std::vector<pollfd> fds(conns.size());
        while (busy()) {
            for (size_t i = 0; i < conns.size(); ++i)
                fds[i] = {conns[i].busy ? conns[i].fd : -1, POLLIN, 0};
            if (poll(fds.data(), fds.size(), kReplyTimeoutMs) <= 0) {
                for (Conn &c : conns)
                    if (c.busy) {
                        ++phase.ledger.unanswered;
                        c.busy = false;
                    }
                report.fail("server stopped answering");
                break;
            }
            for (size_t i = 0; i < conns.size(); ++i) {
                Conn &c = conns[i];
                if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                if (!fill(c)) {
                    ++phase.ledger.unanswered;
                    c.busy = false;
                    report.fail("connection closed mid-request");
                    continue;
                }
                std::string line;
                if (!popLine(c, line))
                    continue;
                const double now = nowSeconds();
                last_reply = now;
                const double rtt_ms = 1000.0 * (now - c.sentAt);
                size_t index = 0;
                double service_us = 0.0;
                const ForecastResult r = parseReply(line, index, service_us);
                c.busy = false;
                if (r.ok)
                    ++phase.ledger.ok;
                else
                    ++phase.ledger.failed;
                if (index != c.index)
                    report.fail("reply tag does not match the request");
                else
                    sameAnswer(report, r, expected[index],
                               "request " + std::to_string(index));
                if (c.traced) {
                    traced_ms.add(rtt_ms);
                    rtt_minus_service_us.add(1000.0 * rtt_ms - service_us);
                    service_us_samples.add(service_us);
                } else {
                    phase.latencyMs.add(rtt_ms);
                }
                if (now < deadline)
                    issue(c);
            }
        }
        phase.seconds += last_reply - start;
        const ProcUsage usage_end = procUsage(server.pid);
        phase.cpuSeconds += usage_end.cpuSeconds - usage_start.cpuSeconds;
        peak_rss_mb.add(usage_end.peakRssMb);
        deltas.add(stats_before, stats(control));
        for (Conn &c : conns)
            net::closeFd(c.fd);
        net::closeFd(control.fd);
        stopChecked(report, guard.server);
    }
    // Every server does the same work; the run reports the median peak.
    phase.rssMb = peak_rss_mb.median();

    if (!options.trace) {
        reportEndToEnd(report, phase, setup);
    } else {
        std::map<std::string, double> &c = deltas.counters;
        std::map<std::string, double> layer;
        layer["net.rtt_minus_service_us"] = rtt_minus_service_us.median();
        layer["net.start_ms"] = start_ms.median();
        layer["serve.service_us"] = service_us_samples.median();
        layer["serve.queue_wait_us"] =
            fraction(deltas.queueWaitUs, deltas.queueWaits);
        const double hits = c["cache.prediction.hits"];
        layer["cache.hit_frac"] =
            fraction(hits, hits + c["cache.prediction.misses"]);
        layer["cache.inserts"] = c["cache.prediction.inserts"];
        layer["cache.evictions"] = c["cache.prediction.evictions"];
        const double graph_hits = c["cache.graph.hits"];
        layer["graph_cache.hit_frac"] =
            fraction(graph_hits, graph_hits + c["cache.graph.misses"]);

        // In-process timings of the layers the server calls, on the same
        // repertoire (the reference engine is warm, like the server).
        Samples parse_us, encode_us, build_us, kernels, probe_us, oracle_us;
        const auto &oracle = reference.registry().get("oracle");
        for (size_t k = 0; k < repertoire.size(); ++k) {
            const std::string line = lines[k].substr(0, lines[k].size() - 1);
            parse_us.add(medianMicros(kLayerPasses, [&] {
                serve::requestFromJson(Json::parse(line));
            }));
            encode_us.add(medianMicros(kLayerPasses, [&] {
                serve::resultToJson(expected[k]).dump(0);
            }));
            const auto g = graphOf(repertoire[k]);
            const double n = static_cast<double>(g.computeNodeCount());
            kernels.add(n);
            build_us.add(
                medianMicros(kLayerPasses, [&] { graphOf(repertoire[k]); }));
            probe_us.add(medianMicros(kLayerPasses, [&] {
                             reference.backend().predictGraphMs(
                                 g, repertoire[k].request.gpu);
                         }) /
                         n);
            oracle_us.add(medianMicros(kLayerPasses, [&] {
                              oracle.predictGraphMs(g,
                                                    repertoire[k].request.gpu);
                          }) /
                          n);
        }
        // The engine's forecast as the server's workers run it: one
        // thread per worker on one shared engine, each in replay order.
        // The servers have exited, so the thread budget holds.
        std::vector<std::vector<double>> per_worker(kWorkers);
        {
            std::vector<std::thread> workers;
            for (size_t w = 0; w < kWorkers; ++w)
                workers.emplace_back([&, w] {
                    for (size_t i = w; i < kForecastReplays; i += kWorkers) {
                        const api::ForecastRequest &r =
                            repertoire[order[i % order.size()]].request;
                        const double t = nowSeconds();
                        reference.forecast(r);
                        per_worker[w].push_back(1e6 * (nowSeconds() - t));
                    }
                });
            for (std::thread &worker : workers)
                worker.join();
        }
        Samples forecast_us;
        for (const std::vector<double> &times : per_worker)
            for (const double us : times)
                forecast_us.add(us);
        layer["wire.parse_us"] = parse_us.median();
        layer["wire.encode_us"] = encode_us.median();
        layer["engine.forecast_us"] = forecast_us.median();
        layer["graph.build_us"] = build_us.median();
        layer["graph.kernels_per_req"] = kernels.median();
        layer["cache.probe_us_per_kernel"] = probe_us.median();
        layer["oracle.kernel_us"] = oracle_us.median();
        // Blocking path from independently timed layers: the socket
        // trip, queue wait and wire codec outside the worker (the client
        // RTT less the server's service time, less the queue and codec
        // terms listed beside it), and the engine's forecast timed
        // in-process in place of the server's own service time.
        const double outside_us = layer["net.rtt_minus_service_us"];
        const double queue_us = layer["serve.queue_wait_us"];
        const double codec_us = layer["wire.parse_us"] + layer["wire.encode_us"];
        reportTrace(report, phase, traced_ms,
                    {{"net", (outside_us - queue_us - codec_us) / 1000.0},
                     {"serve.queue_wait", queue_us / 1000.0},
                     {"wire.parse", layer["wire.parse_us"] / 1000.0},
                     {"wire.encode", layer["wire.encode_us"] / 1000.0},
                     {"engine.forecast", layer["engine.forecast_us"] / 1000.0}},
                    layer);
    }
    report.info.set("memory_latency_ns_end", memoryLatencyNs());
    return report;
}

} // namespace perfbench
