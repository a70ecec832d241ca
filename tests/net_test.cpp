/**
 * @file
 * Tests for the socket front-end: LineFramer partial/merged/oversized
 * framing, consistent-hash ring stability and minimal disruption,
 * metrics-snapshot merging, and the SocketServer over a real loopback
 * TCP connection — round-trips, junk input, per-client admission,
 * engine-queue backpressure (counted in serve.rejected), a client
 * hanging up mid-write (the SIGPIPE regression), and graceful drain.
 * Plus the fault-tolerance layer: hash-ring re-add stability (a
 * respawned shard reclaims exactly its old keys), the respawn
 * scheduler's backoff/park policy, the fault-spec grammar, inline ping
 * answers, and request deadlines (typed "timeout" errors).
 * Plus the ShardRouter in-process: over socketpairs to SocketServer
 * shards serving their adopted ends, a seeded request corpus must
 * forecast the same as through one single-shard server, and a shard
 * that never answers must yield a typed timeout with a balanced ledger.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "net/fault.hpp"
#include "net/hash_ring.hpp"
#include "net/io.hpp"
#include "net/shard_router.hpp"
#include "net/socket_server.hpp"
#include "net/supervisor.hpp"
#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace neusight {
namespace {

using common::Json;

// ---------------------------------------------------------------- framing

std::vector<std::string>
drainFramer(serve::LineFramer &framer, int *oversized = nullptr)
{
    std::vector<std::string> lines;
    std::string line;
    for (;;) {
        const serve::LineFramer::Event event = framer.next(line);
        if (event == serve::LineFramer::Event::None)
            return lines;
        if (event == serve::LineFramer::Event::Oversized) {
            if (oversized != nullptr)
                ++*oversized;
            continue;
        }
        lines.push_back(line);
    }
}

TEST(LineFramer, ReassemblesSplitAndMergedLines)
{
    serve::LineFramer framer;
    // One line split across three feeds, then two lines in one feed.
    framer.feed("{\"a\":", 5);
    EXPECT_TRUE(drainFramer(framer).empty());
    framer.feed("1", 1);
    framer.feed("}\n{\"b\":2}\n{\"c\"", 14);
    const auto lines = drainFramer(framer);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "{\"a\":1}");
    EXPECT_EQ(lines[1], "{\"b\":2}");
    // The tail arrives later and completes.
    framer.feed(":3}\r\n", 5); // CRLF from a telnet-ish client.
    const auto tail = drainFramer(framer);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0], "{\"c\":3}");
}

TEST(LineFramer, OversizedLineIsDiscardedInStreamingFashion)
{
    serve::LineFramer framer(8);
    const std::string huge(100, 'x');
    // Fed in small chunks: the framer must not buffer the whole line.
    for (size_t i = 0; i < huge.size(); i += 10)
        framer.feed(huge.data() + i, std::min<size_t>(10, huge.size() - i));
    framer.feed("\nok\n", 4);
    int oversized = 0;
    const auto lines = drainFramer(framer, &oversized);
    EXPECT_EQ(oversized, 1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "ok"); // Recovery after the discard.
    EXPECT_LE(framer.buffered(), 16u);
}

// --------------------------------------------------------------- hash ring

TEST(HashRing, SameKeySameShardAcrossInstances)
{
    net::HashRing a(4);
    net::HashRing b(4);
    for (int i = 0; i < 500; ++i) {
        const std::string key = "fingerprint-" + std::to_string(i);
        EXPECT_EQ(a.shardFor(key), b.shardFor(key));
    }
}

TEST(HashRing, EveryShardOwnsTraffic)
{
    net::HashRing ring(4);
    std::vector<int> hits(4, 0);
    for (int i = 0; i < 2000; ++i)
        ++hits[ring.shardFor("key-" + std::to_string(i))];
    for (int s = 0; s < 4; ++s)
        EXPECT_GT(hits[s], 0) << "shard " << s << " owns no keys";
}

TEST(HashRing, RemovalOnlyRemapsTheDeadShardsKeys)
{
    net::HashRing ring(4);
    std::unordered_map<std::string, size_t> before;
    for (int i = 0; i < 1000; ++i) {
        const std::string key = "key-" + std::to_string(i);
        before[key] = ring.shardFor(key);
    }
    ring.removeShard(2);
    EXPECT_EQ(ring.liveShards(), 3u);
    EXPECT_FALSE(ring.contains(2));
    for (const auto &[key, shard] : before) {
        const size_t now = ring.shardFor(key);
        if (shard != 2)
            EXPECT_EQ(now, shard) << key << " moved needlessly";
        else
            EXPECT_NE(now, 2u) << key << " still on the dead shard";
    }
}

// ----------------------------------------------------------- merged stats

TEST(MergeMetrics, SumsCountersAndMergesHistograms)
{
    obs::MetricsRegistry a;
    obs::MetricsRegistry b;
    a.counter("serve.submitted")->inc(3);
    b.counter("serve.submitted")->inc(5);
    a.gauge("engine.instances")->add(1);
    b.gauge("engine.instances")->add(1);
    b.counter("only.in.b")->inc(7);
    a.histogram("serve.e2e_us", "us")->record(100.0);
    a.histogram("serve.e2e_us", "us")->record(200.0);
    b.histogram("serve.e2e_us", "us")->record(400.0);

    const Json merged =
        obs::mergeMetricsSnapshots({a.toJson(), b.toJson()});
    EXPECT_EQ(merged.at("serve.submitted").asInt(), 8);
    EXPECT_EQ(merged.at("engine.instances").asInt(), 2);
    EXPECT_EQ(merged.at("only.in.b").asInt(), 7);
    const Json &hist = merged.at("serve.e2e_us");
    EXPECT_EQ(hist.at("count").asInt(), 3);
    // The merged quantiles stay inside the recorded range.
    EXPECT_GE(hist.at("p50").asDouble(), 90.0);
    EXPECT_LE(hist.at("p999").asDouble(), 450.0);
}

// ------------------------------------------------------- loopback sockets

/** A SocketServer over a SimulatorOracle engine, run on its own
 *  thread, plus a line-oriented test client. */
class LoopbackServer
{
  public:
    explicit LoopbackServer(net::SocketServerOptions options =
                                net::SocketServerOptions(),
                            serve::ServerOptions engine_options = {})
        : server(std::make_shared<api::ForecastEngine>(
                     api::EngineConfig().backend("oracle").cache(0)),
                 engine_options),
          sock(server, options),
          thread([this] { sock.run(); })
    {
    }

    ~LoopbackServer()
    {
        sock.requestStop();
        thread.join();
        server.stop();
    }

    serve::ForecastServer server;
    net::SocketServer sock;
    std::thread thread;
};

class LineClient
{
  public:
    explicit LineClient(uint16_t port)
        : fd(net::connectTcp("127.0.0.1", port))
    {
        EXPECT_GE(fd, 0) << "connect failed: " << strerror(errno);
    }

    ~LineClient()
    {
        if (fd >= 0)
            net::closeFd(fd);
    }

    void send(const std::string &bytes)
    {
        ASSERT_TRUE(net::writeFully(fd, bytes.data(), bytes.size()));
    }

    /** Blocking read of the next reply line, parsed as JSON. */
    Json readReply()
    {
        std::string line;
        for (;;) {
            if (framer.next(line) == serve::LineFramer::Event::Line)
                return Json::parse(line);
            char buf[4096];
            const ssize_t n = net::readRetry(fd, buf, sizeof(buf));
            if (n <= 0)
                return Json(); // EOF / reset: callers assert on shape.
            framer.feed(buf, static_cast<size_t>(n));
        }
    }

    /** Close without reading; pending server writes will fail. */
    void hangUp()
    {
        net::closeFd(fd);
        fd = -1;
    }

    int fd;
    serve::LineFramer framer;
};

std::string
forecastLine(const std::string &model, uint64_t batch,
             const std::string &tag)
{
    Json json;
    json.set("op", "inference");
    json.set("model", model);
    json.set("batch", batch);
    json.set("gpu", "A100-40GB");
    json.set("tag", tag);
    return json.dump(0) + "\n";
}

TEST(SocketServer, RoundTripsSplitMergedAndJunkLines)
{
    LoopbackServer loop;
    LineClient client(loop.sock.port());

    // One request split across two writes.
    const std::string line = forecastLine("BERT-Large", 1, "split");
    client.send(line.substr(0, 10));
    client.send(line.substr(10));
    Json reply = client.readReply();
    EXPECT_TRUE(reply.boolOr("ok", false)) << reply.dump(0);
    EXPECT_EQ(reply.stringOr("tag", ""), "split");

    // Two requests plus a junk line in a single write: both answered,
    // the junk gets a clean error instead of killing the connection.
    client.send(forecastLine("BERT-Large", 2, "a") + "this is not json\n" +
                forecastLine("BERT-Large", 4, "b"));
    int ok = 0;
    int failed = 0;
    std::set<std::string> tags;
    for (int i = 0; i < 3; ++i) {
        reply = client.readReply();
        tags.insert(reply.stringOr("tag", ""));
        if (reply.boolOr("ok", false))
            ++ok;
        else
            ++failed;
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(failed, 1);
    EXPECT_TRUE(tags.count("a"));
    EXPECT_TRUE(tags.count("b"));

    // The connection is still healthy after the protocol error.
    client.send(forecastLine("BERT-Large", 8, "after"));
    reply = client.readReply();
    EXPECT_TRUE(reply.boolOr("ok", false));
    EXPECT_EQ(reply.stringOr("tag", ""), "after");
}

TEST(SocketServer, StatsRequestAnswersOverTheSocket)
{
    LoopbackServer loop;
    LineClient client(loop.sock.port());
    client.send(forecastLine("BERT-Large", 1, "warm"));
    EXPECT_TRUE(client.readReply().boolOr("ok", false));
    client.send("{\"op\":\"stats\",\"tag\":\"s\"}\n");
    const Json reply = client.readReply();
    EXPECT_TRUE(reply.boolOr("ok", false)) << reply.dump(0);
    ASSERT_TRUE(reply.has("stats"));
    EXPECT_GE(reply.at("stats").at("serve.completed").asInt(), 1);
    EXPECT_GE(reply.at("stats").at("net.lines").asInt(), 2);
}

TEST(SocketServer, MidWriteDisconnectDoesNotKillTheServer)
{
    LoopbackServer loop;
    {
        LineClient rude(loop.sock.port());
        // Queue work, then vanish without reading a single byte: the
        // completions land on a closed socket (EPIPE/ECONNRESET in the
        // flush path — fatal before SIGPIPE was ignored).
        std::string burst;
        for (int i = 0; i < 32; ++i)
            burst += forecastLine("BERT-Large",
                                  static_cast<uint64_t>(i + 1),
                                  "r" + std::to_string(i));
        rude.send(burst);
        rude.hangUp();
    }
    // Give the drain a moment to hit the dead socket, then prove the
    // server is still alive by serving a well-behaved client.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    LineClient polite(loop.sock.port());
    polite.send(forecastLine("BERT-Large", 2, "alive"));
    const Json reply = polite.readReply();
    EXPECT_TRUE(reply.boolOr("ok", false)) << reply.dump(0);
    EXPECT_EQ(reply.stringOr("tag", ""), "alive");
}

TEST(SocketServer, AdmissionLimitRejectsAndCountsInServeRejected)
{
    net::SocketServerOptions options;
    options.maxInFlightPerClient = 1;
    serve::ServerOptions engine_options;
    engine_options.workers = 1;
    LoopbackServer loop(options, engine_options);
    LineClient client(loop.sock.port());

    // A burst of distinct requests on one connection: with a single
    // in-flight slot, later ones must be rejected (not queued), and
    // every rejection lands in serve.rejected.
    std::string burst;
    constexpr int kBurst = 8;
    for (int i = 0; i < kBurst; ++i)
        burst += forecastLine("BERT-Large", static_cast<uint64_t>(i + 1),
                              "t" + std::to_string(i));
    client.send(burst);
    int ok = 0;
    int rejected = 0;
    for (int i = 0; i < kBurst; ++i) {
        const Json reply = client.readReply();
        if (reply.boolOr("ok", false)) {
            ++ok;
        } else {
            ++rejected;
            EXPECT_NE(reply.stringOr("error", "").find("admission"),
                      std::string::npos)
                << reply.dump(0);
        }
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(rejected, 1);
    EXPECT_GE(loop.server.stats().rejected,
              static_cast<uint64_t>(rejected));
}

TEST(SocketServer, EngineQueueBackpressureRejectsWhenFull)
{
    net::SocketServerOptions options;
    options.maxInFlightPerClient = 0; // Admission off: isolate queue.
    serve::ServerOptions engine_options;
    engine_options.workers = 1;
    engine_options.queueCapacity = 1;
    LoopbackServer loop(options, engine_options);
    LineClient client(loop.sock.port());

    // Distinct fingerprints (no coalescing): with a one-slot queue some
    // must bounce off the engine queue as overload rejections.
    std::string burst;
    constexpr int kBurst = 16;
    for (int i = 0; i < kBurst; ++i)
        burst += forecastLine("BERT-Large", static_cast<uint64_t>(i + 1),
                              "q" + std::to_string(i));
    client.send(burst);
    int ok = 0;
    int overloaded = 0;
    for (int i = 0; i < kBurst; ++i) {
        const Json reply = client.readReply();
        if (reply.boolOr("ok", false))
            ++ok;
        else if (reply.stringOr("error", "").find("overloaded") !=
                 std::string::npos)
            ++overloaded;
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(overloaded, 1);
    EXPECT_GE(loop.server.stats().rejected,
              static_cast<uint64_t>(overloaded));
}

TEST(SocketServer, OversizedRequestLineAnswersErrorAndCloses)
{
    net::SocketServerOptions options;
    options.maxLineBytes = 128;
    LoopbackServer loop(options);
    LineClient client(loop.sock.port());
    client.send(std::string(1024, 'x') + "\n");
    const Json reply = client.readReply();
    EXPECT_FALSE(reply.boolOr("ok", true));
    EXPECT_NE(reply.stringOr("error", "").find("exceeds"),
              std::string::npos);
    // The server closes after flushing the error.
    char buf[64];
    EXPECT_EQ(net::readRetry(client.fd, buf, sizeof(buf)), 0);
}

TEST(SocketServer, GracefulStopAnswersInFlightWork)
{
    LoopbackServer loop;
    LineClient client(loop.sock.port());
    std::string burst;
    constexpr int kBurst = 16;
    for (int i = 0; i < kBurst; ++i)
        burst += forecastLine("GPT2-Large", static_cast<uint64_t>(i + 1),
                              "g" + std::to_string(i));
    client.send(burst);
    // Let the epoll loop read (and accept) the whole burst — the
    // forecasts themselves take far longer than the reads — then stop
    // mid-computation: everything accepted must still be answered.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop.sock.requestStop(); // SIGTERM equivalent, mid-load.
    int answered = 0;
    for (int i = 0; i < kBurst; ++i) {
        const Json reply = client.readReply();
        if (reply.isObject() && reply.has("ok"))
            ++answered;
    }
    // Every accepted request is answered (ok or a drain rejection),
    // none silently dropped.
    EXPECT_EQ(answered, kBurst);
}

// -------------------------------------------------------- fault tolerance

TEST(HashRing, ReAddRestoresTheExactPreRemovalMapping)
{
    net::HashRing ring(5);
    std::unordered_map<std::string, size_t> before;
    for (int i = 0; i < 2000; ++i) {
        const std::string key = "key-" + std::to_string(i);
        before[key] = ring.shardFor(key);
    }
    // A shard dies and its respawned replacement rejoins: vnode labels
    // are deterministic, so the ring must return to the exact
    // pre-removal mapping — the newcomer reclaims precisely its old
    // keys and nobody else's cache goes cold.
    ring.removeShard(3);
    ring.addShard(3);
    EXPECT_EQ(ring.liveShards(), 5u);
    EXPECT_TRUE(ring.contains(3));
    for (const auto &[key, shard] : before)
        EXPECT_EQ(ring.shardFor(key), shard) << key << " remapped";
    // Re-adding a live shard is a no-op, not a double insertion.
    ring.addShard(3);
    EXPECT_EQ(ring.liveShards(), 5u);
    for (const auto &[key, shard] : before)
        EXPECT_EQ(ring.shardFor(key), shard) << key << " remapped";
}

TEST(RespawnScheduler, RapidDeathsBackOffExponentiallyThenPark)
{
    net::RespawnPolicy policy;
    policy.baseBackoffMs = 100;
    policy.maxBackoffMs = 400;
    policy.rapidWindowMs = 1000;
    policy.parkAfterRapidDeaths = 4;
    net::RespawnScheduler sched(policy);
    using Ms = std::chrono::milliseconds;
    net::RespawnScheduler::TimePoint t{}; // Synthetic clock.

    // A crash loop: every death lands well inside the rapid window.
    sched.recordSpawn(t);
    const auto d1 = sched.recordDeath(t + Ms(10));
    EXPECT_FALSE(d1.park);
    EXPECT_EQ(d1.delayMs, 100);
    sched.recordSpawn(t + Ms(120));
    const auto d2 = sched.recordDeath(t + Ms(130));
    EXPECT_FALSE(d2.park);
    EXPECT_EQ(d2.delayMs, 200);
    sched.recordSpawn(t + Ms(340));
    const auto d3 = sched.recordDeath(t + Ms(350));
    EXPECT_FALSE(d3.park);
    EXPECT_EQ(d3.delayMs, 400); // Clamped at maxBackoffMs.
    EXPECT_EQ(sched.rapidDeaths(), 3);
    sched.recordSpawn(t + Ms(760));
    const auto d4 = sched.recordDeath(t + Ms(770));
    EXPECT_TRUE(d4.park); // 4th consecutive rapid death: breaker trips.
}

TEST(RespawnScheduler, StableRunResetsTheBreaker)
{
    net::RespawnPolicy policy;
    policy.baseBackoffMs = 100;
    policy.maxBackoffMs = 400;
    policy.rapidWindowMs = 1000;
    policy.parkAfterRapidDeaths = 4;
    net::RespawnScheduler sched(policy);
    using Ms = std::chrono::milliseconds;
    net::RespawnScheduler::TimePoint t{};

    sched.recordSpawn(t);
    sched.recordDeath(t + Ms(10));
    sched.recordSpawn(t + Ms(120));
    sched.recordDeath(t + Ms(130));
    EXPECT_EQ(sched.rapidDeaths(), 2);
    // The respawn survives a full rapid window: a later one-off death
    // is routine and goes back to the base delay with breaker pressure
    // cleared.
    sched.recordSpawn(t + Ms(340));
    const auto after_stable = sched.recordDeath(t + Ms(340 + 1000));
    EXPECT_FALSE(after_stable.park);
    EXPECT_EQ(after_stable.delayMs, 100);
    EXPECT_EQ(sched.rapidDeaths(), 0);
}

TEST(FaultInjector, ParsesTheGrammarWithDefaults)
{
    const auto rules = net::FaultInjector::parseRules(
        "kill:shard=1,after=3; wedge ;delay:ms=7,every=4;"
        "truncate;garbage:every=5");
    ASSERT_EQ(rules.size(), 5u);
    EXPECT_EQ(rules[0].kind, net::FaultInjector::Kind::Kill);
    EXPECT_EQ(rules[0].shard, 1);
    EXPECT_EQ(rules[0].after, 3u);
    EXPECT_EQ(rules[1].kind, net::FaultInjector::Kind::Wedge);
    EXPECT_EQ(rules[1].shard, -1); // Unscoped: every shard.
    EXPECT_EQ(rules[1].after, 1u);
    EXPECT_EQ(rules[2].kind, net::FaultInjector::Kind::Delay);
    EXPECT_EQ(rules[2].delayMs, 7u);
    EXPECT_EQ(rules[2].every, 4u);
    EXPECT_EQ(rules[3].kind, net::FaultInjector::Kind::Truncate);
    EXPECT_EQ(rules[3].every, 16u);
    EXPECT_EQ(rules[4].kind, net::FaultInjector::Kind::Garbage);
    EXPECT_EQ(rules[4].every, 5u);

    // Strict parsing: typos die at startup, not silently at runtime.
    EXPECT_THROW(net::FaultInjector::parseRules("explode"),
                 std::exception);
    EXPECT_THROW(net::FaultInjector::parseRules("kill:when=3"),
                 std::exception);

    // parse() keeps only the rules scoped to the worker's shard.
    const auto spec = std::string("kill:shard=1,after=3;garbage:every=2");
    EXPECT_EQ(net::FaultInjector::parse(spec, 0).activeRules().size(),
              1u);
    EXPECT_EQ(net::FaultInjector::parse(spec, 1).activeRules().size(),
              2u);
    EXPECT_FALSE(net::FaultInjector::parse("", 0).active());
}

TEST(FaultInjector, ArmsOnTheExactOrdinalAndCorruptsWrites)
{
    auto kill = net::FaultInjector::parse("kill:after=3", 0);
    EXPECT_EQ(kill.onRequest(), net::FaultAction::None);
    EXPECT_EQ(kill.onRequest(), net::FaultAction::None);
    EXPECT_EQ(kill.onRequest(), net::FaultAction::Kill);
    EXPECT_EQ(kill.onRequest(), net::FaultAction::None); // Fires once.

    auto garbage = net::FaultInjector::parse("garbage:every=3", 0);
    const std::string original = "{\"ok\":true}\n";
    std::string payload = original;
    EXPECT_FALSE(garbage.onWrite(payload));
    EXPECT_FALSE(garbage.onWrite(payload));
    EXPECT_EQ(payload, original);
    EXPECT_TRUE(garbage.onWrite(payload)); // Every 3rd write batch.
    EXPECT_NE(payload, original);

    auto truncate = net::FaultInjector::parse("truncate:every=1", 0);
    std::string batch = "0123456789";
    EXPECT_TRUE(truncate.onWrite(batch));
    EXPECT_LT(batch.size(), 10u); // Tail half dropped.
    EXPECT_EQ(batch, "01234");
}

TEST(SocketServer, PingIsAnsweredInlineWithPong)
{
    LoopbackServer loop;
    LineClient client(loop.sock.port());
    client.send("{\"op\":\"ping\",\"tag\":\"hb7\"}\n");
    const Json reply = client.readReply();
    EXPECT_TRUE(reply.boolOr("ok", false)) << reply.dump(0);
    EXPECT_TRUE(reply.boolOr("pong", false)) << reply.dump(0);
    EXPECT_EQ(reply.stringOr("tag", ""), "hb7");
}

TEST(SocketServer, DeadlineAnswersTypedTimeoutUnderBacklog)
{
    net::SocketServerOptions options;
    options.requestTimeoutMs = 1;
    serve::ServerOptions engine_options;
    engine_options.workers = 1;
    engine_options.queueCapacity = 1024;
    LoopbackServer loop(options, engine_options);
    LineClient client(loop.sock.port());

    // 200 distinct forecasts queued behind one worker: the tail of the
    // queue cannot possibly be served within 1 ms, so deadlines must
    // fire — and every request must still get exactly one reply, ok or
    // a typed "timeout" error (no hangs, no double answers).
    std::string burst;
    constexpr int kBurst = 200;
    for (int i = 0; i < kBurst; ++i)
        burst += forecastLine("GPT2-Large", static_cast<uint64_t>(i + 1),
                              "d" + std::to_string(i));
    client.send(burst);
    int ok = 0;
    int timed_out = 0;
    for (int i = 0; i < kBurst; ++i) {
        const Json reply = client.readReply();
        ASSERT_TRUE(reply.isObject()) << "missing reply " << i;
        if (reply.boolOr("ok", false)) {
            ++ok;
            continue;
        }
        EXPECT_EQ(reply.stringOr("code", ""), "timeout")
            << reply.dump(0);
        ++timed_out;
    }
    EXPECT_EQ(ok + timed_out, kBurst);
    EXPECT_GE(timed_out, 1);
    EXPECT_GE(loop.server.metrics()->toJson().at("net.timeouts").asInt(),
              static_cast<int64_t>(timed_out));
}

TEST(SocketServer, PerRequestTimeoutOverridesTheServerDefault)
{
    net::SocketServerOptions options; // requestTimeoutMs = 0: unbounded.
    serve::ServerOptions engine_options;
    engine_options.workers = 1;
    engine_options.queueCapacity = 1024;
    LoopbackServer loop(options, engine_options);
    LineClient client(loop.sock.port());

    // A backlog of deadline-free requests, then one carrying its own
    // 1 ms "timeout_ms". Queued behind the backlog it must time out;
    // everything without a deadline must complete.
    std::string burst;
    constexpr int kBacklog = 150;
    for (int i = 0; i < kBacklog; ++i)
        burst += forecastLine("GPT2-Large", static_cast<uint64_t>(i + 1),
                              "b" + std::to_string(i));
    Json hurried = Json::parse(forecastLine("GPT2-Large", 999, "hurried"));
    hurried.set("timeout_ms", 1);
    burst += hurried.dump(0) + "\n";
    client.send(burst);
    bool hurried_timed_out = false;
    for (int i = 0; i < kBacklog + 1; ++i) {
        const Json reply = client.readReply();
        ASSERT_TRUE(reply.isObject()) << "missing reply " << i;
        if (reply.stringOr("tag", "") == "hurried") {
            EXPECT_FALSE(reply.boolOr("ok", true)) << reply.dump(0);
            hurried_timed_out =
                reply.stringOr("code", "") == "timeout";
        } else {
            EXPECT_TRUE(reply.boolOr("ok", false)) << reply.dump(0);
        }
    }
    EXPECT_TRUE(hurried_timed_out);
}

// ----------------------------------------------------- in-process router

/** A ShardRouter over socketpairs to in-process SocketServer shards,
 *  each serving its adopted end on its own thread (pid -1: nothing to
 *  reap; no respawn, no heartbeats). */
class InProcessCluster
{
  public:
    explicit InProcessCluster(size_t shards,
                              net::ShardRouterOptions options = {})
    {
        std::vector<net::ShardHandle> handles;
        for (size_t s = 0; s < shards; ++s) {
            int fds[2];
            EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0,
                                   fds),
                      0);
            serve::ServerOptions engine_options;
            engine_options.workers = 1;
            engines.push_back(std::make_unique<serve::ForecastServer>(
                std::make_shared<api::ForecastEngine>(
                    api::EngineConfig().backend("oracle").cache(0)),
                engine_options));
            net::SocketServerOptions shard_options;
            shard_options.adoptedFd = fds[1];
            shard_options.maxInFlightPerClient = 0;
            shardServers.push_back(std::make_unique<net::SocketServer>(
                *engines.back(), shard_options));
            net::ShardHandle handle;
            handle.fd = fds[0];
            handles.push_back(handle);
        }
        options.heartbeatIntervalMs = 0;
        options.respawn = nullptr;
        router = std::make_unique<net::ShardRouter>(std::move(handles),
                                                    options);
        for (auto &shard : shardServers)
            threads.emplace_back([&shard] { shard->run(); });
        threads.emplace_back([this] { router->run(); });
    }

    ~InProcessCluster()
    {
        // The router drains and closes its pipes; each shard then sees
        // EOF, settles, and returns from run().
        router->requestStop();
        for (std::thread &thread : threads)
            thread.join();
        for (auto &engine : engines)
            engine->stop();
    }

    std::vector<std::unique_ptr<serve::ForecastServer>> engines;
    std::vector<std::unique_ptr<net::SocketServer>> shardServers;
    std::unique_ptr<net::ShardRouter> router;
    std::vector<std::thread> threads;
};

/** A seeded corpus of inference, decode, training and distributed
 *  requests over the Table-5 models and several GPUs, tagged q<i>. */
std::vector<std::string>
requestCorpus(size_t count, uint64_t seed)
{
    const std::vector<std::string> models = {
        "BERT-Large", "GPT2-Large", "GPT3-XL", "OPT-1.3B", "GPT3-2.7B"};
    const std::vector<std::string> gpus = {"V100", "T4", "A100-40GB",
                                           "H100"};
    const std::vector<std::string> strategies = {"data", "tensor",
                                                 "pipeline"};
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](const std::vector<std::string> &from) {
        return from[rng() % from.size()];
    };
    std::vector<std::string> lines;
    for (size_t i = 0; i < count; ++i) {
        Json json;
        switch (i % 4) {
          case 0:
            json.set("op", "inference");
            break;
          case 1:
            json.set("op", "decode");
            json.set("past", static_cast<uint64_t>(128 << (rng() % 5)));
            break;
          case 2:
            json.set("op", "training");
            break;
          default:
            json.set("op", "distributed");
            json.set("num_gpus", static_cast<uint64_t>(2 << (rng() % 2)));
            json.set("global_batch", static_cast<uint64_t>(8));
            json.set("strategy", pick(strategies));
            json.set("micro_batches", static_cast<uint64_t>(4));
            json.set("schedule", rng() % 2 ? "1f1b" : "gpipe");
            break;
        }
        json.set("model", pick(models));
        json.set("gpu", pick(gpus));
        json.set("batch", static_cast<uint64_t>(1 + rng() % 8));
        json.set("tag", "q" + std::to_string(i));
        lines.push_back(json.dump(0) + "\n");
    }
    return lines;
}

/** Send every line on one connection; replies keyed by tag. */
std::map<std::string, Json>
replayCorpus(uint16_t port, const std::vector<std::string> &lines)
{
    LineClient client(port);
    std::string burst;
    for (const std::string &line : lines)
        burst += line;
    client.send(burst);
    std::map<std::string, Json> replies;
    for (size_t i = 0; i < lines.size(); ++i) {
        Json reply = client.readReply();
        EXPECT_TRUE(reply.isObject()) << "missing reply " << i;
        if (!reply.isObject())
            break;
        replies[reply.stringOr("tag", "")] = std::move(reply);
    }
    return replies;
}

TEST(ShardRouter, ShardedForecastsEqualSingleShardOnes)
{
    const std::vector<std::string> corpus = requestCorpus(72, 20261021);
    std::map<std::string, Json> single;
    {
        LoopbackServer loop;
        single = replayCorpus(loop.sock.port(), corpus);
    }
    std::map<std::string, Json> sharded;
    {
        InProcessCluster cluster(3);
        sharded = replayCorpus(cluster.router->port(), corpus);
    }
    ASSERT_EQ(single.size(), corpus.size());
    ASSERT_EQ(sharded.size(), corpus.size());

    const std::vector<std::string> doubles = {
        "latency_ms", "comm_bytes", "bubble_ms", "exposed_ddp_ms"};
    const std::vector<std::string> exact = {"ok",   "error", "code",
                                            "kernels", "strategy", "oom"};
    int ok = 0;
    for (const auto &[tag, want] : single) {
        ASSERT_TRUE(sharded.count(tag)) << tag;
        const Json &got = sharded.at(tag);
        ok += want.boolOr("ok", false) ? 1 : 0;
        for (const std::string &field : doubles) {
            ASSERT_EQ(want.has(field), got.has(field)) << tag << " " << field;
            if (!want.has(field))
                continue;
            const double a = want.at(field).asDouble();
            const double b = got.at(field).asDouble();
            EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
                << tag << " " << field << ": " << a << " vs " << b;
        }
        for (const std::string &field : exact) {
            ASSERT_EQ(want.has(field), got.has(field)) << tag << " " << field;
            if (want.has(field)) {
                EXPECT_EQ(want.at(field).dump(0), got.at(field).dump(0))
                    << tag << " " << field;
            }
        }
    }
    // The corpus must exercise forecasts, not just agree on errors.
    EXPECT_GE(ok, 48);
}

TEST(ShardRouter, SilentShardAnswersTypedTimeoutAndTheLedgerBalances)
{
    // One shard whose pipe end the test holds and never answers.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
    net::ShardRouterOptions options;
    options.heartbeatIntervalMs = 0;
    options.requestTimeoutMs = 50;
    std::vector<net::ShardHandle> handles(1);
    handles[0].fd = fds[0];
    net::ShardRouter router(std::move(handles), options);
    std::thread loop([&router] { router.run(); });

    LineClient client(router.port());
    client.send(forecastLine("BERT-Large", 1, "silent"));
    const Json reply = client.readReply();
    EXPECT_FALSE(reply.boolOr("ok", true)) << reply.dump(0);
    EXPECT_EQ(reply.stringOr("code", ""), "timeout") << reply.dump(0);
    EXPECT_EQ(reply.stringOr("tag", ""), "silent");

    const Json stats = router.metrics().toJson();
    EXPECT_EQ(stats.at("net.requests.submitted").asInt(), 1);
    EXPECT_EQ(stats.at("net.requests.timed_out").asInt(), 1);
    EXPECT_EQ(stats.at("net.requests.completed").asInt() +
                  stats.at("net.requests.rejected").asInt() +
                  stats.at("net.requests.timed_out").asInt(),
              stats.at("net.requests.submitted").asInt());
    EXPECT_EQ(stats.at("net.timeouts").asInt(), 1);

    // The shard's EOF settles the late request, so the drain is quick.
    net::closeFd(fds[1]);
    router.requestStop();
    loop.join();
}

} // namespace
} // namespace neusight
