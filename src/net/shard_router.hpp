/**
 * @file
 * Parent-side router of the multi-process serving mode: accepts client
 * TCP connections, parses each request line, and forwards it over an
 * AF_UNIX stream to one of N forked shard workers chosen by consistent-
 * hashing the request fingerprint (net/hash_ring.hpp). Equal
 * fingerprints always land on the same shard, so each worker's kernel-
 * prediction and model-graph caches stay hot and mutually disjoint —
 * the N processes partition the forecast space instead of duplicating
 * one cache N times.
 *
 * The router rewrites each forwarded request's "tag" to an internal
 * routing id and restores the client's tag on the way back, so shards
 * need no routing awareness — each one is a stock SocketServer serving
 * its adopted stream. "stats" requests fan out to every live shard and
 * the replies merge into one cluster snapshot
 * (obs::mergeMetricsSnapshots) that also folds in the router's own
 * registry (connection/rejection counters live here, not in shards).
 *
 * The router is also the shard supervisor. Worker death is routine, not
 * fatal:
 *  - SIGCHLD routes to the epoll loop (net::installSigchld) where dead
 *    workers are reaped continuously with waitpid(WNOHANG) — no
 *    zombies, ever, and a death is noticed even before the pipe EOF.
 *  - A dead shard is removed from the ring; requests outstanding on it
 *    are transparently retried once on the shard its keys remapped to
 *    (forecasts are idempotent), then respawned via the caller-supplied
 *    RespawnFn under exponential backoff. The respawned shard re-adds
 *    to the ring with identical vnodes, reclaiming exactly its old
 *    keys. A crash-looping shard (RespawnPolicy) is parked and the
 *    server degrades gracefully on the survivors.
 *  - Heartbeats: a "ping" op is sent over every live pipe each
 *    heartbeatIntervalMs; a shard missing heartbeatMissLimit pongs is
 *    presumed wedged, SIGKILLed, and routed around immediately —
 *    before the kernel would ever report EOF on a hung-but-alive
 *    worker.
 *  - Deadlines: requests carry "timeout_ms" (or inherit
 *    requestTimeoutMs); an expired request is answered with a typed
 *    "timeout" error and its late reply is dropped on arrival.
 *
 * Request accounting (net.requests.*) holds the serving invariant
 * submitted == completed + rejected + timed_out at quiescence — the
 * chaos tests pin it under fault injection. Graceful stop mirrors
 * SocketServer: stop reading clients, drain every outstanding reply,
 * flush, then close the shard pipes (workers see EOF, drain, and exit
 * on their own); pending respawns are cancelled.
 */

#ifndef NEUSIGHT_NET_SHARD_ROUTER_HPP
#define NEUSIGHT_NET_SHARD_ROUTER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "net/hash_ring.hpp"
#include "net/io.hpp"
#include "net/supervisor.hpp"
#include "obs/metrics.hpp"
#include "serve/wire.hpp"

namespace neusight::net {

/** One forked shard worker as the router sees it. */
struct ShardHandle
{
    /** Parent end of the worker's AF_UNIX stream (router-owned). */
    int fd = -1;
    pid_t pid = -1;
};

/**
 * Forks a replacement worker for @p shard and returns its handle
 * (fd < 0 = the spawn failed; the supervisor retries later). Runs
 * inside the router's epoll loop, so it must not block.
 */
using RespawnFn = std::function<ShardHandle(size_t shard)>;

/** Construction-time configuration of a ShardRouter. */
struct ShardRouterOptions
{
    std::string bindAddress = "127.0.0.1";
    /** Listen port; 0 binds an ephemeral port (see port()). */
    uint16_t port = 0;
    size_t maxLineBytes = serve::LineFramer::kDefaultMaxLineBytes;
    /** Unread-response bound per client; slower readers disconnect. */
    size_t maxOutputBytes = 8u << 20;
    /** In-flight requests per client before admission rejects. */
    size_t maxInFlightPerClient = 256;
    /** Forwarded-but-unanswered bound per shard; a deeper backlog
     *  rejects new requests routed there (backpressure, counted in
     *  serve.rejected). */
    size_t maxOutstandingPerShard = 4096;
    /** Bound on the graceful drain after a stop request. */
    int drainTimeoutMs = 30000;
    /** Default per-request deadline; 0 = unbounded. A request's own
     *  "timeout_ms" overrides it. */
    int requestTimeoutMs = 0;
    /** Heartbeat period over the shard pipes; 0 disables. */
    int heartbeatIntervalMs = 1000;
    /** Consecutive unanswered pings before a shard is presumed wedged
     *  and SIGKILLed. */
    int heartbeatMissLimit = 3;
    /** Transparent retries for a request stranded on a dead shard. */
    int retryLimit = 1;
    /** Backoff / circuit-breaker policy of the supervisor. */
    RespawnPolicy respawnPolicy;
    /** Respawner; null disables supervision (dead shards stay dead). */
    RespawnFn respawn;
};

/**
 * The sharding front-end. Single-threaded: one epoll loop owns the
 * listen socket, every client connection, and every shard pipe.
 * Construction binds (port() is immediately valid) and registers the
 * shard pipes; run() blocks until a stop request drains. The caller
 * (net::runFrontend) forks the initial workers and passes their handles
 * in; deaths during run() are reaped and respawned in-loop, and
 * activePids() names the workers still alive for the caller's final
 * blocking reap after run() returns.
 */
class ShardRouter
{
  public:
    ShardRouter(std::vector<ShardHandle> shards, ShardRouterOptions options);
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    /** The bound TCP port. */
    uint16_t port() const { return boundPort; }

    /** Run the epoll loop; returns after the drain completes. */
    void run();

    /// @name Stop-signal plumbing for net::installStopSignals.
    /// @{
    std::atomic<bool> *stopFlag() { return &stopRequested; }
    int wakeWriteFd() const { return wake.writeFd; }
    /// @}

    /** Worker pids not yet reaped (for the caller's final waitpid). */
    std::vector<pid_t> activePids() const;

    /** The router's own registry (net.* and router.* metrics). */
    obs::MetricsRegistry &metrics() { return registry; }

  private:
    /** A connected byte stream: a TCP client, or a shard pipe. */
    struct Peer
    {
        int fd = -1;
        uint64_t gen = 0;
        /** Shard index for pipe peers; -1 for clients. */
        int shard = -1;
        serve::LineFramer framer;
        std::string outbuf;
        size_t outOffset = 0;
        /** Client only: requests forwarded and not yet answered. */
        size_t inFlight = 0;
        /** Shard only: requests outstanding on this pipe. */
        size_t outstanding = 0;
        bool eof = false;
        bool closeAfterFlush = false;
        uint32_t registered = 0;
        /** Already in flushPending for this event batch. */
        bool flushQueued = false;
    };

    /** One forwarded request awaiting its shard's answer. */
    struct RidEntry
    {
        int clientFd = -1;
        uint64_t clientGen = 0;
        /** The client's original tag, restored on the reply. */
        std::string tag;
        int shard = -1;
        /** Non-zero: part of a fanned-out stats request. */
        uint64_t statsGroup = 0;
        /** Routing key + re-encoded request, kept for death retries. */
        std::string fingerprint;
        common::Json forwardJson;
        /** Forward attempts so far (1 = first try). */
        int attempts = 1;
        /** Deadline already fired and the client answered; the late
         *  shard reply is dropped on arrival. */
        bool timedOut = false;
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline{};
    };

    /** One "stats" fan-out collecting per-shard snapshots. */
    struct StatsGroup
    {
        int clientFd = -1;
        uint64_t clientGen = 0;
        std::string tag;
        size_t pending = 0;
        std::vector<common::Json> snapshots;
    };

    /** Supervision state of one shard slot. */
    struct ShardState
    {
        pid_t pid = -1;
        /** Crash-loop breaker tripped: never respawned again. */
        bool parked = false;
        bool respawnPending = false;
        std::chrono::steady_clock::time_point respawnAt{};
        RespawnScheduler scheduler;
        /** Pings sent since the last pong. */
        int pendingPings = 0;
        /** net.shard.healthy.<i>: 1 = live pipe answering pings. */
        std::shared_ptr<obs::Gauge> healthy;
    };

    /** Why a forward could not happen. */
    enum class ForwardStatus
    {
        Ok,
        NoLiveShard,
        PipeMissing,
        BacklogFull,
    };

    void acceptAll();
    void addClient(int fd);
    void handleReadable(Peer &peer);
    void processLines(Peer &peer);
    void handleClientLine(Peer &client, const std::string &line);
    void handleShardLine(Peer &shardPeer, const std::string &line);
    void handleHeartbeatPong(Peer &shardPeer);
    void handleStatsRequest(Peer &client, const std::string &tag);
    void finishStatsGroup(uint64_t groupId);
    void replyToClient(int clientFd, uint64_t clientGen,
                       const std::string &line, bool decrementInFlight);
    void rejectClient(Peer &client, const std::string &tag,
                      const std::string &why, const std::string &code);
    /** Death-path rejection of an already-forwarded request. */
    void rejectRid(const RidEntry &entry, const std::string &why,
                   const std::string &code);
    /** Route @p entry by its fingerprint and ship it (fresh or retry).
     *  Consumes @p entry on Ok; leaves it intact on failure. */
    ForwardStatus forwardEntry(RidEntry &entry);
    void appendOutput(Peer &peer, const std::string &line);
    void flushOutput(Peer &peer);
    /** Defer a flush to the end of the current event batch (one send()
     *  per peer per batch instead of one per line). */
    void queueFlush(Peer &peer);
    void flushPendingPeers();
    void updateInterest(Peer &peer);
    void maybeFinishClient(Peer &peer);
    void closePeer(int fd);
    /** Register a (re)spawned worker's pipe with the loop. */
    void registerShardPipe(size_t shard, int fd);
    void shardDied(int shard);
    /// @name Supervision steps of the run() loop.
    /// @{
    void reapChildren();
    void fireDeadlines(std::chrono::steady_clock::time_point now);
    void processHeartbeats(std::chrono::steady_clock::time_point now);
    void performRespawns(std::chrono::steady_clock::time_point now);
    void scheduleRespawn(size_t shard);
    /// @}
    int loopTimeoutMs(std::chrono::steady_clock::time_point now) const;
    void beginStop();
    bool drained() const;
    Peer *findShardPeer(int shard);

    ShardRouterOptions options;
    HashRing ring;
    obs::MetricsRegistry registry;
    WakePipe wake;
    int listenFd = -1;
    int epollFd = -1;
    uint16_t boundPort = 0;
    std::atomic<bool> stopRequested{false};
    std::atomic<bool> childExited{false};
    bool stopping = false;
    std::chrono::steady_clock::time_point stopDeadline;
    std::chrono::steady_clock::time_point nextHeartbeatAt;

    uint64_t nextGen = 1;
    uint64_t nextRid = 1;
    uint64_t nextPing = 1;
    /** Peers with output appended this batch, flushed together. */
    std::vector<int> flushPending;
    uint64_t nextStatsGroup = 1;
    /** Every connected stream, clients and shard pipes alike, by fd. */
    std::unordered_map<int, std::unique_ptr<Peer>> peers;
    /** Client peers currently connected (gauge bookkeeping). */
    size_t clientPeers = 0;
    /** Shard index -> pipe fd (-1 once dead). */
    std::vector<int> shardFds;
    std::vector<ShardState> shardStates;
    /** Live (unreaped) worker pid -> shard slot. */
    std::unordered_map<pid_t, size_t> pidToShard;
    std::unordered_map<std::string, RidEntry> ridMap;
    std::map<uint64_t, StatsGroup> statsGroups;
    /** Deadline queue over rids; stale entries are skipped lazily. */
    std::multimap<std::chrono::steady_clock::time_point, std::string>
        deadlines;

    /// @name Router-registry metrics.
    /// @{
    std::shared_ptr<obs::Counter> connectionsTotal;
    std::shared_ptr<obs::Gauge> activeConnections;
    std::shared_ptr<obs::Counter> linesTotal;
    std::shared_ptr<obs::Counter> protocolErrors;
    std::shared_ptr<obs::Counter> slowDisconnects;
    std::shared_ptr<obs::Counter> rejectedCount;
    std::shared_ptr<obs::Counter> forwardedTotal;
    std::shared_ptr<obs::Counter> shardDeaths;
    std::shared_ptr<obs::Counter> shardRestarts;
    std::shared_ptr<obs::Counter> shardParked;
    std::shared_ptr<obs::Counter> retriesTotal;
    std::shared_ptr<obs::Counter> timeoutsTotal;
    std::shared_ptr<obs::Gauge> liveShardsGauge;
    /** The serving invariant: submitted == completed + rejected +
     *  timed_out at quiescence (chaos tests pin it). */
    std::shared_ptr<obs::Counter> submittedCount;
    std::shared_ptr<obs::Counter> completedCount;
    std::shared_ptr<obs::Counter> rejectedReqCount;
    std::shared_ptr<obs::Counter> timedOutCount;
    /// @}
};

} // namespace neusight::net

#endif // NEUSIGHT_NET_SHARD_ROUTER_HPP
