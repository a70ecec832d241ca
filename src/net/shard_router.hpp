/**
 * @file
 * Parent-side router of the multi-process serving mode: a StreamLoop
 * (net/stream_loop.hpp, which owns sockets, framing, flushing,
 * deadlines, the drain and the request ledger) whose policy forwards
 * each admitted request over an AF_UNIX pipe to one of N forked shard
 * workers, chosen by consistent-hashing the request fingerprint
 * (net/hash_ring.hpp). Equal fingerprints always land on the same
 * shard, so each worker's caches stay hot and mutually disjoint.
 *
 * Each forwarded request's "tag" is rewritten to an internal routing id
 * "r<N>" and the client's tag is restored on the way back, so a shard
 * is a stock SocketServer serving its adopted stream. "stats" requests
 * fan out to every live shard and the replies merge with the router's
 * own registry into one cluster snapshot (obs::mergeMetricsSnapshots).
 *
 * The router is also the shard supervisor. Worker death is routine:
 *  - SIGCHLD routes to the loop (net::installSigchld), where dead
 *    workers are reaped with waitpid(WNOHANG): no zombies, and a death
 *    is noticed even before the pipe EOF.
 *  - A dead shard leaves the ring; its outstanding requests are retried
 *    once on the shard their keys remapped to (forecasts are
 *    idempotent), and the shard is respawned through the caller's
 *    RespawnFn under exponential backoff. The respawned shard rejoins
 *    with identical vnodes, reclaiming exactly its old keys. A
 *    crash-looping shard (RespawnPolicy) is parked.
 *  - Heartbeats: a "ping" goes down every live pipe each
 *    heartbeatIntervalMs; a shard missing heartbeatMissLimit pongs is
 *    presumed wedged, SIGKILLed, and routed around.
 *  - The router owns deadlines: it strips "timeout_ms" before
 *    forwarding and drops a late reply after the timeout answered.
 * On stop, pending respawns are cancelled and, after the drain, closing
 * the pipes tells the workers to drain and exit.
 */

#ifndef NEUSIGHT_NET_SHARD_ROUTER_HPP
#define NEUSIGHT_NET_SHARD_ROUTER_HPP

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
#include "net/stream_loop.hpp"
#include "net/supervisor.hpp"
#include "obs/metrics.hpp"

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
struct ShardRouterOptions : StreamLoopOptions
{
    /** Forwarded-but-unanswered bound per shard; a deeper backlog
     *  rejects new requests routed there (backpressure, counted in
     *  serve.rejected). */
    size_t maxOutstandingPerShard = 4096;
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
 * The sharding front-end. Single-threaded: one loop owns the listen
 * socket, every client connection, and every shard pipe. Construction
 * binds (port() is immediately valid) and registers the shard pipes;
 * run() blocks until a stop request drains. The caller
 * (net::runFrontend) forks the initial workers and passes their handles
 * in; deaths during run() are reaped and respawned in-loop, and
 * activePids() names the workers still alive for the caller's final
 * blocking reap after run() returns.
 */
class ShardRouter : public StreamLoop
{
  public:
    ShardRouter(std::vector<ShardHandle> shards, ShardRouterOptions options);

    /** Run the loop; returns after the drain completes. */
    void run();

    /** Worker pids not yet reaped (for the caller's final waitpid). */
    std::vector<pid_t> activePids() const;

    /** The router's own registry (net.* and router.* metrics). */
    obs::MetricsRegistry &metrics() { return metricsRegistry(); }

  private:
    /** One forwarded request awaiting its shard's answer. */
    struct RidEntry
    {
        ClientRef client;
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
        Clock::time_point deadline{};
    };

    /** One "stats" fan-out collecting per-shard snapshots. */
    struct StatsGroup
    {
        ClientRef client;
        std::string tag;
        size_t pending = 0;
        std::vector<common::Json> snapshots;
    };

    /** Supervision state of one shard slot. */
    struct ShardState
    {
        pid_t pid = -1;
        /** Parent end of the live pipe; -1 once dead. */
        int fd = -1;
        /** Requests forwarded on the live pipe and not yet answered. */
        size_t outstanding = 0;
        /** Crash-loop breaker tripped: never respawned again. */
        bool parked = false;
        bool respawnPending = false;
        Clock::time_point respawnAt{};
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

    void dispatch(Stream &client, ClientRequest &request) override;
    void onDeadline(uint64_t rid) override;
    bool settled() const override;
    /** Reap, heartbeat and respawn. */
    void poll(Clock::time_point now) override;
    Clock::time_point nextTimer() const override;
    void onPipeLine(Stream &pipe, const std::string &line) override;
    void onPipeLost(Stream &pipe) override;

    void handleStatsRequest(Stream &client, const std::string &tag);
    void finishStatsGroup(uint64_t groupId);
    /** Route @p entry by its fingerprint and ship it (fresh or retry).
     *  Consumes @p entry on Ok; leaves it intact on failure. */
    ForwardStatus forwardEntry(RidEntry &entry);
    /** The live pipe of @p shard, or null. */
    Stream *shardPipe(int shard);
    void shardDied(int shard);
    void reapChildren();
    void processHeartbeats(Clock::time_point now);
    void performRespawns(Clock::time_point now);
    void scheduleRespawn(size_t shard);

    ShardRouterOptions options;
    HashRing ring;
    std::atomic<bool> childExited{false};
    Clock::time_point nextHeartbeatAt;

    uint64_t nextRid = 1;
    uint64_t nextPing = 1;
    uint64_t nextStatsGroup = 1;
    std::vector<ShardState> shardStates;
    /** Live (unreaped) worker pid -> shard slot. */
    std::unordered_map<pid_t, size_t> pidToShard;
    std::unordered_map<uint64_t, RidEntry> ridMap;
    std::map<uint64_t, StatsGroup> statsGroups;

    /// @name Router-registry metrics.
    /// @{
    std::shared_ptr<obs::Counter> forwardedTotal;
    std::shared_ptr<obs::Counter> shardDeaths;
    std::shared_ptr<obs::Counter> shardRestarts;
    std::shared_ptr<obs::Counter> shardParked;
    std::shared_ptr<obs::Counter> retriesTotal;
    std::shared_ptr<obs::Gauge> liveShardsGauge;
    /// @}
};

} // namespace neusight::net

#endif // NEUSIGHT_NET_SHARD_ROUTER_HPP
