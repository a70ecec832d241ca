#include "net/shard_router.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sys/epoll.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "common/logging.hpp"
#include "obs/merge.hpp"
#include "serve/request.hpp"

namespace neusight::net {

namespace {

using Clock = std::chrono::steady_clock;

/** Encoded rejection/error line ('\n'-terminated). @p code is the
 *  machine-readable "code" field ("" omits it). */
std::string
errorLine(const std::string &tag, const std::string &message,
          const std::string &code = "")
{
    serve::ForecastResult result;
    result.tag = tag;
    result.ok = false;
    result.error = message;
    result.errorCode = code;
    return serve::resultToJson(result).dump(0) + "\n";
}

} // namespace

ShardRouter::ShardRouter(std::vector<ShardHandle> shards,
                         ShardRouterOptions options_)
    : options(std::move(options_)), ring(shards.empty() ? 1 : shards.size())
{
    ensure(!shards.empty(), "ShardRouter: need at least one shard");
    ignoreSigpipe();

    connectionsTotal = registry.counter("net.connections");
    activeConnections = registry.gauge("net.active_connections");
    linesTotal = registry.counter("net.lines");
    protocolErrors = registry.counter("net.protocol_errors");
    slowDisconnects = registry.counter("net.slow_client_disconnects");
    rejectedCount = registry.counter("serve.rejected");
    forwardedTotal = registry.counter("router.forwarded");
    shardDeaths = registry.counter("net.shard.deaths");
    shardRestarts = registry.counter("net.shard.restarts");
    shardParked = registry.counter("net.shard.parked");
    retriesTotal = registry.counter("net.retries");
    timeoutsTotal = registry.counter("net.timeouts");
    liveShardsGauge = registry.gauge("router.live_shards");
    liveShardsGauge->set(static_cast<int64_t>(shards.size()));
    submittedCount = registry.counter("net.requests.submitted");
    completedCount = registry.counter("net.requests.completed");
    rejectedReqCount = registry.counter("net.requests.rejected");
    timedOutCount = registry.counter("net.requests.timed_out");

    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd < 0)
        fatal(std::string("net: epoll_create1 failed: ") + strerror(errno));
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = wake.readFd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, wake.readFd, &ev) != 0)
        fatal("net: cannot register wake pipe");

    listenFd = listenTcp(options.bindAddress, options.port, &boundPort);
    ev.data.fd = listenFd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd, &ev) != 0)
        fatal("net: cannot register listen socket");

    const Clock::time_point now = Clock::now();
    shardFds.resize(shards.size(), -1);
    shardStates.reserve(shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
        ensure(shards[s].fd >= 0, "ShardRouter: bad shard fd");
        registerShardPipe(s, shards[s].fd);
        ShardState state;
        state.pid = shards[s].pid;
        state.scheduler = RespawnScheduler(options.respawnPolicy);
        state.scheduler.recordSpawn(now);
        state.healthy =
            registry.gauge("net.shard.healthy." + std::to_string(s));
        state.healthy->set(1);
        shardStates.push_back(std::move(state));
        if (shards[s].pid > 0)
            pidToShard[shards[s].pid] = s;
    }
}

ShardRouter::~ShardRouter()
{
    for (auto &entry : peers)
        closeFd(entry.second->fd);
    peers.clear();
    closeFd(listenFd);
    closeFd(epollFd);
}

std::vector<pid_t>
ShardRouter::activePids() const
{
    std::vector<pid_t> pids;
    pids.reserve(pidToShard.size());
    for (const auto &entry : pidToShard)
        pids.push_back(entry.first);
    return pids;
}

ShardRouter::Peer *
ShardRouter::findShardPeer(int shard)
{
    if (shard < 0 || static_cast<size_t>(shard) >= shardFds.size())
        return nullptr;
    const int fd = shardFds[static_cast<size_t>(shard)];
    if (fd < 0)
        return nullptr;
    auto it = peers.find(fd);
    return it == peers.end() ? nullptr : it->second.get();
}

void
ShardRouter::registerShardPipe(size_t shard, int fd)
{
    if (!setNonBlocking(fd))
        fatal("net: cannot make shard pipe non-blocking");
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peer->gen = nextGen++;
    peer->shard = static_cast<int>(shard);
    peer->framer = serve::LineFramer(options.maxLineBytes);
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0)
        fatal("net: cannot register shard pipe");
    peer->registered = EPOLLIN;
    shardFds[shard] = fd;
    peers[fd] = std::move(peer);
}

void
ShardRouter::acceptAll()
{
    for (;;) {
        const int fd = acceptRetry(listenFd);
        if (fd < 0) {
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                warn(std::string("net: accept failed: ") + strerror(errno));
            return;
        }
        addClient(fd);
    }
}

void
ShardRouter::addClient(int fd)
{
    if (!setNonBlocking(fd)) {
        closeFd(fd);
        return;
    }
    setTcpNoDelay(fd);
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peer->gen = nextGen++;
    peer->framer = serve::LineFramer(options.maxLineBytes);
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        closeFd(fd);
        return;
    }
    peer->registered = EPOLLIN;
    peers[fd] = std::move(peer);
    ++clientPeers;
    connectionsTotal->inc();
    activeConnections->set(static_cast<int64_t>(clientPeers));
}

void
ShardRouter::handleReadable(Peer &peer)
{
    const int fd = peer.fd;
    const bool isShard = peer.shard >= 0;
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = readRetry(fd, buf, sizeof(buf));
        if (n > 0) {
            peer.framer.feed(buf, static_cast<size_t>(n));
            processLines(peer);
            if (peers.find(fd) == peers.end())
                return; // processLines closed it.
            if (peer.closeAfterFlush)
                return;
            continue;
        }
        if (n == 0) {
            if (isShard) {
                shardDied(peer.shard);
                return;
            }
            peer.eof = true;
            updateInterest(peer);
            maybeFinishClient(peer);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        if (isShard)
            shardDied(peer.shard);
        else
            closePeer(fd);
        return;
    }
}

void
ShardRouter::processLines(Peer &peer)
{
    const int fd = peer.fd;
    const bool isShard = peer.shard >= 0;
    std::string line;
    for (;;) {
        const serve::LineFramer::Event event = peer.framer.next(line);
        if (event == serve::LineFramer::Event::None)
            return;
        if (event == serve::LineFramer::Event::Oversized) {
            protocolErrors->inc();
            if (isShard) {
                // A shard emitting an over-long line is a bug, not a
                // hostile client; drop the line, keep the shard.
                warn("net: dropped oversized line from shard " +
                     std::to_string(peer.shard));
                continue;
            }
            appendOutput(peer,
                         errorLine("", "request line exceeds " +
                                           std::to_string(
                                               options.maxLineBytes) +
                                           " bytes"));
            peer.closeAfterFlush = true;
            updateInterest(peer);
            flushOutput(peer);
            return;
        }
        if (isShard)
            handleShardLine(peer, line);
        else
            handleClientLine(peer, line);
        if (peers.find(fd) == peers.end())
            return; // A write error closed the connection.
        if (peer.closeAfterFlush)
            return;
    }
}

void
ShardRouter::rejectClient(Peer &client, const std::string &tag,
                          const std::string &why, const std::string &code)
{
    rejectedCount->inc();
    rejectedReqCount->inc();
    appendOutput(client, errorLine(tag, why, code));
    queueFlush(client);
}

void
ShardRouter::rejectRid(const RidEntry &entry, const std::string &why,
                       const std::string &code)
{
    rejectedCount->inc();
    rejectedReqCount->inc();
    replyToClient(entry.clientFd, entry.clientGen,
                  errorLine(entry.tag, why, code),
                  /*decrementInFlight=*/true);
}

ShardRouter::ForwardStatus
ShardRouter::forwardEntry(RidEntry &entry)
{
    if (ring.liveShards() == 0)
        return ForwardStatus::NoLiveShard;
    const int shard = static_cast<int>(ring.shardFor(entry.fingerprint));
    Peer *pipe = findShardPeer(shard);
    if (pipe == nullptr) {
        // The ring said live but the pipe is gone: a death we have not
        // fully processed yet.
        return ForwardStatus::PipeMissing;
    }
    if (pipe->outstanding >= options.maxOutstandingPerShard)
        return ForwardStatus::BacklogFull;
    const std::string rid = "r" + std::to_string(nextRid++);
    entry.forwardJson.set("tag", rid);
    entry.shard = shard;
    appendOutput(*pipe, entry.forwardJson.dump(0) + "\n");
    queueFlush(*pipe);
    ++pipe->outstanding;
    forwardedTotal->inc();
    if (entry.hasDeadline)
        deadlines.emplace(entry.deadline, rid);
    ridMap[rid] = std::move(entry);
    return ForwardStatus::Ok;
}

void
ShardRouter::handleClientLine(Peer &client, const std::string &line)
{
    if (serve::isSkippableRequestLine(line))
        return;
    linesTotal->inc();
    if (stopping) {
        submittedCount->inc();
        rejectClient(client, "", "server is draining", "draining");
        return;
    }
    std::string tag;
    common::Json json;
    serve::ForecastRequest request;
    try {
        json = common::Json::parse(line);
        if (json.isObject())
            tag = json.stringOr("tag", "");
        request = serve::requestFromJson(json);
    } catch (const std::exception &e) {
        protocolErrors->inc();
        appendOutput(client, errorLine(tag, e.what()));
        queueFlush(client);
        return;
    }
    if (request.kind == serve::RequestKind::Ping) {
        // Answered inline, before admission: a health probe must get its
        // pong even when the connection is at its in-flight limit.
        submittedCount->inc();
        completedCount->inc();
        common::Json pong;
        if (!tag.empty())
            pong.set("tag", tag);
        pong.set("ok", true);
        pong.set("pong", true);
        appendOutput(client, pong.dump(0) + "\n");
        queueFlush(client);
        return;
    }
    submittedCount->inc();
    if (options.maxInFlightPerClient > 0 &&
        client.inFlight >= options.maxInFlightPerClient) {
        rejectClient(client, tag,
                     "admission limit: " +
                         std::to_string(options.maxInFlightPerClient) +
                         " requests already in flight on this connection",
                     "overload");
        return;
    }
    if (request.kind == serve::RequestKind::Stats) {
        handleStatsRequest(client, tag);
        return;
    }

    RidEntry entry;
    entry.clientFd = client.fd;
    entry.clientGen = client.gen;
    entry.tag = tag;
    entry.fingerprint = request.fingerprint();
    entry.forwardJson = std::move(json);
    // The router owns deadline enforcement in sharded mode; the worker
    // never sees the field (it would answer the timeout a second time).
    entry.forwardJson.erase("timeout_ms");
    const uint64_t timeoutMs =
        request.timeoutMs > 0
            ? request.timeoutMs
            : (options.requestTimeoutMs > 0
                   ? static_cast<uint64_t>(options.requestTimeoutMs)
                   : 0);
    if (timeoutMs > 0) {
        entry.hasDeadline = true;
        entry.deadline =
            Clock::now() + std::chrono::milliseconds(timeoutMs);
    }
    switch (forwardEntry(entry)) {
      case ForwardStatus::Ok:
        ++client.inFlight;
        return;
      case ForwardStatus::NoLiveShard:
        rejectClient(client, tag, "every shard worker has died",
                     "unavailable");
        return;
      case ForwardStatus::PipeMissing:
        rejectClient(client, tag, "the shard owning this key is down",
                     "unavailable");
        return;
      case ForwardStatus::BacklogFull:
        rejectClient(client, tag, "server overloaded (shard backlog full)",
                     "overload");
        return;
    }
}

void
ShardRouter::handleStatsRequest(Peer &client, const std::string &tag)
{
    // Register the group before the first forward: flushOutput below may
    // reenter shardDied -> finishStatsGroup, which must see this group.
    const uint64_t groupId = nextStatsGroup++;
    const int clientFd = client.fd;
    const uint64_t clientGen = client.gen;
    {
        StatsGroup group;
        group.clientFd = clientFd;
        group.clientGen = clientGen;
        group.tag = tag;
        statsGroups[groupId] = std::move(group);
    }
    ++client.inFlight;
    for (size_t s = 0; s < shardFds.size(); ++s) {
        Peer *pipe = findShardPeer(static_cast<int>(s));
        if (pipe == nullptr)
            continue;
        const std::string rid = "r" + std::to_string(nextRid++);
        common::Json statsReq;
        statsReq.set("op", "stats");
        statsReq.set("tag", rid);
        RidEntry entry;
        entry.clientFd = clientFd;
        entry.clientGen = clientGen;
        entry.tag = tag;
        entry.shard = static_cast<int>(s);
        entry.statsGroup = groupId;
        ridMap[rid] = std::move(entry);
        ++statsGroups[groupId].pending;
        ++pipe->outstanding;
        appendOutput(*pipe, statsReq.dump(0) + "\n");
        flushOutput(*pipe); // May kill the shard and finalize the group.
        if (statsGroups.find(groupId) == statsGroups.end())
            return; // Already answered (every forward target died).
    }
    if (statsGroups[groupId].pending == 0)
        finishStatsGroup(groupId); // No live shards: router-only stats.
}

void
ShardRouter::finishStatsGroup(uint64_t groupId)
{
    auto it = statsGroups.find(groupId);
    if (it == statsGroups.end())
        return;
    StatsGroup group = std::move(it->second);
    statsGroups.erase(it);
    // The snapshot below must already count this very request as
    // completed, or the invariant would be off by one in it.
    completedCount->inc();
    std::vector<common::Json> snapshots = std::move(group.snapshots);
    snapshots.push_back(registry.toJson());
    common::Json reply;
    if (!group.tag.empty())
        reply.set("tag", group.tag);
    reply.set("ok", true);
    reply.set("stats", obs::mergeMetricsSnapshots(snapshots));
    reply.set("shards", static_cast<int64_t>(ring.liveShards()));
    replyToClient(group.clientFd, group.clientGen, reply.dump(0) + "\n",
                  /*decrementInFlight=*/true);
}

void
ShardRouter::replyToClient(int clientFd, uint64_t clientGen,
                           const std::string &line, bool decrementInFlight)
{
    auto it = peers.find(clientFd);
    if (it == peers.end() || it->second->gen != clientGen)
        return; // Client hung up before its answer was ready.
    Peer &client = *it->second;
    if (decrementInFlight) {
        ensure(client.inFlight > 0, "net: client in-flight underflow");
        --client.inFlight;
    }
    appendOutput(client, line);
    queueFlush(client);
}

void
ShardRouter::handleHeartbeatPong(Peer &shardPeer)
{
    ShardState &state = shardStates[static_cast<size_t>(shardPeer.shard)];
    state.pendingPings = 0;
    state.healthy->set(1);
}

void
ShardRouter::handleShardLine(Peer &shardPeer, const std::string &line)
{
    common::Json json;
    try {
        json = common::Json::parse(line);
    } catch (const std::exception &e) {
        protocolErrors->inc();
        warn("net: unparseable reply from shard " +
             std::to_string(shardPeer.shard) + ": " + e.what());
        return;
    }
    const std::string rid =
        json.isObject() ? json.stringOr("tag", "") : "";
    if (rid.rfind("hb", 0) == 0) {
        // Heartbeat pong: not a client request, never in ridMap.
        handleHeartbeatPong(shardPeer);
        return;
    }
    auto it = ridMap.find(rid);
    if (it == ridMap.end()) {
        protocolErrors->inc();
        warn("net: reply from shard " + std::to_string(shardPeer.shard) +
             " for unknown rid '" + rid + "'");
        return;
    }
    RidEntry entry = std::move(it->second);
    ridMap.erase(it);
    ensure(shardPeer.outstanding > 0, "net: shard outstanding underflow");
    --shardPeer.outstanding;

    if (entry.timedOut)
        return; // The deadline already answered; drop the late reply.

    if (entry.statsGroup != 0) {
        auto git = statsGroups.find(entry.statsGroup);
        if (git != statsGroups.end()) {
            StatsGroup &group = git->second;
            if (json.isObject() && json.has("stats"))
                group.snapshots.push_back(json.at("stats"));
            ensure(group.pending > 0, "net: stats group underflow");
            if (--group.pending == 0)
                finishStatsGroup(entry.statsGroup);
        }
        return;
    }

    completedCount->inc();
    // Restore the client's tag (the rid was ours, not theirs).
    if (entry.tag.empty())
        json.erase("tag");
    else
        json.set("tag", entry.tag);
    replyToClient(entry.clientFd, entry.clientGen, json.dump(0) + "\n",
                  /*decrementInFlight=*/true);
}

void
ShardRouter::appendOutput(Peer &peer, const std::string &line)
{
    peer.outbuf.append(line);
}

void
ShardRouter::flushOutput(Peer &peer)
{
    while (peer.outOffset < peer.outbuf.size()) {
        const ssize_t n =
            sendRetry(peer.fd, peer.outbuf.data() + peer.outOffset,
                      peer.outbuf.size() - peer.outOffset);
        if (n > 0) {
            peer.outOffset += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break; // Kernel buffer full: wait for EPOLLOUT.
        if (peer.shard >= 0)
            shardDied(peer.shard);
        else
            closePeer(peer.fd);
        return;
    }
    if (peer.outOffset == peer.outbuf.size()) {
        peer.outbuf.clear();
        peer.outOffset = 0;
    } else if (peer.outOffset > (1u << 16) &&
               peer.outOffset >= peer.outbuf.size() / 2) {
        peer.outbuf.erase(0, peer.outOffset);
        peer.outOffset = 0;
    }
    if (peer.shard < 0 &&
        peer.outbuf.size() - peer.outOffset > options.maxOutputBytes) {
        // Slow client (shard pipes are bounded by maxOutstandingPerShard
        // instead — disconnecting a shard would lose its caches).
        slowDisconnects->inc();
        warn("net: disconnecting slow client (unread output over " +
             std::to_string(options.maxOutputBytes) + " bytes)");
        closePeer(peer.fd);
        return;
    }
    updateInterest(peer);
    if (peer.shard < 0)
        maybeFinishClient(peer);
}

void
ShardRouter::queueFlush(Peer &peer)
{
    if (peer.flushQueued)
        return;
    peer.flushQueued = true;
    flushPending.push_back(peer.fd);
}

void
ShardRouter::flushPendingPeers()
{
    // Index loop: flushing can kill a shard, whose error replies queue
    // additional client flushes onto the tail of this very vector.
    for (size_t i = 0; i < flushPending.size(); ++i) {
        auto it = peers.find(flushPending[i]);
        if (it == peers.end())
            continue; // Closed (or the fd re-accepted) mid-batch.
        it->second->flushQueued = false;
        flushOutput(*it->second);
    }
    flushPending.clear();
}

void
ShardRouter::updateInterest(Peer &peer)
{
    // Shard pipes stay readable during a drain (their replies are the
    // drain); clients do not (no new work once stopping).
    const bool want_read =
        !peer.eof && !peer.closeAfterFlush && (peer.shard >= 0 || !stopping);
    const bool want_write = peer.outOffset < peer.outbuf.size();
    const uint32_t events =
        (want_read ? static_cast<uint32_t>(EPOLLIN) : 0u) |
        (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    if (events == peer.registered)
        return;
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.fd = peer.fd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_MOD, peer.fd, &ev) == 0)
        peer.registered = events;
}

void
ShardRouter::maybeFinishClient(Peer &peer)
{
    const bool flushed = peer.outOffset >= peer.outbuf.size();
    if (!flushed)
        return;
    if (peer.closeAfterFlush || (peer.eof && peer.inFlight == 0))
        closePeer(peer.fd);
}

void
ShardRouter::closePeer(int fd)
{
    auto it = peers.find(fd);
    if (it == peers.end())
        return;
    ensure(it->second->shard < 0, "net: closePeer on a shard pipe");
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    closeFd(fd);
    peers.erase(it);
    ensure(clientPeers > 0, "net: client peer count underflow");
    --clientPeers;
    activeConnections->set(static_cast<int64_t>(clientPeers));
    // Outstanding rids of this client stay in ridMap: the shard still
    // answers them, and replyToClient drops the reply (gen mismatch).
}

void
ShardRouter::shardDied(int shard)
{
    Peer *pipe = findShardPeer(shard);
    if (pipe == nullptr)
        return;
    const int fd = pipe->fd;
    warn("net: shard " + std::to_string(shard) +
         " died; remapping its keys across " +
         std::to_string(ring.liveShards() - 1) + " survivors");
    shardDeaths->inc();
    shardStates[static_cast<size_t>(shard)].healthy->set(0);
    ring.removeShard(static_cast<size_t>(shard));
    liveShardsGauge->set(static_cast<int64_t>(ring.liveShards()));
    shardFds[static_cast<size_t>(shard)] = -1;
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    closeFd(fd);
    peers.erase(fd);

    // Resolve everything that was outstanding on the dead shard: retry
    // once on the shard its keys remapped to (forecasts are idempotent),
    // then give up with a typed error.
    std::vector<std::pair<std::string, RidEntry>> failed;
    for (auto it = ridMap.begin(); it != ridMap.end();) {
        if (it->second.shard == shard) {
            failed.emplace_back(it->first, std::move(it->second));
            it = ridMap.erase(it);
        } else {
            ++it;
        }
    }
    for (auto &[rid, entry] : failed) {
        (void)rid;
        if (entry.statsGroup != 0) {
            auto git = statsGroups.find(entry.statsGroup);
            if (git != statsGroups.end()) {
                ensure(git->second.pending > 0,
                       "net: stats group underflow");
                if (--git->second.pending == 0)
                    finishStatsGroup(entry.statsGroup);
            }
            continue;
        }
        if (entry.timedOut)
            continue; // The deadline already answered this client.
        if (!stopping && entry.attempts <= options.retryLimit) {
            ++entry.attempts;
            // The deadline stays the original one: a retry buys the
            // request a new shard, not more time.
            if (forwardEntry(entry) == ForwardStatus::Ok) {
                retriesTotal->inc();
                continue;
            }
        }
        rejectRid(entry, "shard worker died before answering",
                  "unavailable");
    }
    scheduleRespawn(static_cast<size_t>(shard));
}

void
ShardRouter::scheduleRespawn(size_t shard)
{
    if (stopping || !options.respawn)
        return;
    ShardState &state = shardStates[shard];
    if (state.parked)
        return;
    const RespawnScheduler::Decision decision =
        state.scheduler.recordDeath(Clock::now());
    if (decision.park) {
        state.parked = true;
        shardParked->inc();
        warn("net: shard " + std::to_string(shard) + " crash-looped " +
             std::to_string(state.scheduler.rapidDeaths()) +
             " times; parking it (its keys stay on the survivors)");
        return;
    }
    state.respawnPending = true;
    state.respawnAt =
        Clock::now() + std::chrono::milliseconds(decision.delayMs);
}

void
ShardRouter::reapChildren()
{
    for (;;) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            return;
        auto it = pidToShard.find(pid);
        if (it == pidToShard.end())
            continue;
        const size_t shard = it->second;
        pidToShard.erase(it);
        // Only the current incarnation's exit is a death event; a late
        // reap of a pre-respawn pid is pure bookkeeping.
        if (shardStates[shard].pid == pid) {
            shardStates[shard].pid = -1;
            shardDied(static_cast<int>(shard));
        }
    }
}

void
ShardRouter::fireDeadlines(std::chrono::steady_clock::time_point now)
{
    while (!deadlines.empty() && deadlines.begin()->first <= now) {
        const std::string rid = deadlines.begin()->second;
        deadlines.erase(deadlines.begin());
        auto it = ridMap.find(rid);
        if (it == ridMap.end() || it->second.timedOut)
            continue; // Answered (or re-routed under a new rid) already.
        RidEntry &entry = it->second;
        // The entry stays in ridMap so the shard's late reply still
        // balances its outstanding counter; handleShardLine drops it.
        entry.timedOut = true;
        timeoutsTotal->inc();
        timedOutCount->inc();
        replyToClient(entry.clientFd, entry.clientGen,
                      errorLine(entry.tag, "request deadline exceeded",
                                "timeout"),
                      /*decrementInFlight=*/true);
    }
}

void
ShardRouter::processHeartbeats(std::chrono::steady_clock::time_point now)
{
    if (options.heartbeatIntervalMs <= 0 || stopping)
        return;
    if (now < nextHeartbeatAt)
        return;
    nextHeartbeatAt =
        now + std::chrono::milliseconds(options.heartbeatIntervalMs);
    for (size_t s = 0; s < shardStates.size(); ++s) {
        Peer *pipe = findShardPeer(static_cast<int>(s));
        if (pipe == nullptr)
            continue;
        ShardState &state = shardStates[s];
        if (state.pendingPings >= options.heartbeatMissLimit) {
            // Alive but silent: a wedge the kernel will never report.
            warn("net: shard " + std::to_string(s) + " missed " +
                 std::to_string(state.pendingPings) +
                 " heartbeats; presumed wedged, killing it");
            state.healthy->set(0);
            if (state.pid > 0)
                ::kill(state.pid, SIGKILL);
            shardDied(static_cast<int>(s));
            continue;
        }
        ++state.pendingPings;
        common::Json ping;
        ping.set("op", "ping");
        ping.set("tag", "hb" + std::to_string(nextPing++));
        appendOutput(*pipe, ping.dump(0) + "\n");
        queueFlush(*pipe);
    }
}

void
ShardRouter::performRespawns(std::chrono::steady_clock::time_point now)
{
    if (stopping || !options.respawn)
        return;
    for (size_t s = 0; s < shardStates.size(); ++s) {
        ShardState &state = shardStates[s];
        if (!state.respawnPending || now < state.respawnAt)
            continue;
        state.respawnPending = false;
        const ShardHandle handle = options.respawn(s);
        if (handle.fd < 0) {
            warn("net: respawn of shard " + std::to_string(s) +
                 " failed; retrying");
            state.respawnPending = true;
            state.respawnAt =
                now + std::chrono::milliseconds(
                          options.respawnPolicy.baseBackoffMs);
            continue;
        }
        registerShardPipe(s, handle.fd);
        state.pid = handle.pid;
        if (handle.pid > 0)
            pidToShard[handle.pid] = s;
        state.scheduler.recordSpawn(now);
        state.pendingPings = 0;
        state.healthy->set(1);
        // Identical vnode labels: the shard reclaims exactly the keys it
        // owned before dying, and only those.
        ring.addShard(s);
        liveShardsGauge->set(static_cast<int64_t>(ring.liveShards()));
        shardRestarts->inc();
        inform("net: shard " + std::to_string(s) + " respawned (pid " +
               std::to_string(handle.pid) + "), rejoining the ring");
    }
}

int
ShardRouter::loopTimeoutMs(std::chrono::steady_clock::time_point now) const
{
    auto next = Clock::time_point::max();
    bool have = false;
    if (stopping) {
        next = stopDeadline;
        have = true;
    } else {
        if (options.heartbeatIntervalMs > 0) {
            next = nextHeartbeatAt;
            have = true;
        }
        for (const ShardState &state : shardStates) {
            if (state.respawnPending && (!have || state.respawnAt < next)) {
                next = state.respawnAt;
                have = true;
            }
        }
    }
    if (!deadlines.empty() && (!have || deadlines.begin()->first < next)) {
        next = deadlines.begin()->first;
        have = true;
    }
    if (!have)
        return -1;
    if (next <= now)
        return 0;
    const long long ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
            .count() +
        1;
    return ms > 60000 ? 60000 : static_cast<int>(ms);
}

void
ShardRouter::beginStop()
{
    if (stopping)
        return;
    stopping = true;
    stopDeadline = Clock::now() +
                   std::chrono::milliseconds(options.drainTimeoutMs);
    // A drain never spawns: pending respawns are cancelled, and the
    // frontend's final reap collects whoever is still alive.
    for (ShardState &state : shardStates)
        state.respawnPending = false;
    if (listenFd >= 0) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
        closeFd(listenFd);
        listenFd = -1;
    }
    for (auto &entry : peers)
        updateInterest(*entry.second);
}

bool
ShardRouter::drained() const
{
    if (!ridMap.empty() || !statsGroups.empty())
        return false;
    for (const auto &entry : peers)
        if (entry.second->shard < 0 &&
            entry.second->outOffset < entry.second->outbuf.size())
            return false;
    return true;
}

void
ShardRouter::run()
{
    constexpr int kMaxEvents = 64;
    struct epoll_event events[kMaxEvents];
    installSigchld(&childExited, wake.writeFd);
    nextHeartbeatAt =
        Clock::now() +
        std::chrono::milliseconds(
            options.heartbeatIntervalMs > 0 ? options.heartbeatIntervalMs
                                            : 0);
    for (;;) {
        const int timeout_ms = loopTimeoutMs(Clock::now());
        const int n = epollWaitRetry(epollFd, events, kMaxEvents, timeout_ms);
        if (n < 0)
            fatal(std::string("net: epoll_wait failed: ") + strerror(errno));
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const uint32_t mask = events[i].events;
            if (fd == wake.readFd) {
                wake.drain();
                continue;
            }
            if (fd == listenFd) {
                if (!stopping)
                    acceptAll();
                continue;
            }
            auto it = peers.find(fd);
            if (it == peers.end())
                continue;
            Peer &peer = *it->second;
            if (mask & (EPOLLERR | EPOLLHUP)) {
                if (peer.shard >= 0)
                    shardDied(peer.shard);
                else
                    closePeer(fd);
                continue;
            }
            if (mask & EPOLLIN)
                handleReadable(peer);
            if (peers.find(fd) == peers.end())
                continue;
            if (mask & EPOLLOUT)
                flushOutput(*peers.find(fd)->second);
        }
        const Clock::time_point now = Clock::now();
        if (childExited.exchange(false, std::memory_order_acq_rel))
            reapChildren();
        fireDeadlines(now);
        processHeartbeats(now);
        performRespawns(now);
        // One send() per peer per batch: every reply/forward appended
        // above goes out here, before the loop can sleep again.
        flushPendingPeers();
        if (stopRequested.load(std::memory_order_acquire))
            beginStop();
        if (stopping &&
            (drained() || Clock::now() >= stopDeadline))
            break;
    }

    // Close every stream. Shard workers see EOF on their pipes, drain
    // whatever they still hold, and exit; the frontend reaps them
    // (activePids() names the ones this loop has not reaped already).
    for (auto &entry : peers) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, entry.second->fd, nullptr);
        closeFd(entry.second->fd);
    }
    peers.clear();
    clientPeers = 0;
    activeConnections->set(0);
    installSigchld(nullptr, -1);
}

} // namespace neusight::net
