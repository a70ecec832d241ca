#include "net/shard_router.hpp"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <sys/wait.h>
#include <utility>

#include "common/logging.hpp"
#include "obs/merge.hpp"

namespace neusight::net {

namespace {

/** The wire tag of routing id @p rid. */
std::string
ridTag(uint64_t rid)
{
    return "r" + std::to_string(rid);
}

/** Parse "r<N>" back into N; false for anything else. */
bool
parseRidTag(const std::string &tag, uint64_t *rid)
{
    if (tag.size() < 2 || tag[0] != 'r')
        return false;
    const char *end = tag.data() + tag.size();
    const auto [ptr, ec] = std::from_chars(tag.data() + 1, end, *rid);
    return ec == std::errc() && ptr == end;
}

} // namespace

ShardRouter::ShardRouter(std::vector<ShardHandle> shards,
                         ShardRouterOptions options_)
    : StreamLoop(options_, std::make_shared<obs::MetricsRegistry>(), -1),
      options(std::move(options_)), ring(shards.empty() ? 1 : shards.size())
{
    ensure(!shards.empty(), "ShardRouter: need at least one shard");
    obs::MetricsRegistry &registry = metrics();
    forwardedTotal = registry.counter("router.forwarded");
    shardDeaths = registry.counter("net.shard.deaths");
    shardRestarts = registry.counter("net.shard.restarts");
    shardParked = registry.counter("net.shard.parked");
    retriesTotal = registry.counter("net.retries");
    liveShardsGauge = registry.gauge("router.live_shards");
    liveShardsGauge->set(static_cast<int64_t>(shards.size()));

    const Clock::time_point now = Clock::now();
    shardStates.resize(shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
        ensure(shards[s].fd >= 0, "ShardRouter: bad shard fd");
        ShardState &state = shardStates[s];
        addPipe(shards[s].fd, static_cast<int>(s));
        state.fd = shards[s].fd;
        state.pid = shards[s].pid;
        state.scheduler = RespawnScheduler(options.respawnPolicy);
        state.scheduler.recordSpawn(now);
        state.healthy =
            registry.gauge("net.shard.healthy." + std::to_string(s));
        state.healthy->set(1);
        if (shards[s].pid > 0)
            pidToShard[shards[s].pid] = s;
    }
}

void
ShardRouter::run()
{
    installSigchld(&childExited, wakeWriteFd());
    nextHeartbeatAt =
        Clock::now() + std::chrono::milliseconds(
                           std::max(options.heartbeatIntervalMs, 0));
    runLoop();
    installSigchld(nullptr, -1);
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

ShardRouter::Stream *
ShardRouter::shardPipe(int shard)
{
    if (shard < 0 || static_cast<size_t>(shard) >= shardStates.size())
        return nullptr;
    const int fd = shardStates[static_cast<size_t>(shard)].fd;
    return fd < 0 ? nullptr : findStream(fd);
}

ShardRouter::ForwardStatus
ShardRouter::forwardEntry(RidEntry &entry)
{
    if (ring.liveShards() == 0)
        return ForwardStatus::NoLiveShard;
    const int shard = static_cast<int>(ring.shardFor(entry.fingerprint));
    Stream *pipe = shardPipe(shard);
    if (pipe == nullptr) {
        // The ring said live but the pipe is gone: a death we have not
        // fully processed yet.
        return ForwardStatus::PipeMissing;
    }
    ShardState &state = shardStates[static_cast<size_t>(shard)];
    if (state.outstanding >= options.maxOutstandingPerShard)
        return ForwardStatus::BacklogFull;
    const uint64_t rid = nextRid++;
    entry.forwardJson.set("tag", ridTag(rid));
    entry.shard = shard;
    queueLine(*pipe, entry.forwardJson.dump(0) + "\n");
    ++state.outstanding;
    forwardedTotal->inc();
    if (entry.hasDeadline)
        armDeadline(rid, entry.deadline);
    ridMap[rid] = std::move(entry);
    return ForwardStatus::Ok;
}

void
ShardRouter::dispatch(Stream &client, ClientRequest &req)
{
    if (req.request.kind == serve::RequestKind::Stats) {
        handleStatsRequest(client, req.tag);
        return;
    }
    RidEntry entry;
    entry.client = client.ref();
    entry.tag = req.tag;
    entry.fingerprint = req.request.fingerprint();
    entry.forwardJson = std::move(req.json);
    // The router owns deadline enforcement in sharded mode; the worker
    // never sees the field (it would answer the timeout a second time).
    entry.forwardJson.erase("timeout_ms");
    if (req.timeoutMs > 0) {
        entry.hasDeadline = true;
        entry.deadline =
            Clock::now() + std::chrono::milliseconds(req.timeoutMs);
    }
    switch (forwardEntry(entry)) {
      case ForwardStatus::Ok:
        return;
      case ForwardStatus::NoLiveShard:
        reject(entry.client, req.tag, "every shard worker has died",
               "unavailable");
        return;
      case ForwardStatus::PipeMissing:
        reject(entry.client, req.tag, "the shard owning this key is down",
               "unavailable");
        return;
      case ForwardStatus::BacklogFull:
        reject(entry.client, req.tag,
               "server overloaded (shard backlog full)", "overload");
        return;
    }
}

void
ShardRouter::handleStatsRequest(Stream &client, const std::string &tag)
{
    const uint64_t groupId = nextStatsGroup++;
    StatsGroup &group = statsGroups[groupId];
    group.client = client.ref();
    group.tag = tag;
    for (size_t s = 0; s < shardStates.size(); ++s) {
        Stream *pipe = shardPipe(static_cast<int>(s));
        if (pipe == nullptr)
            continue;
        const uint64_t rid = nextRid++;
        common::Json statsReq;
        statsReq.set("op", "stats");
        statsReq.set("tag", ridTag(rid));
        RidEntry &entry = ridMap[rid];
        entry.client = group.client;
        entry.tag = tag;
        entry.shard = static_cast<int>(s);
        entry.statsGroup = groupId;
        ++group.pending;
        ++shardStates[s].outstanding;
        queueLine(*pipe, statsReq.dump(0) + "\n");
    }
    if (group.pending == 0)
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
    // The snapshot below must already count this very request, or the
    // ledger would be off by one in it.
    settle(Outcome::Completed, /*entered=*/false);
    std::vector<common::Json> snapshots = std::move(group.snapshots);
    snapshots.push_back(metrics().toJson());
    common::Json reply;
    if (!group.tag.empty())
        reply.set("tag", group.tag);
    reply.set("ok", true);
    reply.set("stats", obs::mergeMetricsSnapshots(snapshots));
    reply.set("shards", static_cast<int64_t>(ring.liveShards()));
    answer(group.client, reply.dump(0) + "\n");
}

void
ShardRouter::onPipeLine(Stream &pipe, const std::string &line)
{
    common::Json json;
    try {
        json = common::Json::parse(line);
    } catch (const std::exception &e) {
        countProtocolError();
        warn("net: unparseable reply from shard " +
             std::to_string(pipe.pipe) + ": " + e.what());
        return;
    }
    const std::string tag = json.isObject() ? json.stringOr("tag", "") : "";
    if (tag.rfind("hb", 0) == 0) {
        // Heartbeat pong: not a client request, never in ridMap.
        ShardState &state = shardStates[static_cast<size_t>(pipe.pipe)];
        state.pendingPings = 0;
        state.healthy->set(1);
        return;
    }
    uint64_t rid = 0;
    auto it = parseRidTag(tag, &rid) ? ridMap.find(rid) : ridMap.end();
    if (it == ridMap.end()) {
        countProtocolError();
        warn("net: reply from shard " + std::to_string(pipe.pipe) +
             " for unknown rid '" + tag + "'");
        return;
    }
    RidEntry entry = std::move(it->second);
    ridMap.erase(it);
    ShardState &state = shardStates[static_cast<size_t>(pipe.pipe)];
    ensure(state.outstanding > 0, "net: shard outstanding underflow");
    --state.outstanding;

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

    settle(Outcome::Completed);
    // Restore the client's tag (the rid was ours, not theirs).
    if (entry.tag.empty())
        json.erase("tag");
    else
        json.set("tag", entry.tag);
    answer(entry.client, json.dump(0) + "\n");
}

void
ShardRouter::onPipeLost(Stream &pipe)
{
    shardDied(pipe.pipe);
}

void
ShardRouter::shardDied(int shard)
{
    Stream *pipe = shardPipe(shard);
    if (pipe == nullptr)
        return;
    warn("net: shard " + std::to_string(shard) +
         " died; remapping its keys across " +
         std::to_string(ring.liveShards() - 1) + " survivors");
    shardDeaths->inc();
    ShardState &state = shardStates[static_cast<size_t>(shard)];
    state.healthy->set(0);
    ring.removeShard(static_cast<size_t>(shard));
    liveShardsGauge->set(static_cast<int64_t>(ring.liveShards()));
    closeStream(state.fd);
    state.fd = -1;
    state.outstanding = 0;

    // Resolve everything that was outstanding on the dead shard: retry
    // once on the shard its keys remapped to (forecasts are idempotent),
    // then give up with a typed error.
    std::vector<RidEntry> failed;
    for (auto it = ridMap.begin(); it != ridMap.end();) {
        if (it->second.shard == shard) {
            failed.push_back(std::move(it->second));
            it = ridMap.erase(it);
        } else {
            ++it;
        }
    }
    for (RidEntry &entry : failed) {
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
        if (!isStopping() && entry.attempts <= options.retryLimit) {
            ++entry.attempts;
            // The deadline stays the original one: a retry buys the
            // request a new shard, not more time.
            if (forwardEntry(entry) == ForwardStatus::Ok) {
                retriesTotal->inc();
                continue;
            }
        }
        reject(entry.client, entry.tag, "shard worker died before answering",
               "unavailable");
    }
    scheduleRespawn(static_cast<size_t>(shard));
}

void
ShardRouter::scheduleRespawn(size_t shard)
{
    if (isStopping() || !options.respawn)
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
ShardRouter::onDeadline(uint64_t rid)
{
    auto it = ridMap.find(rid);
    if (it == ridMap.end() || it->second.timedOut)
        return; // Answered (or re-routed under a new rid) already.
    // The entry stays in ridMap so the shard's late reply still
    // balances its outstanding count; onPipeLine drops it.
    it->second.timedOut = true;
    timeOut(it->second.client, it->second.tag);
}

void
ShardRouter::processHeartbeats(Clock::time_point now)
{
    if (options.heartbeatIntervalMs <= 0 || isStopping() ||
        now < nextHeartbeatAt)
        return;
    nextHeartbeatAt =
        now + std::chrono::milliseconds(options.heartbeatIntervalMs);
    for (size_t s = 0; s < shardStates.size(); ++s) {
        Stream *pipe = shardPipe(static_cast<int>(s));
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
        queueLine(*pipe, ping.dump(0) + "\n");
    }
}

void
ShardRouter::performRespawns(Clock::time_point now)
{
    if (isStopping() || !options.respawn)
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
        addPipe(handle.fd, static_cast<int>(s));
        state.fd = handle.fd;
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

void
ShardRouter::poll(Clock::time_point now)
{
    if (childExited.exchange(false, std::memory_order_acq_rel))
        reapChildren();
    processHeartbeats(now);
    performRespawns(now);
}

ShardRouter::Clock::time_point
ShardRouter::nextTimer() const
{
    Clock::time_point next = Clock::time_point::max();
    if (options.heartbeatIntervalMs > 0)
        next = nextHeartbeatAt;
    for (const ShardState &state : shardStates)
        if (state.respawnPending && state.respawnAt < next)
            next = state.respawnAt;
    return next;
}

bool
ShardRouter::settled() const
{
    return ridMap.empty() && statsGroups.empty();
}

} // namespace neusight::net
