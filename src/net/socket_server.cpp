#include "net/socket_server.hpp"

#include <csignal>
#include <utility>

#include "common/logging.hpp"

namespace neusight::net {

SocketServer::SocketServer(serve::ForecastServer &server_,
                           SocketServerOptions options)
    : StreamLoop(options, server_.metrics(), options.adoptedFd),
      server(server_), fault(std::move(options.fault))
{
}

void
SocketServer::run()
{
    runLoop();
    // A deadline exit can leave dispatched requests still computing,
    // and their completions capture `this`: wait until every one has
    // been answered (into the void) before the loop can be destroyed.
    server.drain();
    std::lock_guard<std::mutex> lock(completionMutex);
    completions.clear();
    pendingReqs.clear();
}

void
SocketServer::dispatch(Stream &client, ClientRequest &req)
{
    switch (fault.onRequest()) {
      case FaultAction::Kill:
        ::raise(SIGKILL); // Chaos: die exactly like a crashed worker.
        break;
      case FaultAction::Wedge:
        // Alive but silent: only a supervisor heartbeat can tell.
        warn("net: fault injection wedged this worker (alive but silent)");
        goSilent();
        return;
      case FaultAction::None:
        break;
    }
    const bool stats = req.request.kind == serve::RequestKind::Stats;
    const uint64_t reqId = nextReqId++;
    // trySubmit never blocks, so one slow forecast cannot stall the
    // loop.
    const bool accepted = server.trySubmit(
        std::move(req.request),
        [this, reqId](serve::ForecastResult result) {
            // Worker thread (or inline on shutdown): park the encoded
            // reply and wake the loop, which owns every stream.
            Completion done;
            done.reqId = reqId;
            done.line = serve::resultToJson(result).dump(0) + "\n";
            {
                std::lock_guard<std::mutex> lock(completionMutex);
                completions.push_back(std::move(done));
            }
            wakeLoop();
        });
    if (!accepted) {
        reject(client.ref(), req.tag, "server overloaded (engine queue full)",
               "overload", !stats);
        return;
    }
    PendingRequest &pending = pendingReqs[reqId];
    pending.client = client.ref();
    pending.tag = std::move(req.tag);
    pending.stats = stats;
    if (req.timeoutMs > 0)
        armDeadline(reqId, Clock::now() +
                               std::chrono::milliseconds(req.timeoutMs));
}

void
SocketServer::poll(Clock::time_point)
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completionMutex);
        batch.swap(completions);
    }
    for (Completion &done : batch) {
        auto it = pendingReqs.find(done.reqId);
        ensure(it != pendingReqs.end(), "net: completion of an unknown id");
        const PendingRequest pending = std::move(it->second);
        pendingReqs.erase(it);
        if (pending.timedOut)
            continue; // The deadline already answered this client.
        settle(Outcome::Completed, !pending.stats);
        answer(pending.client, done.line);
    }
}

void
SocketServer::onDeadline(uint64_t reqId)
{
    auto it = pendingReqs.find(reqId);
    if (it == pendingReqs.end() || it->second.timedOut)
        return; // Answered in time.
    // The entry stays until the completion arrives, which is then
    // dropped instead of delivered.
    it->second.timedOut = true;
    timeOut(it->second.client, it->second.tag, !it->second.stats);
}

void
SocketServer::beforeFlush(Stream &stream)
{
    if (!fault.active())
        return;
    std::string tail = stream.outbuf.substr(stream.outOffset);
    if (fault.onWrite(tail)) {
        stream.outbuf.resize(stream.outOffset);
        stream.outbuf += tail;
    }
}

} // namespace neusight::net
