/**
 * @file
 * The single-shard front-end: a StreamLoop (net/stream_loop.hpp, which
 * owns sockets, framing, flushing, deadlines and the drain) whose
 * policy submits each admitted request straight into the existing
 * serve::ForecastServer via trySubmit (non-blocking, so hundreds of
 * pipelined requests coalesce inside the engine's queue instead of
 * stalling the loop). Worker-thread completions come back through a
 * completion queue and the loop's wake pipe. A full engine queue
 * answers a typed "overload" rejection, counted in serve.rejected.
 *
 * A request's deadline answers the client with a typed "timeout"; the
 * engine's late result is then dropped on arrival. An optional
 * FaultInjector (chaos testing) can crash or wedge the process on a
 * counted request and corrupt the write path.
 *
 * Replies carry the request's "tag" but may complete out of order
 * relative to submission (the worker pool finishes fast requests
 * first); clients that care tag their requests.
 */

#ifndef NEUSIGHT_NET_SOCKET_SERVER_HPP
#define NEUSIGHT_NET_SOCKET_SERVER_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fault.hpp"
#include "net/stream_loop.hpp"
#include "serve/server.hpp"

namespace neusight::net {

/** Construction-time configuration of a SocketServer. */
struct SocketServerOptions : StreamLoopOptions
{
    /**
     * Serve one already-connected stream instead of listening (the
     * shard-worker mode: the parent router is the only peer). The
     * server owns the fd and run() returns when it closes.
     */
    int adoptedFd = -1;
    /** Chaos-testing fault injector (net/fault.hpp); inactive by
     *  default. */
    FaultInjector fault;
};

/**
 * The socket front-end over one ForecastServer. run() blocks until a
 * stop request (requestStop() / installed signal) completes its drain,
 * or until the adopted stream closes. The ForecastServer must outlive
 * the SocketServer and is not stopped by it; the caller owns both.
 */
class SocketServer : public StreamLoop
{
  public:
    SocketServer(serve::ForecastServer &server, SocketServerOptions options);

    /** Run the loop; returns after the drain completes. */
    void run();

  private:
    /** One dispatched request awaiting its engine result. */
    struct PendingRequest
    {
        ClientRef client;
        std::string tag;
        /** A stats request enters the ledger only as it settles. */
        bool stats = false;
        /** Deadline fired and the client was answered; the engine's
         *  late result is dropped. */
        bool timedOut = false;
    };

    struct Completion
    {
        uint64_t reqId = 0;
        std::string line;
    };

    void dispatch(Stream &client, ClientRequest &request) override;
    void onDeadline(uint64_t reqId) override;
    bool settled() const override { return pendingReqs.empty(); }
    /** Deliver the completions the engine's workers parked. */
    void poll(Clock::time_point now) override;
    /** Fault injection may delay, truncate or garble a write batch. */
    void beforeFlush(Stream &stream) override;

    serve::ForecastServer &server;
    FaultInjector fault;

    uint64_t nextReqId = 1;
    /** Dispatched-but-unanswered requests, including those of closed
     *  clients whose completions are still due. */
    std::unordered_map<uint64_t, PendingRequest> pendingReqs;

    std::mutex completionMutex;
    std::vector<Completion> completions;
};

} // namespace neusight::net

#endif // NEUSIGHT_NET_SOCKET_SERVER_HPP
