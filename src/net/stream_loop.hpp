/**
 * @file
 * The one level-triggered epoll loop under both network front-ends:
 * SocketServer (one shard, in-process engine) and ShardRouter (N forked
 * shards). It owns every mechanism the two share:
 *  - the epoll fd, the wake pipe, the listen socket and its accept
 *    loop. When the process runs out of file descriptors (EMFILE /
 *    ENFILE) the listen fd leaves epoll with one warning and rejoins
 *    when a stream closes or kAcceptRetryMs passes; a level-triggered
 *    listen fd would otherwise spin on accept;
 *  - the stream table: line framing with oversized-line handling,
 *    output buffers flushed once per event batch (one send() per
 *    stream), the slow-reader cut-off, interest management and
 *    close-after-flush;
 *  - the client-line front half: skip blank lines, count, parse, answer
 *    "ping" inline (a pong proves the loop itself is alive, even when
 *    the engine is saturated), reject while draining, per-client
 *    admission;
 *  - one deadline queue over request ids (stale ids skip lazily) and
 *    the loop timeout;
 *  - graceful stop: stop accepting and reading clients, answer what was
 *    dispatched, flush, return.
 *
 * A stream is either a client stream, whose lines are requests (an
 * accepted TCP connection, or a shard worker's adopted router pipe), or
 * a pipe stream, whose lines are replies (the router's shard pipes). A
 * subclass supplies its policy through the hooks: dispatch() for each
 * admitted client request, onPipeLine()/onPipeLost() for pipes,
 * onDeadline() for expired ids, poll() after each event batch.
 *
 * Every syscall retries EINTR (net/io.hpp) and sends use MSG_NOSIGNAL,
 * so a client hanging up mid-response closes that stream, never the
 * process.
 *
 * The process that faces the clients counts the client metrics
 * (net.connections, net.active_connections, net.lines) and the request
 * ledger net.requests.{submitted,completed,rejected,timed_out}, which
 * holds submitted == completed + rejected + timed_out at quiescence. A
 * loop serving one adopted stream counts neither: its peer, the router,
 * already did.
 */

#ifndef NEUSIGHT_NET_STREAM_LOOP_HPP
#define NEUSIGHT_NET_STREAM_LOOP_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "net/io.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/wire.hpp"

namespace neusight::net {

/** The options both front-ends share. */
struct StreamLoopOptions
{
    /** Listen address; loopback by default (no accidental exposure). */
    std::string bindAddress = "127.0.0.1";
    /** Listen port; 0 binds an ephemeral port (see port()). */
    uint16_t port = 0;
    /** Longest accepted request line; longer ones answer an error and
     *  close the connection. */
    size_t maxLineBytes = serve::LineFramer::kDefaultMaxLineBytes;
    /** Unread-response bound per client; a slower reader is
     *  disconnected (slow-client protection). */
    size_t maxOutputBytes = 8u << 20;
    /** In-flight requests allowed per client before admission control
     *  rejects; 0 = unlimited. */
    size_t maxInFlightPerClient = 256;
    /** Bound on the graceful drain after a stop request; streams still
     *  unflushed at the deadline are dropped. */
    int drainTimeoutMs = 30000;
    /** Default per-request deadline; 0 = unbounded. A request's own
     *  "timeout_ms" field overrides it. Past the deadline the client
     *  receives a typed "timeout" error and the late result is dropped. */
    int requestTimeoutMs = 0;
};

/**
 * The loop core. Construction binds (listen mode) so port() is
 * immediately valid; runLoop() blocks until a stop request completes
 * its drain, or until the adopted stream closes and every request it
 * carried has settled.
 */
class StreamLoop
{
  public:
    virtual ~StreamLoop();

    StreamLoop(const StreamLoop &) = delete;
    StreamLoop &operator=(const StreamLoop &) = delete;

    /** The bound TCP port (0 when serving an adopted stream). */
    uint16_t port() const { return boundPort; }

    /** Ask the loop to drain and return. Thread-safe and idempotent. */
    void requestStop();

    /// @name Stop-signal plumbing for net::installStopSignals.
    /// @{
    std::atomic<bool> *stopFlag() { return &stopRequested; }
    int wakeWriteFd() const { return wake.writeFd; }
    /// @}

  protected:
    using Clock = std::chrono::steady_clock;

    /** One incarnation of a client stream: an answer for a stream that
     *  closed (or whose fd was reused since) is dropped. */
    struct ClientRef
    {
        int fd = -1;
        uint64_t gen = 0;
    };

    struct Stream
    {
        int fd = -1;
        uint64_t gen = 0;
        /** -1 for a client stream; else the subclass's pipe index. */
        int pipe = -1;
        serve::LineFramer framer;
        /** Unwritten bytes ([outOffset, size) is pending). */
        std::string outbuf;
        size_t outOffset = 0;
        /** Client: requests dispatched and not yet answered. */
        size_t inFlight = 0;
        /** Client: peer finished sending; close once answered. */
        bool eof = false;
        /** Protocol violation: close as soon as outbuf flushes. */
        bool closeAfterFlush = false;
        /** Event mask currently registered with epoll. */
        uint32_t registered = 0;
        /** Already queued for this batch's flush. */
        bool flushQueued = false;

        bool isClient() const { return pipe < 0; }
        ClientRef ref() const { return {fd, gen}; }
    };

    /** One admitted client request, handed to dispatch(). */
    struct ClientRequest
    {
        std::string tag;
        common::Json json;
        serve::ForecastRequest request;
        /** The effective deadline: the request's own "timeout_ms", else
         *  requestTimeoutMs; 0 = none. */
        uint64_t timeoutMs = 0;
    };

    enum class Outcome
    {
        Completed,
        Rejected,
        TimedOut,
    };

    /**
     * @param registry  where the loop's metrics live
     * @param adoptedFd >= 0: serve this connected stream instead of
     *                  listening; the loop owns it and counts no client
     *                  metrics
     */
    StreamLoop(const StreamLoopOptions &options,
               std::shared_ptr<obs::MetricsRegistry> registry,
               int adoptedFd);

    /** Run the loop until the drain completes; then every stream is
     *  closed. */
    void runLoop();

    /// @name Policy hooks.
    /// @{
    /** An admitted client request; @p client's in-flight count already
     *  includes it, so every outcome must answer() it. */
    virtual void dispatch(Stream &client, ClientRequest &request) = 0;
    /** A deadline armed with armDeadline() expired (maybe stale). */
    virtual void onDeadline(uint64_t id) = 0;
    /** No dispatched request is still unanswered. */
    virtual bool settled() const = 0;
    /** After each event batch, before deadlines fire. */
    virtual void poll(Clock::time_point) {}
    /** The subclass's next timer while serving (not while draining). */
    virtual Clock::time_point nextTimer() const
    {
        return Clock::time_point::max();
    }
    virtual void onPipeLine(Stream &, const std::string &) {}
    /** A pipe hit EOF or an error; the subclass closes it. */
    virtual void onPipeLost(Stream &) {}
    /** Just before a stream's pending output is sent. */
    virtual void beforeFlush(Stream &) {}
    /// @}

    /// @name Services for the policy.
    /// @{
    /** Register a connected pipe stream (fatal on failure). */
    void addPipe(int fd, int pipe);
    Stream *findStream(int fd);
    void closeStream(int fd);
    /** Append @p line to @p stream, sent at the end of this batch. */
    void queueLine(Stream &stream, std::string_view line);
    /** Answer one dispatched request of @p to (dropped if it left). */
    void answer(ClientRef to, std::string_view line);
    /** Answer a dispatched request with a typed rejection (counted in
     *  serve.rejected and the ledger). */
    void reject(ClientRef to, const std::string &tag,
                const std::string &why, const std::string &code,
                bool entered = true);
    /** Answer a dispatched request with a typed "timeout". */
    void timeOut(ClientRef to, const std::string &tag, bool entered = true);
    /**
     * Count one settled request in the ledger. A request enters the
     * ledger (submitted) when the front half admits it, except a stats
     * request, which enters as it settles (@p entered false) so the
     * snapshot it carries balances.
     */
    void settle(Outcome outcome, bool entered = true);
    void armDeadline(uint64_t id, Clock::time_point at);
    /** Deregister everything, the wake pipe included: the loop blocks
     *  until the process is killed (fault injection's wedge). */
    void goSilent();
    void countProtocolError() { protocolErrors->inc(); }
    /** Rouse a blocked epoll_wait (thread- and signal-safe). */
    void wakeLoop() const { wake.notify(); }
    bool isStopping() const { return stopping; }
    obs::MetricsRegistry &metricsRegistry() { return *registry; }
    /// @}

  private:
    /** How long accepts pause after EMFILE/ENFILE when no stream
     *  closes in the meantime. */
    static constexpr int kAcceptRetryMs = 100;

    void acceptAll();
    void pauseAccept();
    void resumeAccept();
    bool addStream(int fd, int pipe);
    bool alive(int fd, uint64_t gen) const;
    void handleEvent(int fd, uint32_t mask);
    void handleReadable(Stream &stream);
    void processLines(Stream &stream);
    void handleClientLine(Stream &client, const std::string &line);
    /** Front-half rejection (nothing dispatched yet). */
    void refuse(Stream &client, const std::string &tag,
                const std::string &why, const std::string &code,
                bool entered);
    void lose(Stream &stream);
    void queueFlush(Stream &stream);
    void flushQueued();
    void flushOutput(Stream &stream);
    bool wantsRead(const Stream &stream) const;
    void updateInterest(Stream &stream);
    void maybeFinish(Stream &stream);
    void fireDeadlines(Clock::time_point now);
    int loopTimeoutMs(Clock::time_point now) const;
    void beginStop();
    bool drained() const;

    StreamLoopOptions options;
    std::shared_ptr<obs::MetricsRegistry> registry;
    /** Where a loop serving an adopted stream counts the client
     *  metrics: nothing reads it. */
    obs::MetricsRegistry uncounted;
    WakePipe wake;
    int epollFd = -1;
    int listenFd = -1;
    uint16_t boundPort = 0;
    std::atomic<bool> stopRequested{false};
    bool stopping = false;
    Clock::time_point stopDeadline;
    bool silenced = false;
    /** The listen fd is out of epoll after EMFILE/ENFILE. */
    bool acceptPaused = false;
    Clock::time_point acceptResumeAt;
    /** The descriptor-exhaustion warning was printed; reset when an
     *  accept succeeds again. */
    bool fdWarned = false;

    uint64_t nextGen = 1;
    std::unordered_map<int, std::unique_ptr<Stream>> streams;
    size_t clientStreams = 0;
    /** Streams with output appended this batch, flushed together. */
    std::vector<int> flushPending;
    /** Deadline queue over request ids; stale entries skip lazily. */
    std::multimap<Clock::time_point, uint64_t> deadlines;

    std::shared_ptr<obs::Counter> connectionsTotal;
    std::shared_ptr<obs::Gauge> activeConnections;
    std::shared_ptr<obs::Counter> linesTotal;
    std::shared_ptr<obs::Counter> protocolErrors;
    std::shared_ptr<obs::Counter> slowDisconnects;
    /** serve.rejected: the engine's own rejection counter in
     *  single-shard mode, so one metric names every rejection. */
    std::shared_ptr<obs::Counter> rejectedCount;
    std::shared_ptr<obs::Counter> timeoutsCount;
    std::shared_ptr<obs::Counter> submittedCount;
    std::shared_ptr<obs::Counter> completedCount;
    std::shared_ptr<obs::Counter> rejectedReqCount;
    std::shared_ptr<obs::Counter> timedOutCount;
};

} // namespace neusight::net

#endif // NEUSIGHT_NET_STREAM_LOOP_HPP
