#include "net/stream_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <unistd.h>
#include <utility>

#include "common/logging.hpp"

namespace neusight::net {

namespace {

/** Encoded error line ('\n'-terminated). @p code is the
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

bool
epollSet(int epoll_fd, int op, int fd, uint32_t events)
{
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

} // namespace

StreamLoop::StreamLoop(const StreamLoopOptions &options_,
                       std::shared_ptr<obs::MetricsRegistry> registry_,
                       int adoptedFd)
    : options(options_), registry(std::move(registry_))
{
    ensure(options.maxLineBytes > 0, "StreamLoop: maxLineBytes");
    // The process must already ignore SIGPIPE before the first send to
    // a hung-up client; tools call this too, but the loop must not rely
    // on it (MSG_NOSIGNAL covers sends either way).
    ignoreSigpipe();

    obs::MetricsRegistry &reg = *registry;
    obs::MetricsRegistry &clients = adoptedFd >= 0 ? uncounted : reg;
    connectionsTotal = clients.counter("net.connections");
    activeConnections = clients.gauge("net.active_connections");
    linesTotal = clients.counter("net.lines");
    submittedCount = clients.counter("net.requests.submitted");
    completedCount = clients.counter("net.requests.completed");
    rejectedReqCount = clients.counter("net.requests.rejected");
    timedOutCount = clients.counter("net.requests.timed_out");
    protocolErrors = reg.counter("net.protocol_errors");
    slowDisconnects = reg.counter("net.slow_client_disconnects");
    rejectedCount = reg.counter("serve.rejected");
    timeoutsCount = reg.counter("net.timeouts");

    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd < 0)
        fatal(std::string("net: epoll_create1 failed: ") + strerror(errno));
    if (!epollSet(epollFd, EPOLL_CTL_ADD, wake.readFd, EPOLLIN))
        fatal("net: cannot register wake pipe");
    if (adoptedFd >= 0) {
        addStream(adoptedFd, -1);
        return;
    }
    listenFd = listenTcp(options.bindAddress, options.port, &boundPort);
    if (!epollSet(epollFd, EPOLL_CTL_ADD, listenFd, EPOLLIN))
        fatal("net: cannot register listen socket");
}

StreamLoop::~StreamLoop()
{
    for (auto &entry : streams)
        closeFd(entry.second->fd);
    closeFd(listenFd);
    closeFd(epollFd);
}

void
StreamLoop::requestStop()
{
    stopRequested.store(true, std::memory_order_release);
    wake.notify();
}

bool
StreamLoop::addStream(int fd, int pipe)
{
    if (!setNonBlocking(fd)) {
        closeFd(fd);
        return false;
    }
    if (pipe < 0)
        setTcpNoDelay(fd); // Fails harmlessly on an adopted AF_UNIX pipe.
    if (!epollSet(epollFd, EPOLL_CTL_ADD, fd, EPOLLIN)) {
        closeFd(fd);
        return false;
    }
    auto stream = std::make_unique<Stream>();
    stream->fd = fd;
    stream->gen = nextGen++;
    stream->pipe = pipe;
    stream->framer = serve::LineFramer(options.maxLineBytes);
    stream->registered = EPOLLIN;
    streams[fd] = std::move(stream);
    if (pipe < 0) {
        ++clientStreams;
        connectionsTotal->inc();
        activeConnections->set(static_cast<int64_t>(clientStreams));
    }
    return true;
}

void
StreamLoop::addPipe(int fd, int pipe)
{
    ensure(pipe >= 0, "StreamLoop: pipe index");
    if (!addStream(fd, pipe))
        fatal("net: cannot register pipe " + std::to_string(pipe));
}

StreamLoop::Stream *
StreamLoop::findStream(int fd)
{
    auto it = streams.find(fd);
    return it == streams.end() ? nullptr : it->second.get();
}

bool
StreamLoop::alive(int fd, uint64_t gen) const
{
    auto it = streams.find(fd);
    return it != streams.end() && it->second->gen == gen;
}

void
StreamLoop::closeStream(int fd)
{
    auto it = streams.find(fd);
    if (it == streams.end())
        return;
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    closeFd(fd);
    const bool client = it->second->isClient();
    streams.erase(it);
    if (client) {
        --clientStreams;
        activeConnections->set(static_cast<int64_t>(clientStreams));
    }
    // A descriptor came free: accept again if exhaustion paused it.
    resumeAccept();
}

void
StreamLoop::acceptAll()
{
    for (;;) {
        const int fd = acceptRetry(listenFd);
        if (fd >= 0) {
            fdWarned = false;
            addStream(fd, -1);
            continue;
        }
        if (errno == EMFILE || errno == ENFILE) {
            pauseAccept();
            return;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            warn(std::string("net: accept failed: ") + strerror(errno));
        return;
    }
}

void
StreamLoop::pauseAccept()
{
    // The pending connection keeps the level-triggered listen fd
    // readable: left registered, the loop would spin on accept.
    if (!fdWarned) {
        warn(std::string("net: accept failed: ") + strerror(errno) +
             "; pausing accepts until a stream closes");
        fdWarned = true;
    }
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
    acceptPaused = true;
    acceptResumeAt = Clock::now() + std::chrono::milliseconds(kAcceptRetryMs);
}

void
StreamLoop::resumeAccept()
{
    if (!acceptPaused || silenced)
        return;
    acceptPaused = false;
    if (!epollSet(epollFd, EPOLL_CTL_ADD, listenFd, EPOLLIN))
        fatal("net: cannot register listen socket");
}

void
StreamLoop::lose(Stream &stream)
{
    if (stream.isClient())
        closeStream(stream.fd);
    else
        onPipeLost(stream);
}

void
StreamLoop::handleEvent(int fd, uint32_t mask)
{
    if (fd == wake.readFd) {
        wake.drain();
        return;
    }
    if (fd == listenFd) {
        if (!stopping)
            acceptAll();
        return;
    }
    Stream *stream = findStream(fd);
    if (stream == nullptr)
        return;
    if (mask & (EPOLLERR | EPOLLHUP)) {
        // Peer reset. Answers for its dispatched requests are dropped
        // on arrival (generation mismatch).
        lose(*stream);
        return;
    }
    const uint64_t gen = stream->gen;
    if ((mask & EPOLLIN) && wantsRead(*stream))
        handleReadable(*stream);
    if ((mask & EPOLLOUT) && !silenced && alive(fd, gen))
        flushOutput(*stream);
}

void
StreamLoop::handleReadable(Stream &stream)
{
    const int fd = stream.fd;
    const uint64_t gen = stream.gen;
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = readRetry(fd, buf, sizeof(buf));
        if (n > 0) {
            stream.framer.feed(buf, static_cast<size_t>(n));
            processLines(stream);
            if (!alive(fd, gen) || stream.closeAfterFlush || silenced)
                return;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n == 0 && stream.isClient()) {
            // Level-triggered EOF stays readable forever: drop the read
            // interest or the loop would spin on this socket.
            stream.eof = true;
            updateInterest(stream);
            maybeFinish(stream);
            return;
        }
        // ECONNRESET and friends, or a pipe's EOF: the peer is gone.
        lose(stream);
        return;
    }
}

void
StreamLoop::processLines(Stream &stream)
{
    const int fd = stream.fd;
    const uint64_t gen = stream.gen;
    std::string line;
    for (;;) {
        const serve::LineFramer::Event event = stream.framer.next(line);
        if (event == serve::LineFramer::Event::None)
            return;
        if (event == serve::LineFramer::Event::Oversized) {
            protocolErrors->inc();
            if (!stream.isClient()) {
                // An over-long reply on a pipe is a bug, not a hostile
                // client: drop the line, keep the pipe.
                warn("net: dropped oversized line from pipe " +
                     std::to_string(stream.pipe));
                continue;
            }
            queueLine(stream,
                      errorLine("", "request line exceeds " +
                                        std::to_string(options.maxLineBytes) +
                                        " bytes"));
            stream.closeAfterFlush = true;
            updateInterest(stream);
            return;
        }
        if (stream.isClient())
            handleClientLine(stream, line);
        else
            onPipeLine(stream, line);
        if (!alive(fd, gen) || stream.closeAfterFlush || silenced)
            return;
    }
}

void
StreamLoop::handleClientLine(Stream &client, const std::string &line)
{
    if (serve::isSkippableRequestLine(line))
        return;
    linesTotal->inc();
    if (stopping) {
        refuse(client, "", "server is draining", "draining", false);
        return;
    }
    ClientRequest req;
    try {
        req.json = common::Json::parse(line);
        if (req.json.isObject())
            req.tag = req.json.stringOr("tag", "");
        req.request = serve::requestFromJson(req.json);
    } catch (const std::exception &e) {
        protocolErrors->inc();
        queueLine(client, errorLine(req.tag, e.what()));
        return;
    }
    if (req.request.kind == serve::RequestKind::Ping) {
        // Answered inline, before admission: a health probe must get
        // its pong even when the stream is at its in-flight limit. The
        // router's heartbeats ride on this.
        settle(Outcome::Completed, /*entered=*/false);
        common::Json pong;
        if (!req.tag.empty())
            pong.set("tag", req.tag);
        pong.set("ok", true);
        pong.set("pong", true);
        queueLine(client, pong.dump(0) + "\n");
        return;
    }
    const bool entered = req.request.kind != serve::RequestKind::Stats;
    if (entered)
        submittedCount->inc();
    if (options.maxInFlightPerClient > 0 &&
        client.inFlight >= options.maxInFlightPerClient) {
        refuse(client, req.tag,
               "admission limit: " +
                   std::to_string(options.maxInFlightPerClient) +
                   " requests already in flight on this connection",
               "overload", entered);
        return;
    }
    req.timeoutMs = req.request.timeoutMs > 0
                        ? req.request.timeoutMs
                        : static_cast<uint64_t>(
                              std::max(options.requestTimeoutMs, 0));
    ++client.inFlight;
    dispatch(client, req);
}

void
StreamLoop::refuse(Stream &client, const std::string &tag,
                   const std::string &why, const std::string &code,
                   bool entered)
{
    rejectedCount->inc();
    settle(Outcome::Rejected, entered);
    queueLine(client, errorLine(tag, why, code));
}

void
StreamLoop::settle(Outcome outcome, bool entered)
{
    if (!entered)
        submittedCount->inc();
    switch (outcome) {
      case Outcome::Completed:
        completedCount->inc();
        return;
      case Outcome::Rejected:
        rejectedReqCount->inc();
        return;
      case Outcome::TimedOut:
        timedOutCount->inc();
        return;
    }
}

void
StreamLoop::queueLine(Stream &stream, std::string_view line)
{
    stream.outbuf.append(line);
    queueFlush(stream);
}

void
StreamLoop::answer(ClientRef to, std::string_view line)
{
    auto it = streams.find(to.fd);
    if (it == streams.end() || it->second->gen != to.gen)
        return; // The client hung up before its answer was ready.
    Stream &client = *it->second;
    ensure(client.inFlight > 0, "net: client in-flight underflow");
    --client.inFlight;
    queueLine(client, line);
}

void
StreamLoop::reject(ClientRef to, const std::string &tag,
                   const std::string &why, const std::string &code,
                   bool entered)
{
    rejectedCount->inc();
    settle(Outcome::Rejected, entered);
    answer(to, errorLine(tag, why, code));
}

void
StreamLoop::timeOut(ClientRef to, const std::string &tag, bool entered)
{
    timeoutsCount->inc();
    settle(Outcome::TimedOut, entered);
    answer(to, errorLine(tag, "request deadline exceeded", "timeout"));
}

void
StreamLoop::queueFlush(Stream &stream)
{
    if (stream.flushQueued)
        return;
    stream.flushQueued = true;
    flushPending.push_back(stream.fd);
}

void
StreamLoop::flushQueued()
{
    // Index loop: a flush can lose a pipe, whose policy queues more
    // flushes onto the tail of this very vector.
    for (size_t i = 0; i < flushPending.size(); ++i) {
        Stream *stream = findStream(flushPending[i]);
        if (stream == nullptr)
            continue; // Closed mid-batch.
        stream->flushQueued = false;
        flushOutput(*stream);
    }
    flushPending.clear();
}

void
StreamLoop::flushOutput(Stream &stream)
{
    if (stream.outOffset < stream.outbuf.size())
        beforeFlush(stream);
    while (stream.outOffset < stream.outbuf.size()) {
        const ssize_t n =
            sendRetry(stream.fd, stream.outbuf.data() + stream.outOffset,
                      stream.outbuf.size() - stream.outOffset);
        if (n > 0) {
            stream.outOffset += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break; // Kernel buffer full: wait for EPOLLOUT.
        // EPIPE / ECONNRESET: the peer hung up mid-response.
        lose(stream);
        return;
    }
    if (stream.outOffset == stream.outbuf.size()) {
        stream.outbuf.clear();
        stream.outOffset = 0;
    } else if (stream.outOffset > (1u << 16) &&
               stream.outOffset >= stream.outbuf.size() / 2) {
        stream.outbuf.erase(0, stream.outOffset);
        stream.outOffset = 0;
    }
    if (stream.isClient() &&
        stream.outbuf.size() - stream.outOffset > options.maxOutputBytes) {
        // Slow client: it is not reading replies as fast as it sends
        // requests; unbounded buffering would let it pin our memory.
        // (Pipes are bounded by their policy's backlog limit instead.)
        slowDisconnects->inc();
        warn("net: disconnecting slow client (unread output over " +
             std::to_string(options.maxOutputBytes) + " bytes)");
        closeStream(stream.fd);
        return;
    }
    updateInterest(stream);
    maybeFinish(stream);
}

bool
StreamLoop::wantsRead(const Stream &stream) const
{
    // Pipes stay readable during a drain (their replies are the drain);
    // clients do not (no new work once stopping).
    return !stream.eof && !stream.closeAfterFlush &&
           (!stream.isClient() || !stopping);
}

void
StreamLoop::updateInterest(Stream &stream)
{
    // Level-triggered discipline: subscribe only to what we will act
    // on, or the loop spins. EPOLLOUT is armed only while output waits.
    const bool want_write = stream.outOffset < stream.outbuf.size();
    const uint32_t events =
        (wantsRead(stream) ? static_cast<uint32_t>(EPOLLIN) : 0u) |
        (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    if (events == stream.registered || silenced)
        return;
    if (epollSet(epollFd, EPOLL_CTL_MOD, stream.fd, events))
        stream.registered = events;
}

void
StreamLoop::maybeFinish(Stream &stream)
{
    if (!stream.isClient() || stream.outOffset < stream.outbuf.size())
        return;
    if (stream.closeAfterFlush || (stream.eof && stream.inFlight == 0))
        closeStream(stream.fd);
}

void
StreamLoop::armDeadline(uint64_t id, Clock::time_point at)
{
    deadlines.emplace(at, id);
}

void
StreamLoop::fireDeadlines(Clock::time_point now)
{
    while (!deadlines.empty() && deadlines.begin()->first <= now) {
        const uint64_t id = deadlines.begin()->second;
        deadlines.erase(deadlines.begin());
        onDeadline(id);
    }
}

void
StreamLoop::goSilent()
{
    if (silenced)
        return;
    silenced = true;
    if (listenFd >= 0)
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, wake.readFd, nullptr);
    for (auto &entry : streams) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, entry.first, nullptr);
        entry.second->registered = 0;
    }
}

int
StreamLoop::loopTimeoutMs(Clock::time_point now) const
{
    if (silenced)
        return -1;
    Clock::time_point next = stopping ? stopDeadline : nextTimer();
    if (acceptPaused && acceptResumeAt < next)
        next = acceptResumeAt;
    if (!deadlines.empty() && deadlines.begin()->first < next)
        next = deadlines.begin()->first;
    if (next == Clock::time_point::max())
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
StreamLoop::beginStop()
{
    if (stopping)
        return;
    stopping = true;
    stopDeadline =
        Clock::now() + std::chrono::milliseconds(options.drainTimeoutMs);
    if (listenFd >= 0) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
        closeFd(listenFd);
        listenFd = -1;
        acceptPaused = false;
    }
    // No more client reads: the drain answers what was dispatched.
    for (auto &entry : streams)
        updateInterest(*entry.second);
}

bool
StreamLoop::drained() const
{
    if (!settled())
        return false;
    for (const auto &entry : streams)
        if (entry.second->isClient() &&
            entry.second->outOffset < entry.second->outbuf.size())
            return false;
    return true;
}

void
StreamLoop::runLoop()
{
    constexpr int kMaxEvents = 64;
    struct epoll_event events[kMaxEvents];
    for (;;) {
        const int n = epollWaitRetry(epollFd, events, kMaxEvents,
                                     loopTimeoutMs(Clock::now()));
        if (n < 0)
            fatal(std::string("net: epoll_wait failed: ") + strerror(errno));
        for (int i = 0; i < n && !silenced; ++i)
            handleEvent(events[i].data.fd, events[i].events);
        if (silenced)
            continue; // Neither answers nor deadlines flow.
        const Clock::time_point now = Clock::now();
        poll(now);
        fireDeadlines(now);
        if (acceptPaused && now >= acceptResumeAt)
            resumeAccept();
        // One send() per stream per batch: every line queued above goes
        // out here, before the loop can sleep again.
        flushQueued();
        if (stopRequested.load(std::memory_order_acquire))
            beginStop();
        if (stopping) {
            if (drained() || Clock::now() >= stopDeadline)
                break;
        } else if (listenFd < 0 && streams.empty() && settled()) {
            // Adopted-stream mode: the peer closed and every request it
            // carried settled, a clean exit without a stop signal.
            break;
        }
    }

    // Closing a pipe is its worker's shutdown signal: it sees EOF,
    // drains what it still holds, and exits.
    for (auto &entry : streams)
        closeFd(entry.second->fd);
    streams.clear();
    clientStreams = 0;
    activeConnections->set(0);
    flushPending.clear();
    deadlines.clear();
}

} // namespace neusight::net
