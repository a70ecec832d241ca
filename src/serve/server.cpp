#include "serve/server.hpp"

#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace neusight::serve {

ForecastServer::ForecastServer(std::shared_ptr<api::ForecastEngine> engine_,
                               ServerOptions options_)
    : engine(std::move(engine_)), options(std::move(options_))
{
    ensure(engine != nullptr, "ForecastServer: null engine");
    ensure(options.workers > 0, "ForecastServer: need at least one worker");
    ensure(options.queueCapacity > 0,
           "ForecastServer: queue capacity must be positive");
    // Resolve the serve.* metrics once; the hot path only touches the
    // kept pointers (registry lookups lock).
    obs::MetricsRegistry &reg = *engine->metrics();
    submitted = reg.counter("serve.submitted");
    completed = reg.counter("serve.completed");
    coalescedCount = reg.counter("serve.coalesced");
    rejectedCount = reg.counter("serve.rejected");
    queueDepth = reg.gauge("serve.queue_depth");
    queueWaitUs = reg.histogram("serve.queue_wait_us", "us");
    executeUs = reg.histogram("serve.execute_us", "us");
    e2eUs = reg.histogram("serve.e2e_us", "us");
    threads.reserve(options.workers);
    for (size_t i = 0; i < options.workers; ++i)
        threads.emplace_back([this] { workerLoop(); });
}

ForecastServer::~ForecastServer()
{
    stop();
}

void
ForecastServer::rejectNow(Completion &done, std::string tag)
{
    ForecastResult rejected;
    rejected.tag = std::move(tag);
    rejected.ok = false;
    rejected.error = "server is shutting down";
    done(std::move(rejected));
}

std::future<ForecastResult>
ForecastServer::submit(ForecastRequest request)
{
    // Normalize "use the default backend" to its name before
    // fingerprinting, so a request naming the default explicitly
    // coalesces with an identical request that omitted it.
    if (request.backend.empty())
        request.backend = engine->defaultBackendName();
    // The promise rides inside a Completion (waiters hold callbacks,
    // not promises, so the future path and the trySubmit path share
    // every line of the worker's fulfilment code). shared_ptr because
    // std::function requires copyable captures.
    auto promise = std::make_shared<std::promise<ForecastResult>>();
    std::future<ForecastResult> future = promise->get_future();
    Completion done = [promise](ForecastResult result) {
        promise->set_value(std::move(result));
    };
    const std::string key = request.fingerprint();

    std::unique_lock<std::mutex> lock(mutex);
    submitted->inc();
    if (stopping) {
        // Reject before the piggyback lookup: a submit that raced
        // stop() must not coalesce onto still-draining work — the
        // documented contract is that every post-stop() submit resolves
        // immediately to a rejection, deterministically.
        rejectedCount->inc();
        lock.unlock();
        rejectNow(done, std::move(request.tag));
        return future;
    }
    auto it = inFlight.find(key);
    if (it != inFlight.end()) {
        // Identical request already queued or executing: piggyback.
        coalescedCount->inc();
        it->second->waiters.emplace_back(std::move(done),
                                         std::move(request.tag));
        return future;
    }
    notFull.wait(lock, [this] {
        return queuedCount() < options.queueCapacity || stopping;
    });
    // The wait released the mutex: an identical request may have been
    // published meanwhile — re-check, or two Pending entries for one
    // fingerprint would race on the inFlight mapping.
    it = inFlight.find(key);
    if (it != inFlight.end()) {
        coalescedCount->inc();
        it->second->waiters.emplace_back(std::move(done),
                                         std::move(request.tag));
        return future;
    }
    if (stopping) {
        rejectedCount->inc();
        lock.unlock();
        rejectNow(done, std::move(request.tag));
        return future;
    }
    auto pending = std::make_shared<Pending>();
    std::string tag = request.tag;
    const RequestPriority priority = request.priority;
    pending->request = std::move(request);
    pending->waiters.emplace_back(std::move(done), std::move(tag));
    pending->enqueued = std::chrono::steady_clock::now();
    inFlight.emplace(key, pending);
    (priority == RequestPriority::High ? queueHigh : queueNormal)
        .push_back(std::move(pending));
    queueDepth->set(static_cast<int64_t>(queuedCount()));
    lock.unlock();
    notEmpty.notify_one();
    return future;
}

bool
ForecastServer::trySubmit(ForecastRequest request, Completion done)
{
    if (request.backend.empty())
        request.backend = engine->defaultBackendName();
    const std::string key = request.fingerprint();

    std::unique_lock<std::mutex> lock(mutex);
    if (stopping) {
        submitted->inc();
        rejectedCount->inc();
        lock.unlock();
        rejectNow(done, std::move(request.tag));
        return true;
    }
    auto it = inFlight.find(key);
    if (it != inFlight.end()) {
        // Piggybacking never occupies a queue slot, so coalesced
        // requests are accepted even when the queue is full — they add
        // no work, only a waiter.
        submitted->inc();
        coalescedCount->inc();
        it->second->waiters.emplace_back(std::move(done),
                                         std::move(request.tag));
        return true;
    }
    if (queuedCount() >= options.queueCapacity)
        return false; // Caller rejects (and counts) at its own edge.
    submitted->inc();
    auto pending = std::make_shared<Pending>();
    std::string tag = request.tag;
    const RequestPriority priority = request.priority;
    pending->request = std::move(request);
    pending->waiters.emplace_back(std::move(done), std::move(tag));
    pending->enqueued = std::chrono::steady_clock::now();
    inFlight.emplace(key, pending);
    (priority == RequestPriority::High ? queueHigh : queueNormal)
        .push_back(std::move(pending));
    queueDepth->set(static_cast<int64_t>(queuedCount()));
    lock.unlock();
    notEmpty.notify_one();
    return true;
}

void
ForecastServer::workerLoop()
{
    for (;;) {
        std::unique_lock<std::mutex> lock(mutex);
        notEmpty.wait(lock,
                      [this] { return queuedCount() > 0 || stopping; });
        if (queuedCount() == 0) {
            if (stopping)
                return;
            continue;
        }
        // High-priority work drains first; FIFO within each class.
        std::deque<std::shared_ptr<Pending>> &source =
            queueHigh.empty() ? queueNormal : queueHigh;
        std::shared_ptr<Pending> pending = std::move(source.front());
        source.pop_front();
        queueDepth->set(static_cast<int64_t>(queuedCount()));
        ++executing;
        lock.unlock();
        notFull.notify_one();

        obs::Tracer &tracer = obs::Tracer::global();
        const auto start = std::chrono::steady_clock::now();
        const double wait_us =
            std::chrono::duration<double, std::micro>(
                start - pending->enqueued)
                .count();
        queueWaitUs->record(wait_us);
        if (tracer.enabled()) {
            // The wait is not a C++ scope (it straddles submit() and
            // this worker), so it is recorded explicitly, ending at the
            // dequeue instant.
            const double now_us = tracer.nowUs();
            tracer.add("serve.queue_wait", "serve", now_us - wait_us,
                       wait_us, 0);
        }
        ForecastResult result;
        {
            obs::TraceSpan execute("serve.execute", "serve", tracer);
            result = engine->forecast(pending->request);
        }
        const double micros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        executeUs->record(micros);
        result.serviceMicros = micros;

        obs::TraceSpan respond("serve.respond", "serve", tracer);
        lock.lock();
        // Unpublish first: submits from here on start a fresh
        // computation, while everyone who piggybacked meanwhile is in
        // waiters and gets this result.
        inFlight.erase(pending->request.fingerprint());
        auto waiters = std::move(pending->waiters);
        completed->inc(waiters.size());
        e2eUs->record(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() -
                          pending->enqueued)
                          .count());
        lock.unlock();
        // Completions run outside the lock (they are arbitrary caller
        // code — the socket front-end's, for one) but BEFORE executing
        // is decremented, so drain()'s "every accepted request
        // answered" contract stays exact: its predicate cannot come
        // true while any completion is still pending.
        for (size_t i = 0; i < waiters.size(); ++i) {
            ForecastResult copy = result;
            copy.tag = std::move(waiters[i].second);
            copy.coalesced = i > 0;
            waiters[i].first(std::move(copy));
        }
        lock.lock();
        --executing;
        const bool drained = queuedCount() == 0 && executing == 0;
        lock.unlock();
        if (drained)
            idle.notify_all();
    }
}

void
ForecastServer::drain()
{
    std::unique_lock<std::mutex> lock(mutex);
    idle.wait(lock,
              [this] { return queuedCount() == 0 && executing == 0; });
}

void
ForecastServer::stop()
{
    // Claim the thread handles under the lock so concurrent stop()
    // callers never join the same std::thread twice; whoever loses the
    // claim blocks until the winner has joined every worker.
    std::vector<std::thread> claimed;
    {
        std::unique_lock<std::mutex> lock(mutex);
        stopping = true;
        claimed.swap(threads);
        if (claimed.empty()) {
            idle.wait(lock, [this] { return workersJoined; });
            return;
        }
    }
    // Workers keep popping until the queue is empty (drain-on-shutdown);
    // blocked submitters wake and reject.
    notEmpty.notify_all();
    notFull.notify_all();
    for (std::thread &t : claimed)
        t.join();
    {
        std::lock_guard<std::mutex> lock(mutex);
        workersJoined = true;
    }
    idle.notify_all();
}

ServerStats
ForecastServer::stats() const
{
    ServerStats s;
    s.submitted = submitted->value();
    s.completed = completed->value();
    s.coalesced = coalescedCount->value();
    s.rejected = rejectedCount->value();
    s.workers = options.workers;
    {
        std::lock_guard<std::mutex> lock(mutex);
        s.queueDepth = queuedCount();
    }
    s.cache = engine->cacheStats();
    if (engine->modelGraphCache())
        s.graphCache = engine->modelGraphCache()->stats();
    return s;
}

} // namespace neusight::serve
