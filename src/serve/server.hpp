/**
 * @file
 * In-process concurrent forecast server: a thin concurrency shell —
 * bounded MPMC request queue, worker-thread pool, coalescing of
 * identical in-flight requests (two clients asking for the same
 * forecast share one computation) — over an api::ForecastEngine, which
 * owns the predictor backends, the caches, and request execution. One
 * server answers heterogeneous predictors side by side through the
 * request's backend field. Shutdown drains: every accepted request is
 * answered before the workers exit.
 */

#ifndef NEUSIGHT_SERVE_SERVER_HPP
#define NEUSIGHT_SERVE_SERVER_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/graph_cache.hpp"
#include "serve/request.hpp"

namespace neusight::serve {

/** Construction-time configuration of a ForecastServer. */
struct ServerOptions
{
    /** Worker threads executing forecasts. */
    size_t workers = 4;
    /** Bound on queued (not yet executing) requests; submit() blocks
     *  when full. Coalesced requests never occupy a slot. */
    size_t queueCapacity = 256;
};

/** Point-in-time server counters. */
struct ServerStats
{
    uint64_t submitted = 0;
    uint64_t completed = 0;
    /** Requests answered by piggybacking on identical in-flight work. */
    uint64_t coalesced = 0;
    /** Requests refused because the server was stopping. */
    uint64_t rejected = 0;
    size_t queueDepth = 0;
    size_t workers = 0;
    CacheStats cache;
    /** Counters of the model-graph cache (zero when disabled). */
    CacheStats graphCache;
};

/**
 * Concurrent forecast server over a ForecastEngine. Backends must be
 * safe for concurrent const use (NeuSight and the simulator oracle
 * are, once trained).
 */
class ForecastServer
{
  public:
    /**
     * Serve @p engine: requests execute through engine->forecast(),
     * with per-request backend selection against the engine's
     * registry. Results and stats() carry the counters of the engine's
     * kernel-prediction cache.
     */
    explicit ForecastServer(std::shared_ptr<api::ForecastEngine> engine,
                            ServerOptions options = ServerOptions());

    /** Drains and joins (equivalent to stop()). */
    ~ForecastServer();

    ForecastServer(const ForecastServer &) = delete;
    ForecastServer &operator=(const ForecastServer &) = delete;

    /**
     * Enqueue a request; blocks while the queue is full. Identical
     * in-flight requests (equal fingerprint()) coalesce onto one
     * computation. After stop() the returned future resolves
     * immediately to a rejection result.
     */
    std::future<ForecastResult> submit(ForecastRequest request);

    /**
     * A request's completion callback: invoked exactly once with the
     * result, from a worker thread (never under the server's internal
     * lock) — or inline from trySubmit for immediate rejections. The
     * callback must not block on the server (submit/drain/stop from
     * inside it deadlocks by design).
     */
    using Completion = std::function<void(ForecastResult)>;

    /**
     * Non-blocking submit for event-loop callers (the socket
     * front-end): never waits. Returns false — without invoking
     * @p done — when the queue is full, so the caller can reject at
     * its own edge (that is the backpressure chain: engine queue ->
     * trySubmit -> rejection on the wire). Coalesces exactly like
     * submit(); after stop(), @p done is invoked inline with a
     * rejection result and trySubmit returns true.
     */
    bool trySubmit(ForecastRequest request, Completion done);

    /** Block until every accepted request has been answered. */
    void drain();

    /**
     * Stop accepting, drain the queue, and join the workers. Every
     * request accepted before the call is answered. Idempotent.
     */
    void stop();

    /**
     * Point-in-time counters — a thin view over the engine's metrics
     * registry (the serve.* counters and the adopted cache counters),
     * so this struct can never drift from what --metrics-json reports.
     */
    ServerStats stats() const;

    /** The engine executing this server's requests. */
    const std::shared_ptr<api::ForecastEngine> &forecastEngine() const
    {
        return engine;
    }

    /** The engine's metrics registry (serve.* metrics live there). */
    const std::shared_ptr<obs::MetricsRegistry> &metrics() const
    {
        return engine->metrics();
    }

    /** The engine's model-graph cache, or nullptr when disabled. */
    const std::shared_ptr<ModelGraphCache> &modelGraphCache() const
    {
        return engine->modelGraphCache();
    }

  private:
    struct Pending
    {
        ForecastRequest request;
        /** (completion, tag) per coalesced submitter; front = first. */
        std::vector<std::pair<Completion, std::string>> waiters;
        /** Enqueue instant (queue-wait histogram / e2e latency). */
        std::chrono::steady_clock::time_point enqueued;
    };

    void workerLoop();
    /** Invoke @p done (outside the lock) with a rejection result. */
    static void rejectNow(Completion &done, std::string tag);
    /** Queued (not yet executing) requests across both classes. Lock
     *  held. The queue capacity bounds this sum — priority changes who
     *  drains first, never how many fit. */
    size_t queuedCount() const
    {
        return queueHigh.size() + queueNormal.size();
    }

    std::shared_ptr<api::ForecastEngine> engine;
    ServerOptions options;

    mutable std::mutex mutex;
    std::condition_variable notEmpty;
    std::condition_variable notFull;
    std::condition_variable idle;
    /**
     * Two-level FIFO: workers drain queueHigh before queueNormal
     * (request.priority picks the class at submit; a coalesced request
     * keeps the position of whoever queued the work first). Within a
     * class, strict FIFO — no starvation guarantee for normal work
     * beyond the queue bound itself.
     */
    std::deque<std::shared_ptr<Pending>> queueHigh;
    std::deque<std::shared_ptr<Pending>> queueNormal;
    std::unordered_map<std::string, std::shared_ptr<Pending>> inFlight;
    size_t executing = 0;
    bool stopping = false;
    /** Set once the winning stop() has joined every worker. */
    bool workersJoined = false;

    /// @name Registry-backed counters (serve.* in engine->metrics()):
    /// the same objects a registry snapshot reads, so stats() and
    /// --metrics-json can never disagree. Resolved at construction.
    /// @{
    std::shared_ptr<obs::Counter> submitted;
    std::shared_ptr<obs::Counter> completed;
    std::shared_ptr<obs::Counter> coalescedCount;
    std::shared_ptr<obs::Counter> rejectedCount;
    std::shared_ptr<obs::Gauge> queueDepth;
    std::shared_ptr<obs::Histogram> queueWaitUs;
    std::shared_ptr<obs::Histogram> executeUs;
    std::shared_ptr<obs::Histogram> e2eUs;
    /// @}

    std::vector<std::thread> threads;
};

} // namespace neusight::serve

#endif // NEUSIGHT_SERVE_SERVER_HPP
