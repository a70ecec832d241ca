/**
 * @file
 * Metrics substrate of the observability layer: named counters, gauges,
 * and log-bucketed latency histograms behind a lock-free atomic hot
 * path, collected in a MetricsRegistry that snapshots to JSON (the
 * tools' --metrics-json flag and the wire protocol's "stats" op) and to
 * a one-line-per-metric human table (--stats-interval reporting).
 *
 * The hot path follows the striped-atomic discipline of the prediction
 * cache: counters spread increments over cache-line-separated stripes
 * indexed by thread (readers sum on snapshot), and histogram records
 * are a single relaxed fetch_add on the value's bucket — no recording
 * operation ever takes a lock. Only name resolution (registry lookup /
 * creation) serializes, so callers on hot paths resolve a metric once
 * and keep the shared_ptr.
 *
 * Metric objects are shared_ptr-owned and may predate the registry:
 * subsystems that already keep their own atomic counters (the
 * prediction cache, the server) adopt those exact objects into the
 * registry, so a registry snapshot and the subsystem's own stats view
 * read the same atomics and can never drift apart.
 */

#ifndef NEUSIGHT_OBS_METRICS_HPP
#define NEUSIGHT_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.hpp"

namespace neusight::obs {

/**
 * Monotonic counter. Increments land on one of kStripes cache-line-
 * separated atomics chosen by the calling thread, so concurrent
 * writers never contend on one line; value() sums the stripes (exact —
 * each increment lands in exactly one stripe).
 */
class Counter
{
  public:
    void inc(uint64_t n = 1)
    {
        cells[stripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        uint64_t total = 0;
        for (const Cell &cell : cells)
            total += cell.v.load(std::memory_order_relaxed);
        return total;
    }

  private:
    static constexpr size_t kStripes = 8;

    struct alignas(64) Cell
    {
        std::atomic<uint64_t> v{0};
    };

    /** Stable per-thread stripe choice (threads spread round-robin). */
    static size_t stripeIndex();

    std::array<Cell, kStripes> cells;
};

/** Last-write-wins instantaneous value (queue depth, pool size). */
class Gauge
{
  public:
    void set(int64_t value) { v.store(value, std::memory_order_relaxed); }
    void add(int64_t delta) { v.fetch_add(delta, std::memory_order_relaxed); }
    int64_t value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v{0};
};

/**
 * Log-bucketed latency histogram. Buckets grow geometrically by
 * 2^(1/kBucketsPerOctave) (~19% per bucket at 4/octave) from kMinValue,
 * so one fixed array spans nanosecond costs to quarter-hour requests
 * and any quantile estimate is within one bucket width of the true
 * order statistic. record() is one relaxed fetch_add on the bucket
 * plus fixed-point updates of sum/min/max — lock-free and wait-free on
 * the bucket itself.
 *
 * Values are unit-agnostic (the registry carries a display unit);
 * engine/server histograms record microseconds, the cache-contention
 * bench records nanoseconds.
 */
class Histogram
{
  public:
    /** Lower bound of bucket 0; values below it clamp into bucket 0. */
    static constexpr double kMinValue = 0.1;
    /** Buckets per doubling of the value. */
    static constexpr int kBucketsPerOctave = 4;
    /** Bucket count: covers [kMinValue, kMinValue * 2^37) ~ 1.3e10. */
    static constexpr size_t kNumBuckets =
        static_cast<size_t>(37 * kBucketsPerOctave);

    /** Bucket receiving @p value (clamped to the covered range). */
    static size_t bucketIndex(double value);

    /** Inclusive lower edge of bucket @p index. */
    static double bucketLowerBound(size_t index);

    /** Exclusive upper edge of bucket @p index. */
    static double bucketUpperBound(size_t index);

    /** Record one observation. Thread-safe, lock-free. */
    void record(double value);

    /** Observations recorded so far. */
    uint64_t count() const;

    /** Sum of recorded values (fixed-point, ~1e-3 resolution). */
    double sum() const;

    /** Mean of recorded values (0 when empty). */
    double mean() const;

    /** Smallest / largest recorded value (0 when empty). */
    double minValue() const;
    double maxValue() const;

    /**
     * Estimated @p q quantile (q in [0, 1]): the geometric midpoint of
     * the bucket holding the rank-ceil(q * count) observation, clamped
     * to the observed [min, max]. Within one bucket width (a factor of
     * 2^(1/kBucketsPerOctave)) of the exact order statistic.
     */
    double quantile(double q) const;

    /**
     * Summary object: count, mean, min, max, p50/p90/p99/p999, and the
     * non-empty buckets as [lower_bound, count] pairs.
     */
    common::Json toJson() const;

    /** Drop every recorded observation (tests and benches). */
    void reset();

  private:
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> observations{0};
    /** Fixed-point (value * 1000) accumulators; ~584 years of micros. */
    std::atomic<uint64_t> sumFixed{0};
    std::atomic<uint64_t> minFixed{UINT64_MAX};
    std::atomic<uint64_t> maxFixed{0};
};

/**
 * Named metric directory. counter()/gauge()/histogram() create on
 * first use and return the shared instance afterwards; adopt()
 * registers a metric object that already lives elsewhere (the
 * prediction cache's own counters), making the registry snapshot and
 * the owner's stats read the same atomics; probe() registers a
 * callback sampled at snapshot time (cache sizes). All methods are
 * thread-safe; resolution takes a mutex, so hot paths resolve once and
 * keep the pointer.
 */
class MetricsRegistry
{
  public:
    /** The named counter, created on first use. fatal() if @p name is
     *  already a different metric type. */
    std::shared_ptr<Counter> counter(const std::string &name);

    /** The named gauge, created on first use. */
    std::shared_ptr<Gauge> gauge(const std::string &name);

    /** The named histogram, created on first use. @p unit is display
     *  metadata ("us", "ns"); the first registration wins. */
    std::shared_ptr<Histogram> histogram(const std::string &name,
                                         const std::string &unit = "us");

    /// @name Adopt externally-owned metric objects under a name
    /// (replaces any previous metric of that name).
    /// @{
    void adopt(const std::string &name, std::shared_ptr<Counter> metric);
    void adopt(const std::string &name, std::shared_ptr<Gauge> metric);
    void adopt(const std::string &name, std::shared_ptr<Histogram> metric,
               const std::string &unit = "us");
    /// @}

    /**
     * Register a snapshot-time callback: @p sample runs inside
     * toJson()/toTable() and its value is reported as a gauge. The
     * callback must own (capture) whatever it reads.
     */
    void probe(const std::string &name, std::function<double()> sample);

    /** Unregister @p name (no-op when absent). */
    void remove(const std::string &name);

    /** Number of registered metrics. */
    size_t size() const;

    /**
     * Point-in-time snapshot: one member per metric, sorted by name.
     * Counters and gauges map to numbers, histograms to their summary
     * objects (count/mean/min/max/p50/p90/p99/p999/unit/buckets).
     */
    common::Json toJson() const;

    /** toJson() written to @p path (indent 2); fatal() on I/O error. */
    void writeJson(const std::string &path) const;

    /**
     * One line per metric, name-sorted, for periodic stderr reporting:
     *   engine.request_us.inference.neusight  count=192 mean=812.4
     *   p50=790.1 p99=1201.9 max=1544.2 us
     */
    std::string toTable() const;

  private:
    struct Slot
    {
        std::shared_ptr<Counter> counter;
        std::shared_ptr<Gauge> gauge;
        std::shared_ptr<Histogram> histogram;
        std::function<double()> sample;
        std::string unit;
    };

    mutable std::mutex mutex;
    /** Ordered, so snapshots list metrics deterministically. */
    std::map<std::string, Slot> slots;
};

} // namespace neusight::obs

#endif // NEUSIGHT_OBS_METRICS_HPP
