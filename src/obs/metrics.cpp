#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/logging.hpp"

namespace neusight::obs {

namespace {

/** Fixed-point scale of the histogram sum/min/max accumulators. */
constexpr double kFixedScale = 1000.0;

uint64_t
toFixed(double value)
{
    if (value <= 0.0)
        return 0;
    return static_cast<uint64_t>(value * kFixedScale);
}

double
fromFixed(uint64_t fixed)
{
    return static_cast<double>(fixed) / kFixedScale;
}

/** fetch_min / fetch_max via CAS (C++17 has no atomic fetch_min). */
void
atomicMin(std::atomic<uint64_t> &target, uint64_t value)
{
    uint64_t current = target.load(std::memory_order_relaxed);
    while (value < current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed))
    {
    }
}

void
atomicMax(std::atomic<uint64_t> &target, uint64_t value)
{
    uint64_t current = target.load(std::memory_order_relaxed);
    while (value > current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed))
    {
    }
}

} // namespace

size_t
Counter::stripeIndex()
{
    static std::atomic<size_t> nextThread{0};
    thread_local const size_t index =
        nextThread.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return index;
}

size_t
Histogram::bucketIndex(double value)
{
    if (!(value > kMinValue)) // Also catches NaN and negatives.
        return 0;
    const double octaves = std::log2(value / kMinValue);
    const double raw = octaves * kBucketsPerOctave;
    if (raw >= static_cast<double>(kNumBuckets - 1))
        return kNumBuckets - 1;
    return static_cast<size_t>(raw);
}

double
Histogram::bucketLowerBound(size_t index)
{
    return kMinValue *
           std::exp2(static_cast<double>(index) / kBucketsPerOctave);
}

double
Histogram::bucketUpperBound(size_t index)
{
    return kMinValue *
           std::exp2(static_cast<double>(index + 1) / kBucketsPerOctave);
}

void
Histogram::record(double value)
{
    buckets[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    observations.fetch_add(1, std::memory_order_relaxed);
    const uint64_t fixed = toFixed(value);
    sumFixed.fetch_add(fixed, std::memory_order_relaxed);
    atomicMin(minFixed, fixed);
    atomicMax(maxFixed, fixed);
}

uint64_t
Histogram::count() const
{
    return observations.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return fromFixed(sumFixed.load(std::memory_order_relaxed));
}

double
Histogram::mean() const
{
    const uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
}

double
Histogram::minValue() const
{
    const uint64_t fixed = minFixed.load(std::memory_order_relaxed);
    return fixed == UINT64_MAX ? 0.0 : fromFixed(fixed);
}

double
Histogram::maxValue() const
{
    return fromFixed(maxFixed.load(std::memory_order_relaxed));
}

double
Histogram::quantile(double q) const
{
    const uint64_t n = count();
    if (n == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Rank of the order statistic we estimate (1-based, ceil(q * n)).
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::ceil(q * static_cast<double>(n))));
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
        cumulative += buckets[i].load(std::memory_order_relaxed);
        if (cumulative >= rank) {
            // Geometric midpoint of the bucket, clamped to what was
            // actually observed so estimates never leave the data
            // range (bucket 0 also holds sub-kMinValue values).
            const double mid = std::sqrt(bucketLowerBound(i) *
                                         bucketUpperBound(i));
            return std::min(maxValue(), std::max(minValue(), mid));
        }
    }
    return maxValue();
}

common::Json
Histogram::toJson() const
{
    common::Json json;
    json.set("count", count());
    json.set("mean", mean());
    json.set("min", minValue());
    json.set("max", maxValue());
    json.set("p50", quantile(0.50));
    json.set("p90", quantile(0.90));
    json.set("p99", quantile(0.99));
    json.set("p999", quantile(0.999));
    common::Json::Array nonempty;
    for (size_t i = 0; i < kNumBuckets; ++i) {
        const uint64_t n = buckets[i].load(std::memory_order_relaxed);
        if (n == 0)
            continue;
        common::Json::Array pair;
        pair.push_back(common::Json(bucketLowerBound(i)));
        pair.push_back(common::Json(n));
        nonempty.push_back(common::Json(std::move(pair)));
    }
    json.set("buckets", common::Json(std::move(nonempty)));
    return json;
}

void
Histogram::reset()
{
    for (auto &bucket : buckets)
        bucket.store(0, std::memory_order_relaxed);
    observations.store(0, std::memory_order_relaxed);
    sumFixed.store(0, std::memory_order_relaxed);
    minFixed.store(UINT64_MAX, std::memory_order_relaxed);
    maxFixed.store(0, std::memory_order_relaxed);
}

std::shared_ptr<Counter>
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    Slot &slot = slots[name];
    if (slot.gauge || slot.histogram || slot.sample)
        fatal("MetricsRegistry: '" + name +
              "' is already registered as a different metric type");
    if (!slot.counter)
        slot.counter = std::make_shared<Counter>();
    return slot.counter;
}

std::shared_ptr<Gauge>
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    Slot &slot = slots[name];
    if (slot.counter || slot.histogram || slot.sample)
        fatal("MetricsRegistry: '" + name +
              "' is already registered as a different metric type");
    if (!slot.gauge)
        slot.gauge = std::make_shared<Gauge>();
    return slot.gauge;
}

std::shared_ptr<Histogram>
MetricsRegistry::histogram(const std::string &name, const std::string &unit)
{
    std::lock_guard<std::mutex> lock(mutex);
    Slot &slot = slots[name];
    if (slot.counter || slot.gauge || slot.sample)
        fatal("MetricsRegistry: '" + name +
              "' is already registered as a different metric type");
    if (!slot.histogram) {
        slot.histogram = std::make_shared<Histogram>();
        slot.unit = unit;
    }
    return slot.histogram;
}

void
MetricsRegistry::adopt(const std::string &name,
                       std::shared_ptr<Counter> metric)
{
    ensure(metric != nullptr, "MetricsRegistry: adopting null counter");
    std::lock_guard<std::mutex> lock(mutex);
    slots[name] = Slot{std::move(metric), nullptr, nullptr, nullptr, ""};
}

void
MetricsRegistry::adopt(const std::string &name, std::shared_ptr<Gauge> metric)
{
    ensure(metric != nullptr, "MetricsRegistry: adopting null gauge");
    std::lock_guard<std::mutex> lock(mutex);
    slots[name] = Slot{nullptr, std::move(metric), nullptr, nullptr, ""};
}

void
MetricsRegistry::adopt(const std::string &name,
                       std::shared_ptr<Histogram> metric,
                       const std::string &unit)
{
    ensure(metric != nullptr, "MetricsRegistry: adopting null histogram");
    std::lock_guard<std::mutex> lock(mutex);
    slots[name] = Slot{nullptr, nullptr, std::move(metric), nullptr, unit};
}

void
MetricsRegistry::probe(const std::string &name,
                       std::function<double()> sample)
{
    ensure(sample != nullptr, "MetricsRegistry: null probe callback");
    std::lock_guard<std::mutex> lock(mutex);
    slots[name] = Slot{nullptr, nullptr, nullptr, std::move(sample), ""};
}

void
MetricsRegistry::remove(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    slots.erase(name);
}

size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return slots.size();
}

common::Json
MetricsRegistry::toJson() const
{
    // Copy the slot table so probe callbacks (which may take their
    // owner's locks) never run under the registry mutex.
    std::map<std::string, Slot> copy;
    {
        std::lock_guard<std::mutex> lock(mutex);
        copy = slots;
    }
    common::Json json{common::Json::Object{}};
    for (const auto &[name, slot] : copy) {
        if (slot.counter) {
            json.set(name, slot.counter->value());
        } else if (slot.gauge) {
            json.set(name, static_cast<int64_t>(slot.gauge->value()));
        } else if (slot.sample) {
            json.set(name, slot.sample());
        } else if (slot.histogram) {
            common::Json h = slot.histogram->toJson();
            if (!slot.unit.empty())
                h.set("unit", slot.unit);
            json.set(name, std::move(h));
        }
    }
    return json;
}

void
MetricsRegistry::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("MetricsRegistry: cannot write '" + path + "'");
    out << toJson().dump(2) << "\n";
}

std::string
MetricsRegistry::toTable() const
{
    std::map<std::string, Slot> copy;
    {
        std::lock_guard<std::mutex> lock(mutex);
        copy = slots;
    }
    // Pad names so the value column lines up.
    size_t width = 0;
    for (const auto &[name, slot] : copy)
        width = std::max(width, name.size());
    std::string out;
    char buf[256];
    for (const auto &[name, slot] : copy) {
        out += name;
        out.append(width - name.size() + 2, ' ');
        if (slot.counter) {
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(
                              slot.counter->value()));
            out += buf;
        } else if (slot.gauge) {
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(slot.gauge->value()));
            out += buf;
        } else if (slot.sample) {
            std::snprintf(buf, sizeof(buf), "%.1f", slot.sample());
            out += buf;
        } else if (slot.histogram) {
            const Histogram &h = *slot.histogram;
            std::snprintf(buf, sizeof(buf),
                          "count=%llu mean=%.1f p50=%.1f p99=%.1f "
                          "p999=%.1f max=%.1f %s",
                          static_cast<unsigned long long>(h.count()),
                          h.mean(), h.quantile(0.5), h.quantile(0.99),
                          h.quantile(0.999), h.maxValue(),
                          slot.unit.c_str());
            out += buf;
        }
        out += '\n';
    }
    return out;
}

} // namespace neusight::obs
