/**
 * @file
 * Prediction-cache read-contention bench: aggregate reader req/s on a
 * warm serve::PredictionCache at 1/4/8/16 threads, plus a mixed arm
 * (one writer refreshing entries under the same load) showing what
 * writers cost readers that share the per-stripe mutexes. Writes a
 * BENCH_cache_contention.json artifact for CI and exits nonzero when
 * the 16-thread reader scaling falls under the hardware-aware gate
 * derived from --min-scaling (a 1-core runner cannot exhibit 6x
 * parallel speedup, so the requirement is capped by the core count).
 *
 *   bench_cache_contention --json BENCH_cache_contention.json \
 *       --min-scaling 6
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/argparse.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "serve/prediction_cache.hpp"

namespace {

using namespace neusight;

/** A recognizable synthetic forecast for key index @p i. */
core::PredictionDetail
detailFor(size_t i)
{
    core::PredictionDetail d;
    d.tileDims = {1 + i % 7, 1 + i % 13};
    d.numTiles = 1 + i;
    d.numWaves = 1 + i / 8;
    d.alpha = 0.5 + 1e-3 * static_cast<double>(i % 100);
    d.beta = 0.1;
    d.utilization = 0.75;
    d.rooflinePerSm = 1e9;
    d.latencyMs = 1e-3 * static_cast<double>(1 + i);
    return d;
}

/**
 * Aggregate lookups/s of @p threads readers hammering the warm cache
 * for @p seconds, each walking the key space from its own offset (so
 * threads do not probe the same stripe in lockstep). With
 * @p with_writer, one extra thread continuously re-inserts (refreshes)
 * existing keys, exercising the writer path concurrently.
 */
double
readerThroughput(serve::PredictionCache &cache,
                 const std::vector<std::string> &keys, int threads,
                 double seconds, bool with_writer,
                 obs::Histogram *lookup_ns = nullptr)
{
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> total{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads) + 1);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            core::PredictionDetail out;
            uint64_t local = 0;
            size_t i = static_cast<size_t>(t) * 7919 % keys.size();
            // Per-lookup latency is sampled in 1024-lookup chunks (one
            // clock read per chunk keeps the timing out of the loop),
            // then recorded as amortized ns/lookup.
            constexpr uint64_t kChunk = 1024;
            auto chunk_start = std::chrono::steady_clock::now();
            while (!stop.load(std::memory_order_relaxed)) {
                if (!cache.lookup(keys[i], out))
                    fatal("cache_contention: unexpected miss");
                i = (i + 1) % keys.size();
                ++local;
                if (lookup_ns != nullptr && local % kChunk == 0) {
                    const auto now = std::chrono::steady_clock::now();
                    lookup_ns->record(
                        std::chrono::duration<double, std::nano>(
                            now - chunk_start)
                            .count() /
                        static_cast<double>(kChunk));
                    chunk_start = now;
                }
            }
            total.fetch_add(local, std::memory_order_relaxed);
        });
    }
    if (with_writer) {
        pool.emplace_back([&] {
            size_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                cache.insert(keys[i], detailFor(i));
                i = (i + 1) % keys.size();
            }
        });
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &th : pool)
        th.join();
    return static_cast<double>(total.load()) / seconds;
}

} // namespace

int
run(int argc, const char *const *argv)
{
    common::ArgParser args(
        "bench_cache_contention",
        "prediction-cache reader req/s at 1/4/8/16 threads");
    args.addInt("entries", 4096, "warm entries in the cache");
    args.addDouble("secs", 0.5, "measured seconds per thread count");
    args.addString("json", "BENCH_cache_contention.json",
                   "JSON report output path");
    args.addDouble("min-scaling", 0.0,
                   "fail (exit 3) when 16-thread/1-thread reader "
                   "throughput falls below min(this, 0.4 x usable "
                   "cores); 0 disables");
    args.addFlag("smoke",
                 "tiny run (1 and 4 threads, short window, no gate) "
                 "for sanitizer jobs");
    if (!args.parse(argc, argv))
        return 0;
    setQuiet(false);
    const bool smoke = args.getFlag("smoke");
    const size_t entries =
        static_cast<size_t>(std::max<int64_t>(1, args.getInt("entries")));
    const double seconds =
        smoke ? 0.05 : std::max(0.01, args.getDouble("secs"));

    // Capacity above the entry count: the pure-reader phases must never
    // evict, or a miss would abort the run.
    serve::PredictionCache cache(2 * entries);
    std::vector<std::string> keys;
    keys.reserve(entries);
    for (size_t i = 0; i < entries; ++i) {
        keys.push_back("bench|kernel" + std::to_string(i));
        cache.insert(keys.back(), detailFor(i));
    }

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const std::vector<int> thread_counts =
        smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 8, 16};

    TextTable table("Prediction-cache reader throughput (" +
                        std::to_string(entries) + " warm entries, " +
                        std::to_string(hw) + " hardware threads)",
                    {"readers", "req/s", "scaling", "req/s +writer",
                     "p50 ns", "p99 ns"});
    common::Json report;
    report.set("entries", static_cast<uint64_t>(entries));
    report.set("hardware_threads", static_cast<uint64_t>(hw));
    report.set("seconds_per_point", seconds);
    std::vector<common::Json> points;

    double base_rps = 0.0;
    double scaling_at_max = 0.0;
    int max_threads = 0;
    for (int threads : thread_counts) {
        obs::Histogram lookup_ns;
        const double rps = readerThroughput(cache, keys, threads,
                                            seconds, false, &lookup_ns);
        const double mixed_rps =
            readerThroughput(cache, keys, threads, seconds, true);
        if (threads == 1)
            base_rps = rps;
        const double scaling = rps / std::max(base_rps, 1e-9);
        if (threads >= max_threads) {
            max_threads = threads;
            scaling_at_max = scaling;
        }
        table.addRow({std::to_string(threads), TextTable::num(rps, 0),
                      TextTable::num(scaling, 2) + "x",
                      TextTable::num(mixed_rps, 0),
                      TextTable::num(lookup_ns.quantile(0.50), 0),
                      TextTable::num(lookup_ns.quantile(0.99), 0)});
        common::Json point;
        point.set("threads", static_cast<uint64_t>(threads));
        point.set("reqs_per_s", rps);
        point.set("scaling_vs_1", scaling);
        point.set("reqs_per_s_with_writer", mixed_rps);
        point.set("lookup_p50_ns", lookup_ns.quantile(0.50));
        point.set("lookup_p99_ns", lookup_ns.quantile(0.99));
        points.push_back(std::move(point));
    }
    table.print();
    report.set("points", common::Json(std::move(points)));

    const serve::CacheStats stats = cache.stats();
    ensure(stats.misses == 0,
           "cache_contention: pure-reader phases must not miss");
    ensure(stats.hits + stats.misses > 0, "no lookups recorded");

    // Hardware-aware gate: perfect scaling is impossible beyond the
    // physical core count, so the requirement never exceeds 40% of the
    // usable cores (16-thread perfect scaling on >=16 cores would be
    // 16x; we ask for 6x of it, and proportionally less on smaller
    // runners — a 1-core container trivially passes with 0.4x).
    const double min_scaling = args.getDouble("min-scaling");
    const double required = std::min(
        min_scaling,
        0.4 * static_cast<double>(std::min<unsigned>(
                  static_cast<unsigned>(max_threads), hw)));
    report.set("min_scaling_requested", min_scaling);
    report.set("min_scaling_effective", required);
    report.set("scaling_at_max_threads", scaling_at_max);
    report.set("gated", !smoke && min_scaling > 0.0);

    const std::string path = args.getString("json");
    std::ofstream out(path);
    if (!out)
        fatal("cannot write JSON report '" + path + "'");
    out << report.dump(2) << "\n";
    std::printf("\nJSON report written to %s\n", path.c_str());

    if (!smoke && min_scaling > 0.0 && scaling_at_max < required) {
        std::fprintf(stderr,
                     "cache_contention: %d-thread reader scaling "
                     "%.2fx is below the required %.2fx (requested "
                     "%.2fx, %u hardware threads)\n",
                     max_threads, scaling_at_max, required, min_scaling,
                     hw);
        return 3;
    }
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
