/**
 * @file
 * Shared vocabulary of the benchmark driver: run options, the request
 * ledger, the end-to-end metric block every workload reports, answer
 * checking against an in-process reference, and the host probes
 * (process CPU/RSS, memory latency, load average).
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "common/json.hpp"
#include "stats.hpp"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Path of the neusight-serve binary (serve_hot only). */
    std::string serveBinary;
};

/** Seconds on the steady clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * True when a request issued @p elapsed seconds into the timed phase of
 * a traced run falls in a traced block: traced runs alternate 0.5 s
 * blocks of untraced and traced requests, so host drift hits both alike
 * and the untraced blocks give the tracing overhead.
 */
inline bool
inTracedBlock(const Options &options, double elapsed)
{
    return options.trace && static_cast<long>(elapsed / 0.5) % 2 == 1;
}

/** Every request the timed phase sent, by outcome. */
struct Ledger
{
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t unanswered = 0;

    uint64_t answered() const { return ok + failed; }
    bool balanced() const { return sent == ok + failed + unanswered; }
};

/** What one run measured and whether its answers were right. */
class Report
{
  public:
    /** Record a metric; per-layer metrics leave @p unit empty and take
     *  theirs from BENCHMARK.json. */
    void metric(const std::string &name, double value,
                const std::string &unit = "")
    {
        metrics.emplace_back(name, std::make_pair(value, unit));
    }

    /** Record a correctness failure (the run reports correct=false). */
    void fail(const std::string &why)
    {
        if (problems.size() < 20)
            problems.push_back(why);
        ++problemCount;
    }

    bool correct() const { return problemCount == 0; }

    /** Extra run facts printed beside the metrics (sample counts, the
     *  reconciliation, the ledger). */
    neusight::common::Json info{neusight::common::Json::Object{}};
    Ledger ledger;

    /** The one-line JSON result. */
    neusight::common::Json toJson() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> problems;
    size_t problemCount = 0;
};

/** Latencies and resource use of one timed phase. */
struct TimedPhase
{
    Samples latencyMs;
    Ledger ledger;
    double seconds = 0.0;
    double cpuSeconds = 0.0;
    double rssMb = 0.0;
};

/**
 * Report the end-to-end block: setup_s (median of @p setupSeconds),
 * rps, exact p50/p90, ok_frac, rss_mb and cpu_ms_per_req; the sample
 * count and the exact p99 with its tail flag go to info. Fails the run when the ledger
 * does not balance.
 */
void reportEndToEnd(Report &report, TimedPhase &phase,
                    Samples &setupSeconds);

/**
 * Report a traced run: the per-layer metrics the workload measured
 * (@p layers; run.py reads the layers it never calls as 0), the traced
 * blocks' p50 beside the untraced blocks' (phase) as the tracing
 * overhead, and the reconciliation of the blocking path with the traced
 * p50: @p layerSumMs names each independently measured layer time on
 * the path, and their sum must be within kReconcileTolerance of it.
 */
void reportTrace(Report &report, TimedPhase &phase, Samples &tracedMs,
                 const std::map<std::string, double> &layerSumMs,
                 const std::map<std::string, double> &layers);

/** Allowed |layer sum / traced p50 - 1| of a traced run. */
inline constexpr double kReconcileTolerance = 0.25;

/**
 * Compare an answer with its reference bit for bit on latency_ms,
 * strategy and oom; record a failure naming @p what otherwise.
 */
bool sameAnswer(Report &report, const neusight::api::ForecastResult &got,
                const neusight::api::ForecastResult &want,
                const std::string &what);

/** The engine configuration every workload's engines share. */
neusight::api::EngineConfig engineConfig();

/** Seconds to construct an engine and wire its backend. */
double timeEngineStart();

/**
 * timeEngineStart in a fresh process (this binary run with
 * kEngineStartFlag), so each start is a program's first: the same on
 * every call, whatever this process's heap holds.
 */
double coldEngineStart();

/** The flag that makes the driver print timeEngineStart() and exit. */
inline constexpr const char *kEngineStartFlag = "--engine-start";

/// @name Host and process probes.
/// @{
/** CPU seconds (user + system) and peak RSS of a process. */
struct ProcUsage
{
    double cpuSeconds = 0.0;
    double peakRssMb = 0.0;
};
/** Usage of process @p pid (0 = this process) from /proc. */
ProcUsage procUsage(int pid = 0);
/**
 * Nanoseconds per dependent load of a fixed pointer chase through a
 * 32 MiB buffer, run in a forked child so this process's peak RSS never
 * sees the buffer: a memory-latency probe recorded at the start and end
 * of each run so drift on a shared host can be seen. It is never used
 * to normalise a metric.
 */
double memoryLatencyNs();
/** The 1-minute load average. */
double loadAverage();
/** Host-wide CPU ticks from /proc/stat: all of them, and stolen. */
struct CpuTicks
{
    double total = 0.0;
    double steal = 0.0;
};
CpuTicks cpuTicks();
/// @}

/// @name Workloads.
/// @{
Report runServeHot(const Options &options);
Report runForecastCold(const Options &options);
Report runPlan(const Options &options);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
