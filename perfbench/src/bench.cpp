#include "bench.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "net/io.hpp"

namespace perfbench {

namespace net = neusight::net;
using neusight::common::Json;

Json
Report::toJson() const
{
    Json out;
    out.set("correct", correct() && ledger.balanced());
    out.set("attempted", ledger.sent);
    out.set("failed", ledger.sent - ledger.ok);
    Json m{Json::Object{}};
    for (const auto &[name, value_unit] : metrics) {
        Json entry;
        entry.set("value", value_unit.first);
        if (!value_unit.second.empty())
            entry.set("unit", value_unit.second);
        m.set(name, std::move(entry));
    }
    out.set("metrics", std::move(m));
    Json details = info;
    Json ledger_json;
    ledger_json.set("sent", ledger.sent);
    ledger_json.set("ok", ledger.ok);
    ledger_json.set("failed", ledger.failed);
    ledger_json.set("unanswered", ledger.unanswered);
    details.set("ledger", std::move(ledger_json));
    Json issues{Json::Array{}};
    for (const std::string &p : problems)
        issues.push(p);
    details.set("problems", std::move(issues));
    details.set("problem_count", static_cast<uint64_t>(problemCount));
    out.set("info", std::move(details));
    return out;
}

void
reportEndToEnd(Report &report, TimedPhase &phase, Samples &setupSeconds)
{
    report.ledger = phase.ledger;
    if (!phase.ledger.balanced())
        report.fail("ledger: sent != ok + failed + unanswered");
    if (phase.ledger.answered() == 0 || phase.latencyMs.empty()) {
        report.fail("no request was answered in the timed phase");
        return;
    }
    const Percentile p50 = phase.latencyMs.percentile(0.50);
    const Percentile p90 = phase.latencyMs.percentile(0.90);
    const Percentile p99 = phase.latencyMs.percentile(0.99);
    const double answered = static_cast<double>(phase.ledger.answered());
    report.metric("setup_s", setupSeconds.median(), "s");
    report.metric("rps", rate(answered, phase.seconds), "req/s");
    report.metric("p50_ms", p50.value, "ms");
    report.metric("p90_ms", p90.value, "ms");
    report.metric("ok_frac",
                  fraction(static_cast<double>(phase.ledger.ok),
                           static_cast<double>(phase.ledger.sent)),
                  "ratio");
    report.metric("rss_mb", phase.rssMb, "MB");
    report.metric("cpu_ms_per_req", 1000.0 * phase.cpuSeconds / answered,
                  "ms");
    // p99 is exact and reported with its tail count, but not bounded: on
    // a shared 4-vCPU host it tracks hypervisor steal (see CHANGES.md).
    report.info.set("samples", static_cast<uint64_t>(phase.latencyMs.size()));
    report.info.set("p99_ms", p99.value);
    report.info.set("p99_samples_beyond", static_cast<uint64_t>(p99.beyond));
    report.info.set("p99_reliable", p99.reliable);
    report.info.set("p999_ms", phase.latencyMs.percentile(0.999).value);
    report.info.set("max_ms", phase.latencyMs.percentile(1.0).value);
    report.info.set("timed_s", phase.seconds);
    report.info.set("setup_starts",
                    static_cast<uint64_t>(setupSeconds.size()));
}

void
reportTrace(Report &report, TimedPhase &phase, Samples &tracedMs,
            const std::map<std::string, double> &layerSumMs,
            const std::map<std::string, double> &layers)
{
    report.ledger = phase.ledger;
    if (!phase.ledger.balanced())
        report.fail("ledger: sent != ok + failed + unanswered");
    // Units and the zeros of layers a workload never calls come from
    // BENCHMARK.json's per_layer list (run.py), the one list of names.
    for (const auto &[name, value] : layers)
        report.metric(name, value);
    if (tracedMs.empty() || phase.latencyMs.empty()) {
        report.fail("a traced run needs traced and untraced requests");
        return;
    }
    const double traced_p50 = tracedMs.median();
    const double untraced_p50 = phase.latencyMs.median();
    double layer_sum = 0.0;
    Json terms{Json::Object{}};
    for (const auto &[name, ms] : layerSumMs) {
        layer_sum += ms;
        terms.set(name, ms);
    }
    const double reconcile = layer_sum / traced_p50;
    report.metric("trace.p50_ms", traced_p50, "ms");
    report.metric("trace.untraced_p50_ms", untraced_p50, "ms");
    report.metric("trace.untraced_p99_ms",
                  phase.latencyMs.percentile(0.99).value, "ms");
    report.metric("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0,
                  "ratio");
    report.metric("trace.layer_sum_ms", layer_sum, "ms");
    report.metric("trace.reconcile_frac", reconcile, "ratio");
    report.info.set("traced_samples", static_cast<uint64_t>(tracedMs.size()));
    report.info.set("untraced_samples",
                    static_cast<uint64_t>(phase.latencyMs.size()));
    report.info.set("layer_sum_terms_ms", std::move(terms));
    report.info.set("reconcile_tolerance", kReconcileTolerance);
    if (std::fabs(reconcile - 1.0) > kReconcileTolerance)
        report.fail("blocking-path layer sum " + std::to_string(layer_sum) +
                    " ms does not reconcile with traced p50 " +
                    std::to_string(traced_p50) + " ms");
}

bool
sameAnswer(Report &report, const neusight::api::ForecastResult &got,
           const neusight::api::ForecastResult &want, const std::string &what)
{
    const bool same =
        got.ok == want.ok &&
        std::memcmp(&got.latencyMs, &want.latencyMs, sizeof(double)) == 0 &&
        got.strategy == want.strategy && got.oom == want.oom;
    if (!same) {
        std::ostringstream why;
        why.precision(17);
        why << what << ": answer (ok=" << got.ok << " latency_ms="
            << got.latencyMs << " strategy='" << got.strategy
            << "' oom=" << got.oom << ") != reference (ok=" << want.ok
            << " latency_ms=" << want.latencyMs << " strategy='"
            << want.strategy << "' oom=" << want.oom << ")";
        if (!got.error.empty())
            why << " error: " << got.error;
        report.fail(why.str());
    }
    return same;
}

neusight::api::EngineConfig
engineConfig()
{
    // The gpusim device oracle behind the default 65,536-entry
    // kernel-prediction cache and model-graph cache, as the server's
    // --backend oracle runs it. Strategy sweeps run on one thread: a
    // parallel sweep waits at its join for whichever vCPU a shared host
    // stalls, which spread plan's p90 by a third across ten runs, while
    // a serial sweep moves only with CPU speed.
    neusight::dist::SweepOptions sweep;
    sweep.threads = 1;
    return neusight::api::EngineConfig().backend("oracle").sweepOptions(sweep);
}

double
timeEngineStart()
{
    const double t = nowSeconds();
    neusight::api::ForecastEngine engine(engineConfig());
    engine.backend();
    // Taken before the engine's destructor runs.
    return nowSeconds() - t;
}

double
coldEngineStart()
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("engine start: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    char self[] = "/proc/self/exe";
    char flag[64];
    std::snprintf(flag, sizeof flag, "%s", kEngineStartFlag);
    char *argv[] = {self, flag, nullptr};
    pid_t pid = -1;
    const int spawned =
        posix_spawn(&pid, self, &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    char chunk[128];
    ssize_t n = 0;
    while (spawned == 0 && (n = net::readRetry(fds[0], chunk, sizeof chunk)) > 0)
        text.append(chunk, static_cast<size_t>(n));
    close(fds[0]);
    int status = 0;
    while (spawned == 0 && waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        text.empty())
        throw std::runtime_error("engine start: child failed");
    return std::stod(text);
}

ProcUsage
procUsage(int pid)
{
    ProcUsage usage;
    const std::string dir =
        pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
    if (pid == 0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        usage.cpuSeconds =
            static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
    } else {
        std::ifstream stat(dir + "/stat");
        std::string text((std::istreambuf_iterator<char>(stat)),
                         std::istreambuf_iterator<char>());
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields overall.
        const size_t close = text.rfind(')');
        if (close != std::string::npos) {
            std::istringstream rest(text.substr(close + 2));
            std::string field;
            double ticks = 0.0;
            for (int i = 3; i <= 15 && rest >> field; ++i)
                if (i >= 14)
                    ticks += std::stod(field);
            usage.cpuSeconds =
                ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
        }
    }
    std::ifstream status(dir + "/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            usage.peakRssMb = std::stod(line.substr(6)) / 1024.0;
    return usage;
}

namespace {

double
pointerChaseNs()
{
    // Sattolo's algorithm: one random cycle through every slot, so each
    // load depends on the previous one and misses the caches.
    constexpr size_t kSlots = (32u << 20) / sizeof(size_t);
    constexpr size_t kSteps = 1u << 20;
    std::vector<size_t> next(kSlots);
    for (size_t i = 0; i < kSlots; ++i)
        next[i] = i;
    neusight::Rng rng(12345);
    for (size_t i = kSlots - 1; i > 0; --i)
        std::swap(next[i], next[static_cast<size_t>(
                               rng.uniformInt(0, static_cast<int64_t>(i) - 1))]);
    size_t at = 0;
    const double start = nowSeconds();
    for (size_t i = 0; i < kSteps; ++i) {
        at = next[at];
        // Keep every load inside the timed interval.
        asm volatile("" : "+r"(at) : : "memory");
    }
    const double elapsed = nowSeconds() - start;
    return 1e9 * elapsed / static_cast<double>(kSteps);
}

} // namespace

double
memoryLatencyNs()
{
    // The chase runs in a child process: its 32 MiB buffer would
    // otherwise set this process's peak RSS, which rss_mb reports.
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("memory probe: pipe failed");
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("memory probe: fork failed");
    if (pid == 0) {
        close(fds[0]);
        const double ns = pointerChaseNs();
        const bool sent = write(fds[1], &ns, sizeof ns) == sizeof ns;
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double ns = 0.0;
    const bool got = net::readRetry(fds[0], &ns, sizeof ns) == sizeof ns;
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("memory probe: child failed");
    return ns;
}

double
loadAverage()
{
    double load = 0.0;
    std::ifstream in("/proc/loadavg");
    in >> load;
    return load;
}

CpuTicks
cpuTicks()
{
    // First line: "cpu user nice system idle iowait irq softirq steal ...".
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    CpuTicks ticks;
    double value = 0.0;
    for (int field = 0; field < 8 && in >> value; ++field) {
        ticks.total += value;
        if (field == 7)
            ticks.steal = value;
    }
    return ticks;
}

} // namespace perfbench
