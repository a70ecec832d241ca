/**
 * @file
 * perfbench_driver: one run of one benchmark workload.
 *
 *   perfbench_driver --workload serve_hot|forecast_cold|plan --seed N
 *                    --seconds S --trace 0|1 --serve-binary PATH
 *
 * Prints one JSON line: correct, attempted, failed, metrics (the
 * end-to-end block, or the per-layer block with --trace 1) and info
 * (sample counts, the request ledger, host stamps). perfbench/run.py
 * builds the driver and wraps it; see there for the benchmark contract.
 *
 *   perfbench_driver --engine-start
 *
 * prints the seconds this fresh process took to construct an engine and
 * wire its backend: the in-process workloads' setup_s samples.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "serve_hot|forecast_cold|plan --seed N --seconds S "
                 "--trace 0|1 --serve-binary PATH\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--serve-binary")
                o.serveBinary = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == kEngineStartFlag) {
        std::printf("%.17g\n", timeEngineStart());
        return 0;
    }
    const Options options = parse(argc, argv);
    const double load_start = loadAverage();
    const CpuTicks ticks_start = cpuTicks();
    Report report;
    try {
        if (options.workload == "serve_hot") {
            if (options.serveBinary.empty())
                usage("serve_hot needs --serve-binary");
            report = runServeHot(options);
        } else if (options.workload == "forecast_cold") {
            report = runForecastCold(options);
        } else if (options.workload == "plan") {
            report = runPlan(options);
        } else {
            usage(("unknown workload '" + options.workload + "'").c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    report.info.set("workload", options.workload);
    report.info.set("seed", options.seed);
    report.info.set("trace", options.trace);
    report.info.set("nproc",
                    static_cast<uint64_t>(std::thread::hardware_concurrency()));
    report.info.set("compiler", std::string(__VERSION__));
    report.info.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
    report.info.set("loadavg_start", load_start);
    report.info.set("loadavg_end", loadAverage());
    const CpuTicks ticks_end = cpuTicks();
    report.info.set("host_steal_frac",
                    fraction(ticks_end.steal - ticks_start.steal,
                             ticks_end.total - ticks_start.total));
    std::printf("%s\n", report.toJson().dump(0).c_str());
    return 0;
}
