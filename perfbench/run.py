#!/usr/bin/env python3
"""End-to-end benchmark of the NeuSight forecasting service.

One run of one workload:

    python3 perfbench/run.py --workload serve_hot --seed 7 --trace 0

builds the repository's default Release configuration plus the driver
(perfbench/CMakeLists.txt) into .bench_build/perfbench, runs the
driver, and prints a stamp line (nproc, compiler, build type, source
id, load average, memory-latency probe at start and end) followed, as
the last line, by one JSON object with exactly the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 its per-layer metrics.

Workloads (every one uses the built-in "oracle" backend):
  serve_hot      neusight-serve over loopback TCP, 2 connections x 1
                 outstanding request, 32-request hot repertoire.
  forecast_cold  in-process ForecastEngine, distinct single-GPU
                 requests that overflow the prediction cache.
  plan           in-process HybridSweep / Simulate / Hybrid requests.

Steadiness mode runs two sets of the same code, alternating run by run
(A, B, A, B, ...), each run with its own seed, and reports each
end-to-end metric's median and interquartile range per set against the
bounds of BENCHMARK.json; it exits 0 when every spread and every
B-vs-A median shift (in either direction) is within its bound:

    python3 perfbench/run.py --steadiness --runs 10 \\
        --out perfbench/trajectory/<name>.json

--self-test builds and runs the percentile helper's unit tests.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SERVE = os.path.join(BUILD, "neusight", "neusight-serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def check_sources():
    for rel in ("CMakeLists.txt", "src/api/engine.hpp",
                "tools/neusight_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            die("no NeuSight sources beside the benchmark (missing %s)" % rel)


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(max(1, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, left))
            except subprocess.TimeoutExpired:
                die("build timed out; see %s" % log_path, 1)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.write("".join(tail))
                die("build failed; see %s" % log_path, 1)


def source_id():
    """The commit when the tree is a git checkout, else a content hash
    of everything the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "trajectory")
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def run_driver(workload, seed, seconds, trace):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve-binary", SERVE]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=BUILD)
    except subprocess.TimeoutExpired:
        die("driver timed out", 1)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        die("driver failed with exit code %d" % done.returncode, 1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def metrics_of(spec, raw, trace):
    """The driver's metrics in BENCHMARK.json's order and units.

    BENCHMARK.json is the one list of metric names. A traced run reports
    the layers its workload calls; the others read 0. An untraced run
    must report every end-to-end metric.
    """
    listed = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in listed]
    extra = sorted(set(raw) - set(names))
    missing = [n for n in names if n not in raw]
    if extra or (missing and not trace):
        die("driver metrics differ from BENCHMARK.json: extra %s, missing %s"
            % (extra, missing), 1)
    metrics = {}
    for m in listed:
        got = raw.get(m["name"], {"value": 0.0})
        if got.get("unit", m["unit"]) != m["unit"]:
            die("driver unit %s of %s differs from BENCHMARK.json's %s"
                % (got["unit"], m["name"], m["unit"]), 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def one_run(spec, workload, seed, seconds, trace):
    """Run the driver once; returns (stamp, result)."""
    raw = run_driver(workload, seed, seconds, trace)
    info = raw["info"]
    metrics = metrics_of(spec, raw["metrics"], trace)
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "source": source_id(), "nproc": info["nproc"],
        "compiler": info["compiler"], "build_type": info["build_type"],
        "loadavg_start": info["loadavg_start"],
        "loadavg_end": info["loadavg_end"],
        "memory_latency_ns_start": info["memory_latency_ns_start"],
        "memory_latency_ns_end": info["memory_latency_ns_end"],
        "info": {k: v for k, v in info.items()
                 if not k.startswith(("memory_latency", "loadavg"))},
    }
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    return stamp, result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else 0.0}


def steadiness(spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        workloads = [args.workload]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = {w: {"A": {}, "B": {}} for w in workloads}
    runs = []
    for i in range(args.runs):
        for w in workloads:
            for label in ("A", "B"):
                seed = args.base_seed + 2 * i + (label == "B")
                stamp, result = one_run(spec, w, seed, args.seconds, 0)
                runs.append({"set": label, "stamp": stamp, "result": result})
                if not result["correct"]:
                    print("incorrect run: %s" % json.dumps(stamp),
                          file=sys.stderr)
                for name, m in result["metrics"].items():
                    values[w][label].setdefault(name, []).append(m["value"])
                print("%s %s seed=%d %s" % (w, label, seed, " ".join(
                    "%s=%.6g" % (n, m["value"])
                    for n, m in result["metrics"].items())), file=sys.stderr)
    report = {"source": source_id(), "seconds": args.seconds,
              "runs_per_set": args.runs, "workloads": {}, "runs": runs}
    ok = all(r["result"]["correct"] for r in runs)
    for w in workloads:
        table = {}
        for name, m in bounds.items():
            a = spread(values[w]["A"][name])
            b = spread(values[w]["B"][name])
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            spread_frac = max(a["iqr_frac"], b["iqr_frac"])
            row = {"A": a, "B": b, "bound": m["bound"],
                   "b_worse_than_a": worse,
                   # Both sets run the same code, so they agree only if
                   # every spread is within its bound and B's median is
                   # within the bound of A's, in either direction.
                   "spread_within_bound": spread_frac <= m["bound"],
                   "shift_within_bound": abs(worse) <= m["bound"],
                   # The tuning target: spreads below a third of the bound.
                   "spread_within_third": spread_frac <= m["bound"] / 3}
            ok = (ok and row["spread_within_bound"]
                  and row["shift_within_bound"])
            table[name] = row
            flag = ("" if row["spread_within_third"] else "  above 1/3 bound")
            if not (row["spread_within_bound"] and row["shift_within_bound"]):
                flag = "  OUT OF BOUND"
            print("%-13s %-15s A %.6g [IQR %.1f%%]  B %.6g [IQR %.1f%%]  "
                  "B worse %+.1f%%  bound %.0f%%%s" % (
                      w, name, a["median"], 100 * a["iqr_frac"], b["median"],
                      100 * b["iqr_frac"], 100 * worse, 100 * m["bound"],
                      flag))
        report["workloads"][w] = table
    report["steady"] = ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print(json.dumps({"steady": ok}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--base-seed", type=int, default=1000)
    parser.add_argument("--out")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    check_sources()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload and args.workload not in [
            w["name"] for w in spec["workloads"]]:
        die("unknown workload '%s'" % args.workload)

    if args.self_test:
        build(["perfbench_stats_test"])
        return subprocess.run([os.path.join(BUILD, "perfbench_stats_test")]
                              ).returncode
    build(["perfbench_driver"])
    if args.steadiness:
        return steadiness(spec, args)
    if not args.workload:
        die("--workload is required")
    stamp, result = one_run(spec, args.workload, args.seed, args.seconds,
                            args.trace)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
