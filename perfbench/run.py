#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

On first use it builds perfbench_driver from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build/). It then runs the workload in a
few fresh driver processes whose seeds derive from --seed, and prints one
JSON object as the last line of stdout: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1. Metric names and units
come from BENCHMARK.json; perfbench/README.md defines them.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Driver processes per untraced run. Each process trains once from cold
# value caches, as every `autotest train` does, on inputs from its own
# seed, so a run's figures are taken over several corpora.
PROCESSES = {"train": 7, "select": 5, "serve_hot": 3, "serve_cold": 3}
# A driver process may take this long beyond its own share of --seconds:
# inputs, training, the quality set and the checks.
DRIVER_SETUP_ALLOWANCE_S = 170


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def output_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build_driver():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no product sources under %s" % os.path.join(ROOT, "src"))
    build_dir = os.path.join(output_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def process_seed(seed, index):
    """Seed of a run's index-th driver process."""
    return (seed * 0x9E3779B97F4A7C15 + index) % (1 << 64)


def run_driver(driver, workload, seed, seconds, trace, work_dir):
    """Runs one driver process and returns its JSON report."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=seconds + DRIVER_SETUP_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(cmd))
    lines = proc.stdout.decode("utf-8", "replace").splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with status %d: %s" % (proc.returncode, " ".join(cmd)))
    report = json.loads(lines[-1])
    sys.stderr.write(
        "perfbench: %s seed %d%s: setup %.2fs, train %.3fs, "
        "%d operations, %d failed\n" % (
            workload, seed, " traced" if trace else "", report["setup_s"],
            report["e2e"]["train_s"],
            report["attempted"], report["failed"]))
    return report


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def end_to_end(reports):
    """Aggregates driver reports into the end-to-end metrics."""
    def median(key):
        return statistics.median(r["e2e"][key] for r in reports)

    latencies = [x for r in reports for x in r["latencies_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "train_s": median("train_s"),
        # Quality is deterministic per seed, but about one corpus in thirty
        # trains a model whose F1 collapses (0.22 against a typical 0.67 on
        # select); a median over a run's corpora ignores it, a mean does not.
        "pr_auc": median("pr_auc"),
        "f1_at_p80": median("f1_at_p80"),
        "throughput_rps": sum(r["checks"] for r in reports)
        / sum(r["check_seconds"] for r in reports),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": median("peak_rss_mb"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    driver = build_driver()

    def work(index):
        return os.path.join(output_dir(), "work", "%s-%d" % (args.workload, index))

    if args.trace:
        # One traced process and an untraced twin on the same seed: their
        # difference is the tracing overhead.
        seed = process_seed(args.seed, 0)
        traced = run_driver(driver, args.workload, seed, args.seconds / 2,
                            True, work(0))
        plain = run_driver(driver, args.workload, seed, args.seconds / 2,
                           False, work(1))
        reports = [traced, plain]
        values = dict(traced["layer"])
        # The overhead is stated in the workload's timed metric.
        primary = ("latency_p50_ms" if args.workload.startswith("serve")
                   else "train_s")
        with_trace = end_to_end([traced])[primary]
        without = end_to_end([plain])[primary]
        values["trace.overhead_pct"] = 100.0 * (with_trace - without) / without
        declared = spec["per_layer"]
    else:
        count = PROCESSES[args.workload]
        reports = [run_driver(driver, args.workload, process_seed(args.seed, i),
                              args.seconds / count, False, work(i))
                   for i in range(count)]
        values = end_to_end(reports)
        declared = spec["end_to_end"]

    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        fail("the driver reported undeclared metrics: " + ", ".join(unknown))
    failed = sum(r["failed"] for r in reports)
    for report in reports:
        for error in report["errors"]:
            sys.stderr.write("perfbench: failed: %s\n" % error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    main()
