#!/usr/bin/env bash
# Pinned fast bench subset for the CI regression gate.
#
# Runs bench_fig14_training_time, bench_fig12_latency (SDC variants only)
# and bench_micro_google at a small pinned scale, merges their outputs
# into one autotest.metrics.v1 document (BENCH_ci.json), and compares the
# time-valued gauges against the checked-in bench/baseline.json: every
# baseline metric must be present and must not exceed baseline * threshold
# (default 1.25, i.e. a >25% regression fails). A delta table is printed
# either way.
#
# Each bench.micro.*_rel score is relative to the geomean over every micro
# bench in the run, so the scores are comparable only over the same suite.
# When the run's micro benches differ from the ones the baseline pins as
# *_rel, the gate fails once, naming the added and the missing benches,
# and compares no *_rel score.
#
# In addition to the baseline comparison, bench/floors.json (if present)
# pins absolute CEILINGS for headline metrics: each floored metric must
# stay at or below its ceiling. The baseline moves every time it is
# re-pinned, so on its own it cannot prevent an accepted optimisation from
# slowly eroding across re-pins; a floor is only ever lowered deliberately
# and locks the improvement in (e.g. the >=2x columnar candidate-gen win,
# DESIGN.md §4k).
#
# Usage: tools/run_bench_ci.sh [build-dir]
# Env:
#   OUT                            output document (default BENCH_ci.json)
#   BASELINE                       baseline doc (default bench/baseline.json;
#                                  "none" skips the comparison)
#   FLOORS                         improvement-floor doc (default
#                                  bench/floors.json; "none" skips it)
#   DELTA_OUT                      delta table copy for CI artifact upload
#                                  (default BENCH_delta.txt)
#   AT_BENCH_REGRESSION_THRESHOLD  regression factor (default 1.25)
#   AT_BENCH_SCALE                 bench scale (default 0.125, the CI pin)
#   AT_BENCH_RUNS                  process runs per binary (default 3); the
#                                  merge keeps the per-metric minimum
#
# Re-pinning after an accepted perf change: run with BASELINE=none on a
# quiet machine, then copy the gated metrics (bench.fig14.*, bench.fig12.*
# and the bench.micro.*_rel relative scores — NOT the *_ns absolutes) from
# BENCH_ci.json into bench/baseline.json, keeping names sorted. If the
# change was an accepted speedup of a floored metric, lower its ceiling in
# bench/floors.json in the same commit. After adding or removing a micro
# bench, re-pin every *_rel gauge; removing one bench whose pinned score
# is r multiplies each of the other n pinned scores by r^(1/n).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
OUT=${OUT:-BENCH_ci.json}
BASELINE=${BASELINE:-bench/baseline.json}
FLOORS=${FLOORS:-bench/floors.json}
DELTA_OUT=${DELTA_OUT:-BENCH_delta.txt}
THRESHOLD=${AT_BENCH_REGRESSION_THRESHOLD:-1.25}
SCALE=${AT_BENCH_SCALE:-0.125}
RUNS=${AT_BENCH_RUNS:-3}

for bin in bench_fig14_training_time bench_fig12_latency bench_micro_google; do
  if [ ! -x "$BUILD_DIR/bench/$bin" ]; then
    echo "error: $BUILD_DIR/bench/$bin not built" >&2
    exit 2
  fi
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Each binary runs AT_BENCH_RUNS times and the merge keeps the per-metric
# minimum: within-process repetitions share CPU-frequency / container state,
# so independent process runs are what actually kills run-to-run noise on
# shared CI runners.
for run in $(seq 1 "$RUNS"); do
  echo "[bench-ci] run $run/$RUNS: bench_fig14_training_time" \
    "(AT_BENCH_SCALE=$SCALE)"
  AT_BENCH_SCALE=$SCALE AT_BENCH_JSON="$tmpdir/fig14.$run.json" \
    "$BUILD_DIR/bench/bench_fig14_training_time" >"$tmpdir/fig14.$run.txt"

  echo "[bench-ci] run $run/$RUNS: bench_fig12_latency" \
    "(AT_BENCH_SCALE=$SCALE, SDC only)"
  AT_BENCH_SCALE=$SCALE AT_BENCH_SDC_ONLY=1 \
    AT_BENCH_JSON="$tmpdir/fig12.$run.json" \
    "$BUILD_DIR/bench/bench_fig12_latency" >"$tmpdir/fig12.$run.txt"

  echo "[bench-ci] run $run/$RUNS: bench_micro_google"
  # Median of 5 repetitions: single passes of the nanosecond-scale benches
  # are too noisy for a 25% gate.
  "$BUILD_DIR/bench/bench_micro_google" \
    --benchmark_out="$tmpdir/micro.$run.json" --benchmark_out_format=json \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    >"$tmpdir/micro.$run.txt" 2>"$tmpdir/micro.$run.err" ||
    {
      cat "$tmpdir/micro.$run.err" >&2
      exit 2
    }
done

python3 - "$tmpdir" "$OUT" "$BASELINE" "$THRESHOLD" "$RUNS" "$FLOORS" \
  "$DELTA_OUT" <<'PY'
import json
import math
import os
import re
import sys

tmpdir, out_path, baseline_path, threshold, runs, floors_path, delta_path = \
    sys.argv[1:8]
threshold = float(threshold)
runs = int(runs)

# Per-metric minimum across the process runs (see the loop above).
best = {}


def record(name, value):
    if name not in best or value < best[name]:
        best[name] = value


for run in range(1, runs + 1):
    # fig14 + fig12 already emit autotest.metrics.v1 via
    # benchx::BenchMetrics.
    for name in ("fig14", "fig12"):
        with open(f"{tmpdir}/{name}.{run}.json") as f:
            doc = json.load(f)
        assert doc["schema"] == "autotest.metrics.v1", doc["schema"]
        for m in doc["metrics"]:
            record(m["name"], m["value"])

    # bench_micro_google emits google-benchmark JSON; fold every
    # benchmark's median-of-repetitions real_time into a nanosecond gauge
    # under bench.micro.*. The *_ns gauges are informational; the gate pins
    # the *_rel gauges — each bench normalized by the geometric mean of all
    # micro benches in the same process run — because nanosecond-scale
    # absolute times swing >25% with machine-wide CPU-frequency noise that
    # hits all benches together. A bench regressing relative to its peers
    # still moves its *_rel score; uniform slowdowns are caught by the
    # absolute seconds-scale fig12/fig14 gauges.
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    with open(f"{tmpdir}/micro.{run}.json") as f:
        micro = json.load(f)
    med = {}
    for b in micro["benchmarks"]:
        if b.get("aggregate_name") != "median":
            continue
        base_name = b.get("run_name", b["name"])
        slug = re.sub(r"[^a-z0-9_]+", "_", base_name.lower()).strip("_")
        med[slug] = b["real_time"] * unit_ns[b["time_unit"]]
    geomean = math.exp(sum(math.log(v) for v in med.values()) / len(med))
    for slug, ns in med.items():
        record(f"bench.micro.{slug}_ns", ns)
        record(f"bench.micro.{slug}_rel", ns / geomean)

metrics = [{"name": name, "kind": "gauge", "value": value}
           for name, value in sorted(best.items())]
doc = {"schema": "autotest.metrics.v1", "source": "run_bench_ci",
       "metrics": metrics}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"[bench-ci] wrote {out_path} ({len(metrics)} metrics)")

current = {m["name"]: m for m in metrics}
failures = []
rows = []

if baseline_path == "none":
    print("[bench-ci] BASELINE=none, skipping regression comparison")
else:
    with open(baseline_path) as f:
        base_doc = json.load(f)
    assert base_doc["schema"] == "autotest.metrics.v1", base_doc["schema"]

    def micro_rel(names):
        return {n for n in names
                if n.startswith("bench.micro.") and n.endswith("_rel")}

    pinned_rel = micro_rel(bm["name"] for bm in base_doc["metrics"])
    run_rel = micro_rel(current)
    suite_changed = pinned_rel != run_rel
    if suite_changed:
        failures.append(
            "micro bench suite differs from the baseline's *_rel pins, so "
            "no *_rel score is comparable: added "
            f"{sorted(run_rel - pinned_rel) or 'none'}, missing "
            f"{sorted(pinned_rel - run_rel) or 'none'}; re-pin every "
            "*_rel gauge")
        print(f"[bench-ci] FAIL: {failures[-1]}")
    # The baseline is the allowlist: every metric it pins must exist in
    # the current run and stay under baseline * threshold.
    for bm in base_doc["metrics"]:
        name, base = bm["name"], float(bm["value"])
        if suite_changed and name in pinned_rel:
            continue
        cm = current.get(name)
        if cm is None:
            failures.append(f"{name}: missing from current run")
            rows.append((name, base, None, None, "MISSING"))
            continue
        cur = float(cm["value"])
        delta = (cur / base - 1.0) * 100.0 if base > 0 else 0.0
        regressed = base > 0 and cur > base * threshold
        if regressed:
            failures.append(f"{name}: {cur:.6g} vs baseline {base:.6g} "
                            f"(+{delta:.1f}% > {(threshold - 1) * 100:.0f}%)")
        rows.append((name, base, cur, delta,
                     "REGRESSED" if regressed else "ok"))

# Improvement floors: absolute ceilings, checked with NO threshold slack —
# the noise margin is baked into the ceiling when it is pinned. A floored
# metric drifting above its ceiling fails even when the (re-pinnable)
# baseline comparison is green.
if floors_path != "none" and os.path.exists(floors_path):
    with open(floors_path) as f:
        floors_doc = json.load(f)
    assert floors_doc["schema"] == "autotest.metrics.v1", floors_doc["schema"]
    for fm in floors_doc["metrics"]:
        name, ceiling = fm["name"], float(fm["value"])
        label = name + " <=ceil"
        cm = current.get(name)
        if cm is None:
            failures.append(f"{name}: floored metric missing from current run")
            rows.append((label, ceiling, None, None, "MISSING"))
            continue
        cur = float(cm["value"])
        delta = (cur / ceiling - 1.0) * 100.0 if ceiling > 0 else 0.0
        over = cur > ceiling
        if over:
            failures.append(f"{name}: {cur:.6g} exceeds improvement-floor "
                            f"ceiling {ceiling:.6g}")
        rows.append((label, ceiling, cur, delta,
                     "ABOVE-CEILING" if over else "ok"))

width = max(len(r[0]) for r in rows) if rows else 10
table = [f"{'metric':<{width}} {'baseline':>12} {'current':>12} "
         f"{'delta':>8}  verdict"]
for name, base, cur, delta, verdict in rows:
    cur_s = f"{cur:.6g}" if cur is not None else "-"
    delta_s = f"{delta:+.1f}%" if delta is not None else "-"
    table.append(f"{name:<{width}} {base:>12.6g} {cur_s:>12} "
                 f"{delta_s:>8}  {verdict}")
for line in table:
    print(f"[bench-ci] {line}")
# Copy of the delta table for the CI job artifact.
with open(delta_path, "w") as f:
    f.write("\n".join(table) + "\n")
print(f"[bench-ci] wrote delta table to {delta_path}")

if failures:
    print(f"[bench-ci] FAIL: {len(failures)} gate violation(s) "
          f"(threshold {threshold}x vs {baseline_path}; "
          f"ceilings from {floors_path})")
    sys.exit(1)
print(f"[bench-ci] OK: {len(rows)} gated metric(s) green")
PY
