#!/usr/bin/env python3
"""End-to-end benchmark of the BlockOptR pipeline.

Builds perfbench_iter from the repository's sources, runs one workload for
a fixed time (one process per iteration), checks every output, prints a
table of every metric with its median, quartiles and max, and ends with one
JSON line:

    python3 perfbench/run.py --workload batch-uniform --seed 1 \
        --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics from untraced iterations, with
host time scaled to a reference host speed (see PROBE_REF_S).
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics, a self-time table per layer, and the tracing overhead;
the spans are written to .bench_out/trace-<workload>-seed<seed>.json.
--record-reference rewrites perfbench/reference.json from the default
seed. See perfbench/NOTES.md for the workloads and the metric map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench_iter"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("batch-uniform", "live-hotkey", "sharded-4ch", "whatif-drm")
DEFAULT_SEED = 1
MIN_ITERATIONS = 3
# Every iteration must end within this many seconds after the build, so the
# whole invocation ends within 180 s even if an iteration hangs.
RUN_BUDGET_S = 170
REPORT_COUNTS = ("committed", "successful", "mvcc", "phantom", "endorsement",
                 "early_abort")

# The nine end-to-end metrics, all printed in the table, plus the host
# probe. Only the ones that are measured and non-zero on every workload go
# into the result line and BENCHMARK.json; export_s and whatif_s are 0 where
# a workload has no such phase, and ops_failed_share is the result line's
# failed / attempted.
E2E_METRICS = (
    ("setup_s", "s"), ("sim_tx_per_s", "1/s"), ("analyze_s", "s"),
    ("export_s", "s"), ("whatif_s", "s"), ("total_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("probe_s", "s"), ("ops_failed_share", "share"),
)
E2E_REPORTED = ("setup_s", "sim_tx_per_s", "analyze_s", "total_s", "cpu_s",
                "peak_rss_mb")

# The shared host's speed drifts by 20-30% over tens of minutes, longer than
# a run. The result line therefore states host time at a reference host
# speed: each run's median host probe (host_probe.cc) against PROBE_REF_S
# gives a factor, time metrics are multiplied by it and rates divided by it.
# The table above the result line prints the unscaled medians.
PROBE_REF_S = 0.080
HOST_SPEED_EXPONENT = {"setup_s": 1, "analyze_s": 1, "total_s": 1,
                       "cpu_s": 1, "sim_tx_per_s": -1}

# Per-layer metric -> how one traced iteration yields it: ("span", name) sums
# the durations of the spans of that name, ("allocs", name) their heap
# allocations, ("count", key) reads a count the iteration reported.
PER_LAYER = {
    "workload.generate_s": ("s", ("span", "workload.generate")),
    "driver.create_s": ("s", ("span", "driver.create")),
    "driver.create_allocs": ("count", ("allocs", "driver.create")),
    "driver.finish_s": ("s", ("span", "driver.finish")),
    "sim.loop_s": ("s", ("span", "sim.loop")),
    "sim.loop_allocs_per_tx": ("count/tx", None),
    "sim.events": ("count", ("count", "sim.events")),
    "sim.events_per_s": ("1/s", None),
    "sim.queue_peak": ("count", ("count", "sim.queue_peak")),
    "fabric.valid_ratio": ("ratio", ("count", "fabric.valid_ratio")),
    "fabric.mvcc_aborts": ("count", ("count", "fabric.mvcc_aborts")),
    "fabric.phantom_aborts": ("count", ("count", "fabric.phantom_aborts")),
    "fabric.endorse_failures": ("count", ("count", "fabric.endorse_failures")),
    "shard.run_s": ("s", ("span", "shard.run")),
    "shard.cpu_s": ("s", ("cpu", "shard.run")),
    "shard.parallelism": ("ratio", None),
    "log.extract_s": ("s", ("span", "log.extract")),
    "log.extract_allocs": ("count", ("allocs", "log.extract")),
    "log.rows": ("count", ("count", "log.rows")),
    "metrics.compute_s": ("s", ("span", "metrics.compute")),
    "metrics.compute_allocs": ("count", ("allocs", "metrics.compute")),
    "metrics.aggregate_s": ("s", ("span", "metrics.aggregate")),
    "recommend.s": ("s", ("span", "recommend")),
    "recommend.count": ("count", ("count", "recommend.count")),
    "export.log_csv_s": ("s", ("span", "export.log_csv")),
    "export.log_json_s": ("s", ("span", "export.log_json")),
    "export.xes_s": ("s", ("span", "export.xes")),
    "export.bytes": ("count", ("count", "export.bytes")),
    "telemetry.bottleneck_s": ("s", ("span", "telemetry.bottleneck")),
    "telemetry.snapshot_s": ("s", ("span", "telemetry.snapshot")),
    "telemetry.prom_s": ("s", ("span", "telemetry.prom")),
    "telemetry.html_s": ("s", ("span", "telemetry.html")),
    "stream.evaluations": ("count", ("count", "stream.evaluations")),
    "stream.pane_merges": ("count", ("count", "stream.pane_merges")),
    "txtrace.events_appended": ("count", ("count", "txtrace.events_appended")),
    "sampler.ticks": ("count", ("count", "sampler.ticks")),
    "apply.reruns": ("count", ("count", "apply.reruns")),
    "apply.rerun_max_s": ("s", None),
    "apply.rerun_sum_s": ("s", ("span", "apply.rerun")),
    "apply.allocs": ("count", ("allocs", "apply.whatif")),
    "interner.keys_added": ("count", ("count", "interner.keys_added")),
    "host.probe_s": ("s", None),
    "trace.uncovered_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds perfbench_iter; a no-op when up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    with open(log_path, "w") as log:
        for attempt in (0, 1):
            rc = subprocess.call(configure, stdout=log, stderr=log,
                                 timeout=300)
            if rc == 0:
                break
            # A cache left by a build of another source tree: start over.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if rc == 0:
            rc = subprocess.call(
                ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                stdout=log, stderr=log, timeout=850)
    if rc != 0 or not BINARY.is_file():
        tail = log_path.read_text(errors="replace").splitlines()[-20:]
        fail("build failed:\n" + "\n".join(tail))


_budget_end = None


def run_child(workload, seed, trace, sim_threads=None):
    """Runs one iteration; returns its JSON record or None on failure."""
    global _budget_end
    if _budget_end is None:
        _budget_end = time.monotonic() + RUN_BUDGET_S
    scratch = OUT_DIR / f"{workload}-{os.getpid()}"
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--out={scratch}"]
    if trace:
        cmd.append("--trace")
    if sim_threads is not None:
        cmd.append(f"--sim-threads={sim_threads}")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True,
            timeout=max(1.0, _budget_end - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"iteration timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        print(f"iteration failed ({proc.returncode}): {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("iteration printed no result", file=sys.stderr)
        return None


def reference_view(record):
    """The part of an iteration's fingerprint the reference pins down."""
    fp = record["fingerprint"]
    view = {"report": {k: fp["report"].get(k) for k in REPORT_COUNTS},
            "recommendations": fp.get("recommendations")}
    if "whatif" in fp:
        view["whatif"] = fp["whatif"]
    return view


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {why}")

    def add_record(self, record):
        if record is None:
            self.add("iteration", False, "process failed")
            return
        for op in record["ops"]:
            self.add(op["op"], op["ok"], op.get("why", ""))


def e2e_values(record):
    p = record["phases"]
    sim_s = p["sim_s"]
    return {
        "setup_s": p["setup_s"],
        "sim_tx_per_s": record["committed"] / sim_s if sim_s > 0 else 0.0,
        "analyze_s": p["analyze_s"],
        "export_s": p["export_s"],
        "whatif_s": p["whatif_s"],
        "total_s": p["total_s"],
        "cpu_s": p["cpu_s"],
        "peak_rss_mb": p["peak_rss_mb"],
        "probe_s": p["probe_s"],
    }


def layer_self_times(spans):
    """Self time per layer over the workload's span tree (root 'run')."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]].append(i)
    totals = {}

    def visit(i):
        name, _, start, end = spans[i][:4]
        child_s = sum(spans[c][3] - spans[c][2] for c in children[i])
        layer = "uncovered" if name == "run" else name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - child_s
        for c in children[i]:
            visit(c)

    for i, s in enumerate(spans):
        if s[0] == "run" and s[1] < 0:
            visit(i)
    return totals


def per_layer_values(record):
    spans = record["spans"]
    counts = record["counts"]
    values = {}
    for name, (_, source) in PER_LAYER.items():
        if source is None:
            continue
        kind, key = source
        if kind == "count":
            values[name] = counts.get(key, 0)
        else:
            field = {"span": None, "allocs": 4, "cpu": 5}[kind]
            matches = [s for s in spans if s[0] == key]
            values[name] = sum((s[3] - s[2]) if field is None else s[field]
                               for s in matches)
    committed = record["committed"]
    sim_s = values["sim.loop_s"] or values["shard.run_s"]
    values["sim.loop_allocs_per_tx"] = (
        next((s[4] for s in spans if s[0] == "sim.loop"), 0) / committed
        if committed else 0)
    values["sim.events_per_s"] = values["sim.events"] / sim_s if sim_s else 0
    values["shard.parallelism"] = (values["shard.cpu_s"] / values["shard.run_s"]
                                   if values["shard.run_s"] else 0)
    values["apply.rerun_max_s"] = max(
        (s[3] - s[2] for s in spans if s[0] == "apply.rerun"), default=0)
    values["host.probe_s"] = record["phases"]["probe_s"]
    values["trace.uncovered_s"] = layer_self_times(spans).get("uncovered", 0)
    return values


def spread(values):
    """(median, q1, q3, max) of a list of numbers."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, max(values)


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_table(title, rows, units):
    print(title)
    print(f"  {'metric':<26} {'unit':<9} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'max':>12} {'n':>4}")
    for name, values in rows.items():
        med, q1, q3, mx = spread(values)
        print(f"  {name:<26} {units[name]:<9} {fmt(med):>12} {fmt(q1):>12} "
              f"{fmt(q3):>12} {fmt(mx):>12} {len(values):>4}")


def write_trace(workload, seed, traced):
    """Writes every traced iteration's spans as Chrome trace events."""
    events = []
    for run_id, record in enumerate(traced):
        for s in record["spans"]:
            name, parent, start, end, allocs, cpu = s
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": run_id,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"run": f"{workload}-{seed}-{run_id}",
                         "parent": parent, "allocs": allocs, "cpu_s": cpu},
            })
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"traceEvents": events}))
    return path


def check_outputs(args, records, ops):
    """Untimed checks across iterations: determinism, thread equivalence,
    and the recorded reference for the default seed. Returns the two-thread
    sharded iteration, if one ran."""
    first = next((r for r in records if r is not None), None)
    if first is None:
        return None
    for r in records[1:]:
        if r is not None:
            ops.add("determinism", r["fingerprint"] == first["fingerprint"],
                    f"seed {args.seed} gave two different results")
    threaded = None
    if args.workload == "sharded-4ch":
        # The timed iterations run the channels on one thread; this untimed
        # one uses two. Its merged report must be field-identical.
        threaded = run_child(args.workload, args.seed, False, sim_threads=2)
        ops.add_record(threaded)
        ops.add("sim_threads", threaded is not None and
                threaded["fingerprint"] == first["fingerprint"],
                "merged report differs between sim_threads 1 and 2")
    reference = json.loads(REFERENCE.read_text()).get(args.workload)
    if args.seed == DEFAULT_SEED:
        default = first
    else:
        default = run_child(args.workload, DEFAULT_SEED, False)
        ops.add_record(default)
    ops.add("reference", default is not None and reference is not None and
            reference_view(default) == reference,
            f"default-seed result differs from {REFERENCE.name}")
    return threaded


def record_reference():
    reference = {}
    for workload in WORKLOADS:
        record = run_child(workload, DEFAULT_SEED, False)
        if record is None or not all(op["ok"] for op in record["ops"]):
            fail(f"{workload} failed; reference not written")
        reference[workload] = reference_view(record)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) +
                         "\n")
    print(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    build()
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference()
        return

    # Timed iterations. A traced run alternates untraced and traced
    # iterations so the tracing overhead is measured under the same load.
    records, traced = [], []
    deadline = time.monotonic() + args.seconds
    i = 0
    while len(records) < MIN_ITERATIONS or time.monotonic() < deadline:
        trace = args.trace == 1 and i % 2 == 1
        record = run_child(args.workload, args.seed, trace)
        (traced if trace else records).append(record)
        i += 1
    ops = Ops()
    for record in records + traced:
        ops.add_record(record)
    threaded = check_outputs(args, records + traced, ops)
    good = [r for r in records if r is not None]
    good_traced = [r for r in traced if r is not None]
    failed_share = len(ops.failures) / max(ops.attempted, 1)

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} iterations={len(records) + len(traced)}")
    units = dict(E2E_METRICS)
    rows = {}
    if good:
        for name, _ in E2E_METRICS[:-1]:
            rows[name] = [e2e_values(r)[name] for r in good]
    rows["ops_failed_share"] = [failed_share]
    print_table("end-to-end metrics (untraced iterations):", rows, units)
    if threaded is not None:
        # Not gated: the lockstep barrier's two-group spread (NOTES.md).
        v = e2e_values(threaded)
        print(f"  sim_threads=2 run (untimed check, not gated): total_s "
              f"{fmt(v['total_s'])} sim_tx_per_s {fmt(v['sim_tx_per_s'])} "
              f"cpu_s {fmt(v['cpu_s'])}")
    for failure in ops.failures:
        print(f"  FAILED {failure}")

    if args.trace == 0:
        factor = (PROBE_REF_S / statistics.median(rows["probe_s"])
                  if good else 1.0)
        print(f"host-speed factor {PROBE_REF_S:g} s / median probe_s = "
              f"{factor:.6g}; the result line multiplies the time metrics "
              f"by it and divides sim_tx_per_s by it")
        metrics = {name: {"value": statistics.median(rows[name]) *
                          factor ** HOST_SPEED_EXPONENT.get(name, 0),
                          "unit": units[name]}
                   for name in E2E_REPORTED if name in rows}
    else:
        metrics = report_traced(args, good, good_traced)
    result = {"correct": not ops.failures and bool(good),
              "attempted": ops.attempted, "failed": len(ops.failures),
              "metrics": metrics}
    print(json.dumps(result))


def report_traced(args, untraced, traced):
    """Prints the per-layer table and the self-time table; returns the
    per-layer metrics."""
    if not traced:
        return {}
    path = write_trace(args.workload, args.seed, traced)
    overhead = (statistics.median(r["phases"]["total_s"] for r in traced) -
                statistics.median(r["phases"]["total_s"] for r in untraced)
                if untraced else 0.0)
    rows = {name: [] for name in PER_LAYER}
    for record in traced:
        values = per_layer_values(record)
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                rows[name].append(values[name])
    rows["trace.overhead_s"] = [overhead]
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    print_table("per-layer metrics (traced iterations):", rows, units)

    totals = [r["phases"]["total_s"] for r in traced]
    selfs = [layer_self_times(r["spans"]) for r in traced]
    layers = sorted({k for s in selfs for k in s},
                    key=lambda k: (k == "uncovered", k))
    total_med = statistics.median(totals)
    print(f"self time per layer (median of {len(traced)} traced iterations; "
          f"traced total_s {total_med:.6g} s):")
    for layer in layers:
        med = statistics.median(s.get(layer, 0.0) for s in selfs)
        print(f"  {layer:<12} {med:>12.6g} s  {100 * med / total_med:6.2f}%")
    covered = statistics.median(sum(s.values()) for s in selfs)
    print(f"  {'sum':<12} {covered:>12.6g} s  (spans account for the "
          f"traced total_s; 'uncovered' is time outside every layer span)")
    print(f"tracing overhead: traced total_s - untraced total_s = "
          f"{overhead:+.6g} s")
    replay = [s for r in traced for s in r["spans"] if s[0] == "apply.rerun"]
    if replay:
        print(f"what-if serial replay: {len(replay)} re-runs outside the "
              f"timed workload, durations {[round(s[3] - s[2], 4) for s in replay]}")
    print(f"spans written to {path}")
    return {name: {"value": statistics.median(values), "unit": units[name]}
            for name, values in rows.items()}


if __name__ == "__main__":
    main()
