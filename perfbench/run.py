#!/usr/bin/env python3
"""flexnets benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a flexnets checkout. On first use it builds the
flexnets library and the harness (perfbench/CMakeLists.txt) into
.bench_build/perfbench, then runs the workload in its own process for
--seconds of wall time, checks every simulated output, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of BENCHMARK.json; the line before it carries the run's manifest
and sample counts. Traced runs also write their spans to
.bench_build/traces/<workload>-<seed>.jsonl.

Exact outputs for the seeds listed in perfbench/expected.json are compared
bit for bit; --record stores the current outputs there instead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("xpander_hyb", "fattree_gray", "jellyfish_gk")

# Per-layer metrics (names and units in BENCHMARK.json). Span metrics are
# medians over the harness's traced iterations; counts come from public
# accessors after the run. A layer a workload never calls reads 0.
SPAN_METRICS = {
    "topo.build_s": "topo.build",
    "workload.flowgen_s": "workload.flowgen",
    "fault.plan_s": "fault.plan",
    "sim.network_build_s": "sim.network_build",
    "routing.ecmp_build_s": "routing.ecmp_build",
    "sim.run_s": "sim.run",
    "pdes.run_s": "pdes.run",
    "metrics.summarize_s": "metrics.summarize",
    "flow.cache_build_s": "flow.cache_build",
    "flow.tm_build_s": "flow.tm_build",
    "flow.instance_build_s": "flow.instance_build",
    "flow.gk_solve_s.lm": "flow.gk_solve.lm",
    "flow.gk_solve_s.a2a": "flow.gk_solve.a2a",
    "flow.bracket_s": "flow.bracket",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no flexnets sources at", os.path.join(ROOT, "src"))
        return False
    jobs = str(min(2, os.cpu_count() or 1))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, timeout=850).returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return os.path.isfile(HARNESS)


def run_harness(workload, seed, seconds, trace):
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-%d.jsonl" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          cwd=ROOT, timeout=170, text=True)
    if proc.returncode != 0:
        log("perfbench: harness exited with", proc.returncode)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def check(result, expected):
    """Returns the run-level problems of one harness result: failed
    seed-independent checks, and outputs that differ from the record for
    this seed. Any problem fails every operation of the run; without one,
    the harness's own count stands (incomplete or aborted flows, non-ok
    solves, lambda outside its bracket)."""
    problems = [name for name, ok in result["checks"].items() if not ok]
    if "counts_repeat" in result and not result["counts_repeat"]:
        problems.append("exact counts differ between iterations")
    record = expected.get(result["workload"], {})
    seed = str(result["manifest"]["seed"])
    if seed in record and record[seed] != result["outputs"]:
        problems.append("outputs differ from the record for seed " + seed)
    return problems


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(result):
    values = {name: statistics.median(result[name])
              for name in ("setup_s", "run_s", "cpu_s")}
    values["peak_rss_mb"] = result["peak_rss_mb"]
    summary = {name: {"samples": len(result[name]),
                      "quartiles": quartiles(result[name])}
               for name in ("setup_s", "run_s", "cpu_s")}
    summary["peak_rss_mb"] = {"samples": 1}
    return values, summary


def per_layer(result):
    spans = result["layer_spans"]
    values = dict(result["layer_counts"])
    for name, span in SPAN_METRICS.items():
        samples = spans.get(span, [])
        values[name] = statistics.median(samples) if samples else 0.0
    values["trace.overhead_s"] = spans["trace.overhead_s"]
    # Rates over exact counts. The serial engine's time per event comes
    # from sim.run_s, the parallel pass's from pdes.run_s (both engines
    # dispatch the same events).
    events = values.get("sim.events", 0)
    values["sim.ns_per_event"] = per_count(values["sim.run_s"], events)
    values["pdes.ns_per_event"] = per_count(values["pdes.run_s"], events)
    values["flow.ns_per_dijkstra"] = per_count(
        values["flow.gk_solve_s.lm"] + values["flow.gk_solve_s.a2a"],
        values.get("flow.dijkstra_calls", 0))
    return values


def with_units(values, specs):
    """The result line's metrics: every metric of `specs` (a BENCHMARK.json
    list), 0 where the workload has no such layer."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in specs}


def per_count(seconds, count):
    """Nanoseconds per counted operation (0 when nothing was counted)."""
    return seconds * 1e9 / count if count else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outputs in perfbench/expected.json")
    args = ap.parse_args()

    if not build():
        return 2
    result = run_harness(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1

    expected = load_expected()
    if args.record:
        expected.setdefault(args.workload, {})[str(args.seed)] = result["outputs"]
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")

    problems = check(result, expected)
    failed = result["attempted"] if problems else result["failed"]
    with open(SPEC) as f:
        spec = json.load(f)
    if args.trace:
        values, summary = per_layer(result), {}
    else:
        values, summary = end_to_end(result)
    metrics = with_units(values, spec["per_layer" if args.trace else "end_to_end"])
    for p in problems:
        log("perfbench: check failed:", p)

    print(json.dumps({"workload": args.workload,
                      "iterations": result["iterations"],
                      "manifest": result["manifest"],
                      "samples": summary,
                      "problems": problems}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
