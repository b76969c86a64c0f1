#!/usr/bin/env python3
"""reasm benchmark: one workload per process, closed loop with one client.

    python3 bench/run.py --workload dp16 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs a fixed number of jobs untraced and then the same jobs traced, and
reports the per-layer metrics. Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Results and trace spans are also written under .bench_run/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

import random

import reference as ref
from tracer import JOB, LAYERS, Tracer
from workloads import WORKLOADS, gnp_edges

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_run")

SETUP_REPS = 5  # fresh imports plus warm-up per run; setup_s is their median
TAIL_BEYOND = 10  # job_ms_tail leaves this many samples above it
MAX_LOOP_WALL_S = 120  # a timed loop stops early rather than overrun 180 s

# The host is shared and its speed drifts by up to half within a minute,
# uniformly for CPU-bound Python code. A fixed bench-owned probe runs
# between jobs, and every reported time is scaled by
# PROBE_REFERENCE_S / (mean of the probes just before and after it): times
# read as at a fixed host speed. PROBE_REFERENCE_S only sets the scale. It is
# the probe's time on an idle 2-vCPU Xeon under CPython 3.11, so there the
# scaled times equal wall times. Raw wall times are kept in the result file.
PROBE_REFERENCE_S = 0.007
_PROBE_RNG = random.Random("speed probe")
_PROBE_ADJ8 = ref.adjacency(8, gnp_edges(8, 0.5, _PROBE_RNG))
_PROBE_ADJ32 = ref.adjacency(32, gnp_edges(32, 0.3, _PROBE_RNG))


def probe():
    """Seconds taken by a fixed amount of pure-Python work."""
    start = time.perf_counter()
    for _ in range(3):
        ref.optimum(_PROBE_ADJ8, 8, "beta", "min")
        ref.greedy_beta(_PROBE_ADJ32, 32)
    total, seen = 0, {}
    for i in range(40000):
        total += (i * i) & 1023
        seen[i & 63] = total
    return time.perf_counter() - start


# name -> unit
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "greedy_beta_ratio": "ratio",
}

_FUNCTION_METRICS = {
    "solvers.optimize_balanced": ("calls", "busy_ms", "self_ms"),
    "graphs.boundary_size": ("calls", "busy_ms"),
    "solvers.qp_objective": ("calls", "busy_ms"),
    "solvers.maximize_qp": ("busy_ms",),
    "trees.measures": ("calls", "busy_ms"),
    "solvers.enumerate_balanced_trees": ("busy_ms",),
    "solvers.all_balanced_trees": ("calls",),
    "oracles.min_bisections": ("calls", "busy_ms"),
    "oracles.find_fixed_size_cover4": ("calls", "busy_ms"),
    "reductions.augment": ("busy_ms",),
    "reductions.has_independent_quarters": ("busy_ms",),
    **{f"reductions.verify_lemma.lemma{k}": ("busy_ms",) for k in range(1, 7)},
    "reductions.verify_lemma": ("self_ms",),
    "generators.random_connected_graph": ("busy_ms",),
    "generators.random_graph": ("busy_ms",),
    "generators.random_balanced_tree": ("busy_ms",),
    "generators.planted_independent_quarters": ("busy_ms",),
    "generators.planted_clique_cover": ("busy_ms",),
    "solvers.greedy_balanced_heuristic": ("busy_ms", "self_ms"),
    "graphs.bridge_count": ("calls", "busy_ms"),
    "trees.tree_violations": ("busy_ms",),
    "trees.ReassemblingTree.from_masks": ("calls", "busy_ms", "self_ms"),
    "trees.beta_via_edge_heights": ("busy_ms",),
    "graphs.parse_graph": ("busy_ms",),
    "cli.main": ("calls", "self_ms"),
}
_UNITS = {"calls": "count", "busy_ms": "ms", "self_ms": "ms"}

# name -> unit; every entry is reported on every workload (0 where the
# layer does not run).
PER_LAYER = {
    **{f"{fn}.{kind}": _UNITS[kind] for fn, kinds in _FUNCTION_METRICS.items() for kind in kinds},
    "solvers.optimize_balanced.dp_states": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def import_reasm():
    """Import reasm afresh from this checkout's src/ (dropping any copy
    already imported, so each set-up repetition pays the full import)."""
    for name in [m for m in sys.modules if m == "reasm" or m.startswith("reasm.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("reasm")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"reasm was imported from {package.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"reasm.{layer}") for layer in LAYERS}
    return types.SimpleNamespace(package=package, **modules)


def set_up(workload):
    """One set-up: fresh import and one untimed warm-up job.
    Returns (wall seconds, probe-scaled seconds)."""
    before = probe()
    start = time.perf_counter()
    workload.lib = import_reasm()
    workload.execute(workload.prepare(-1))
    elapsed = time.perf_counter() - start
    return elapsed, elapsed * 2 * PROBE_REFERENCE_S / (before + probe())


def run_jobs(workload, first, count=None, seconds=None, tracer=None):
    """Closed loop: prepare, time, check, next. Stops after ``count`` jobs or,
    once the wall time of the timed jobs reaches ``seconds``, at the end of a
    whole rotation of the workload's job kinds, so every run has the same mix.
    Returns (wall times, probe-scaled times, problems)."""
    times, scaled, problems = [], [], []
    loop_start = time.monotonic()
    index = first
    before = probe()
    while (
        index - first < count
        if count is not None
        else sum(times) < seconds or (index - first) % workload.rotation
    ):
        job = workload.prepare(index)
        if tracer is not None:
            tracer.begin_job(index)
        start = time.perf_counter()
        try:
            output = workload.execute(job)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_job()
        after = probe()
        times.append(elapsed)
        scaled.append(elapsed * 2 * PROBE_REFERENCE_S / (before + after))
        before = after
        if error is None:
            try:
                found = workload.check(job, output)
            except Exception:
                found = [traceback.format_exc(limit=3)]
        else:
            found = [error]
        problems.extend(f"job {index}: {p}" for p in found[:1])
        index += 1
        if count is None and time.monotonic() - loop_start > MAX_LOOP_WALL_S:
            break
    return times, scaled, problems


def tail(times_ms):
    """The highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def greedy_ratio(workload):
    if workload.greedy_ref_beta == 0:
        return 1.0
    return workload.greedy_beta / workload.greedy_ref_beta


def git_commit():
    """HEAD of the checkout's git repository, read without starting git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref_name)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "host": "shared machine",
        "controls": "no CPU pinning, no cache dropping, no cgroup changes",
        "loop": "closed loop, one client, single-threaded process",
    }


def measure_end_to_end(workload, seconds):
    setups = [set_up(workload) for _ in range(SETUP_REPS)]
    wall, times, problems = run_jobs(workload, 0, seconds=seconds)
    attempted, failed = len(times), len(problems)
    times_ms = [t * 1000 for t in times]
    tail_ms, tail_pct = tail(times_ms)
    metrics = {
        "jobs_per_s": (attempted - failed) / sum(times),
        "job_ms_p50": statistics.median(times_ms),
        "job_ms_tail": tail_ms,
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
        "greedy_beta_ratio": greedy_ratio(workload),
    }
    wall_ms = [t * 1000 for t in wall]
    details = {
        "jobs": attempted,
        "timed_wall_s": sum(wall),
        "wall": {"jobs_per_s": (attempted - failed) / sum(wall), "job_ms_p50": statistics.median(wall_ms),
                 "job_ms_tail": tail(wall_ms)[0], "setup_s": statistics.median(w for w, _ in setups)},
        "job_ms_p50": {"percentile": 50, "samples": attempted},
        "job_ms_tail": {"percentile": tail_pct, "samples": attempted, "beyond": min(TAIL_BEYOND, attempted - 1)},
        "setup_s_reps": {"wall": [w for w, _ in setups], "scaled": [s for _, s in setups]},
        "greedy_beta": [workload.greedy_beta, workload.greedy_ref_beta],
        "findings": workload.findings,
    }
    return metrics, END_TO_END, attempted, problems, details


def measure_per_layer(workload, trace_path):
    setup = set_up(workload)[0]
    count = workload.trace_jobs
    _, plain, problems = run_jobs(workload, 0, count=count)
    tracer = Tracer()
    tracer.install(workload.lib.package, vars(workload.lib))
    try:
        _, traced, traced_problems = run_jobs(workload, 0, count=count, tracer=tracer)
    finally:
        tracer.restore()
    problems += traced_problems
    totals = tracer.totals()
    metrics = {}
    for name in PER_LAYER:
        fn, _, kind = name.rpartition(".")
        if kind in _UNITS:
            metrics[name] = totals.get(fn, {}).get(kind, 0)
    optimize_calls = totals.get("solvers.optimize_balanced", {}).get("calls", 0)
    states = tracer.child_count("solvers.optimize_balanced", "graphs.boundary_size")
    metrics["solvers.optimize_balanced.dp_states"] = states / optimize_calls if optimize_calls else 0
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = sum(
            t["self_ms"] for fn, t in totals.items()
            if fn.split(".")[0] == layer and "self_ms" in t
        )
    metrics["trace.overhead_ratio"] = sum(plain) / sum(traced)
    tracer.dump(trace_path)
    with open(trace_path[: -len(".spans")] + ".json", "w", encoding="utf-8") as handle:
        json.dump({"jobs": count, "totals": totals}, handle, indent=1, sort_keys=True)
    details = {
        "jobs": count,
        "setup_s": setup,
        "untraced_scaled_ms": sum(plain) * 1000,
        "traced_scaled_ms": sum(traced) * 1000,
        "job_self_ms": totals.get(JOB, {}).get("self_ms", 0),
        "spans": len(tracer.span_name),
        "wrapped": len(tracer.wrapped),
        "trace_file": os.path.relpath(trace_path, ROOT),
        "findings": workload.findings,
    }
    return metrics, PER_LAYER, 2 * count, problems, details


def run_one(args):
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    try:
        if args.trace:
            metrics, units, attempted, problems, details = measure_per_layer(workload, stem + "-trace.spans")
        else:
            metrics, units, attempted, problems, details = measure_end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(f"{stem}-trace{args.trace}.result.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "details": details, "problems": problems,
                   **result}, handle, indent=1)
    for problem in problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# details {json.dumps(details, sort_keys=True)}")
    for finding in details["findings"]:
        print(f"# finding {finding}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            status = child.returncode or 1
            merged["correct"] = False
            continue
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
