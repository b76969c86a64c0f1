#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, against the bounds in BENCHMARK.json.

    python3 bench/spread.py --workloads dp16,greedy64 --seeds 1-10
    python3 bench/spread.py --workloads all --seeds 1-10 --against 11-20

Spread is (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4). With --against, a second set of seeds is
run and its medians are compared with the first set's: a later claim must
hold on seeds that were not used while it was made. Runs are sequential, so
they never compete for the machine with each other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_seeds(workload, seeds, seconds):
    rows = []
    for seed in seeds:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        if child.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {child.returncode}")
        last = json.loads(child.stdout.splitlines()[-1])
        if not last["correct"]:
            raise SystemExit(f"{workload} seed {seed}: {last['failed']} failed jobs")
        rows.append({name: m["value"] for name, m in last["metrics"].items()})
        print(f"  {workload} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in rows[-1].items()),
              flush=True)
    return rows


def summary(rows, name):
    values = [row[name] for row in rows]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against", help="second seed range whose medians are compared")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    report = {}
    ok = True
    for workload in names:
        first = run_seeds(workload, seed_range(args.seeds), seconds)
        second = run_seeds(workload, seed_range(args.against), seconds) if args.against else None
        report[workload] = {"first": first, "second": second}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, spread = summary(first, name)
            line = f"{workload:11s} {name:18s} median {median:12.6g} spread {spread:7.2%} (bound {bound:.0%})"
            if name != "setup_s" and spread > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif name != "setup_s" and spread > bound / 3:
                line += "  spread over a third of the bound"
            if second is not None:
                median2, spread2 = summary(second, name)
                worse = (median2 - median) / median if metric["better"] == "lower" else (median - median2) / median
                line += f" | second median {median2:12.6g} ({worse:+.2%} worse) spread {spread2:7.2%}"
                if worse > bound or (name != "setup_s" and spread2 > bound):
                    ok = False
                    line += "  OVER BOUND"
            print(line, flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run", "spread.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
