#!/usr/bin/env python3
"""Quick self-test of the benchmark (about half a minute).

    python3 bench/selftest.py            # run the checks
    python3 bench/selftest.py --record   # rewrite references.json from reasm

Checks that BENCHMARK.json and the runner agree on workload and metric names
and units, runs every workload for a few jobs in both modes with every
output check passing, confirms the traced run restores every wrapped
function, replays the recorded reference outputs through reasm and through
the bench's reference implementations, and confirms the benchmark exits
non-zero without printing a result when src/ is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

import reference as ref
import run
from tracer import LAYERS, Tracer, load_spans
from workloads import WORKLOADS, confirmed_counterexample, run_cli

REFERENCES = os.path.join(run.HERE, "references.json")
SEED = 1
RECORDED_JOBS = 4
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names differ from the runner's")
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        check(listed == declared, f"BENCHMARK.json {key} names or units differ from run.py")
        for metric in bench[key]:
            check(NAME.match(metric["name"]) is not None, f"bad metric name {metric['name']}")
            check(UNIT.match(metric["unit"]) is not None, f"bad unit {metric['unit']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s must have the largest bound")


def wrapper_bindings(lib):
    """Module and class attributes that are still tracing wrappers."""
    found = []
    for layer in ("package", *LAYERS):
        module = getattr(lib, layer)
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in owners:
            for attr, value in vars(owner).items():
                inner = getattr(value, "__func__", value)
                if getattr(inner, "__qualname__", "").startswith("Tracer._wrap"):
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def check_restore():
    lib = run.import_reasm()
    snapshot = {(layer, attr): value for layer in ("package", *LAYERS)
                for attr, value in vars(getattr(lib, layer)).items()}
    tracer = Tracer()
    tracer.install(lib.package, vars(lib))
    check(lib.solvers.boundary_size is not snapshot[("solvers", "boundary_size")],
          "install did not rebind solvers.boundary_size")
    check(lib.cli.parse_graph is not snapshot[("cli", "parse_graph")], "install did not rebind cli.parse_graph")
    check(len(wrapper_bindings(lib)) > len(tracer.wrapped), "install rebound too few bindings")
    tracer.restore()
    after = {(layer, attr): value for layer in ("package", *LAYERS)
             for attr, value in vars(getattr(lib, layer)).items()}
    check(after.keys() == snapshot.keys() and all(after[k] is snapshot[k] for k in snapshot),
          "restore left a module binding changed")
    check(not wrapper_bindings(lib), "restore left wrappers behind")


def check_workloads(workdir):
    for name, cls in WORKLOADS.items():
        workload = cls(SEED, workdir)
        metrics, units, attempted, problems, _ = run.measure_end_to_end(workload, seconds=0.2)
        check(not problems, f"{name} end-to-end: {problems[:1]}")
        check(set(metrics) == set(units) == set(run.END_TO_END), f"{name} end-to-end metric names")
        check(metrics["greedy_beta_ratio"] == 1.0, f"{name} greedy_beta_ratio {metrics['greedy_beta_ratio']}")
        check(all(v > 0 for v in metrics.values()), f"{name}: an end-to-end metric is 0")
        workload = cls(SEED, workdir)
        workload.trace_jobs = 1
        trace_path = os.path.join(workdir, f"{name}.spans")
        metrics, units, attempted, problems, details = run.measure_per_layer(workload, trace_path)
        check(not problems, f"{name} traced: {problems[:1]}")
        names, columns = load_spans(trace_path)
        check(len(columns["span_name"]) == details["spans"] and "job" in names,
              f"{name}: span file does not round-trip")
        check(set(metrics) == set(units) == set(run.PER_LAYER), f"{name} per-layer metric names")
        check(not wrapper_bindings(workload.lib), f"{name}: traced run left wrappers behind")
        check(metrics["cli.main.calls"] > 0 or name == "greedy64", f"{name}: no cli.main spans")
        print(f"ok {name}", flush=True)


def check_counterexamples(lib):
    """Known verify-lemma counterexamples are confirmed; a tampered one is not."""
    for argv in (["verify-lemma", "5", "--instances", "4", "--n", "8", "--seed", "1673040026"],
                 ["verify-lemma", "6", "--instances", "4", "--n", "8", "--seed", "1710141907"]):
        lemma = int(argv[1])
        code, out, _ = run_cli(lib.cli, argv)
        check(code == 1 and confirmed_counterexample(lemma, out), f"{argv} is not a confirmed counterexample")
        doc = json.loads(out)
        # A balanced tree that is not beta-optimal for either graph.
        doc["counterexample"]["tree"] = [[v] for v in range(8)] + [
            [0, 1], [2, 3], [4, 5], [6, 7], [0, 1, 2, 3], [4, 5, 6, 7], list(range(8))]
        check(not confirmed_counterexample(lemma, json.dumps(doc)), f"{argv}: a tampered counterexample was confirmed")


def replay(lib, workdir):
    """Outputs of reasm and of the reference implementations on the first
    RECORDED_JOBS jobs of seed SEED, as {workload: [per-job values]}."""
    out = {"library": {}, "reference": {}}
    dp16 = WORKLOADS["dp16"](SEED, workdir)
    greedy64 = WORKLOADS["greedy64"](SEED, workdir)
    measure256 = WORKLOADS["measure256"](SEED, workdir)
    for workload in (dp16, greedy64, measure256):
        workload.lib = lib
    for key in out:
        out[key] = {"dp16": [], "greedy64": [], "measure256": []}
    for index in range(RECORDED_JOBS):
        job = dp16.prepare(index)
        out["library"]["dp16"].append(json.loads(run_cli(lib.cli, job["argv"])[1])["value"])
        adj = ref.adjacency(16, job["edges"])
        out["reference"]["dp16"].append(ref.optimum(adj, 16, job["objective"], job["sense"]))

        job = greedy64.prepare(index)
        out["library"]["greedy64"].append(lib.solvers.greedy_balanced_heuristic(job["graph"], "beta")[1])
        out["reference"]["greedy64"].append(ref.greedy_beta(ref.adjacency(64, job["edges"]), 64))

        job = measure256.prepare(index)
        out["library"]["measure256"].append([json.loads(run_cli(lib.cli, argv)[1]) for argv in job["argvs"]])
        adj = ref.adjacency(256, job["edges"])
        docs = []
        for clusters in job["trees"].values():
            alpha, beta = ref.measures(adj, 256, clusters)
            doc = {"alpha": alpha, "beta": beta}
            if ref.is_balanced_height(256, ref.tree_shape(256, clusters)[1]):
                doc["betaViaHeights"] = beta
            docs.append(doc)
        out["reference"]["measure256"].append(docs)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite references.json from reasm's outputs")
    args = parser.parse_args(argv)
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        lib = run.import_reasm()
        if args.record:
            recorded = replay(lib, workdir)["library"]
            with open(REFERENCES, "w", encoding="utf-8") as handle:
                json.dump({"seed": SEED, "jobs": RECORDED_JOBS, "commit": run.git_commit(), **recorded},
                          handle, indent=1)
                handle.write("\n")
            return 0
        check_benchmark_json()
        with open(REFERENCES, encoding="utf-8") as handle:
            recorded = json.load(handle)
        outputs = replay(lib, workdir)
        for workload in ("dp16", "greedy64", "measure256"):
            check(outputs["reference"][workload] == recorded[workload],
                  f"reference implementation disagrees with the recorded {workload} outputs")
        # The greedy may legitimately improve; its quality is greedy_beta_ratio.
        for workload in ("dp16", "measure256"):
            check(outputs["library"][workload] == recorded[workload],
                  f"reasm disagrees with the recorded {workload} outputs")
        check_counterexamples(lib)
        check_restore()
        check_workloads(workdir)
        bare = os.path.join(workdir, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        child = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "dp16", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180, check=False)
        check(child.returncode != 0 and '"correct"' not in child.stdout,
              "run.py must fail without a result when src/ is missing")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
