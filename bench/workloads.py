"""The four benchmark workloads: input generation, the timed job, and its check.

Every input comes from the bench's own generators, seeded by
(workload, workload seed, job index), so the program only ever sees the
generated graphs and trees and no job repeats within a run. ``prepare`` and
``check`` run outside the timed region; ``execute`` is the timed job: one or
more calls into a public entry point, either ``reasm.cli.main(argv)`` with
stdout and stderr captured or a library function.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import reference as ref

# verify-lemma sizes per lemma: the CLI defaults at the commit that defined
# the benchmark, passed explicitly so a later change of default is visible.
LEMMA_N = {1: 6, 2: 6, 3: 4, 4: 8, 5: 8, 6: 8}
LEMMA_INSTANCES = 4


def gnp_edges(n, p, rng):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def planted_edges(n, rng, cliques, cross_p=0.5):
    """Four random blocks of n/4 vertices; blocks are cliques when cliques is
    true and independent sets otherwise, plus random cross-block edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    block = {v: i * 4 // n for i, v in enumerate(perm)}
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (cliques if block[u] == block[v] else rng.random() < cross_p)
    ]


def balanced_tree(n, rng):
    """Clusters of a random balanced tree: recursive random equal halving."""
    clusters = []

    def split(members):
        mask = 0
        for v in members:
            mask |= 1 << v
        clusters.append(mask)
        if len(members) > 1:
            rng.shuffle(members)
            half = len(members) // 2
            split(members[:half])
            split(members[half:])

    split(list(range(n)))
    return clusters


def arbitrary_tree(n, rng):
    """Clusters of a random-shape tree built by merging random active pairs."""
    active = [1 << v for v in range(n)]
    clusters = list(active)
    while len(active) > 1:
        i, j = sorted(rng.sample(range(len(active)), 2))
        merged = active[i] | active.pop(j)
        active[i] = merged
        clusters.append(merged)
    return clusters


def write_edges(path, n, edges):
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_tree(path, clusters):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([ref.bits(x) for x in clusters], handle, separators=(",", ":"))


def run_cli(cli, argv):
    """Call reasm.cli.main(argv) in-process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def cli_doc(result, what):
    """Parsed JSON stdout of a CLI call that must exit 0, or a problem string."""
    code, out, err = result
    if code != 0:
        return None, f"{what}: exit {code}: {err.strip()[:200]}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, f"{what}: stdout is not JSON: {out[:200]!r}"


class Workload:
    """Base class. ``lib`` is a namespace holding the imported reasm modules;
    the runner rebinds it after every fresh import."""

    name = ""
    trace_jobs = 0
    rotation = 1  # jobs in one cycle of the workload's job kinds

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.lib = None
        self.greedy_beta = 0
        self.greedy_ref_beta = 0
        self.findings = []

    def rng(self, index):
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def path(self, index, suffix):
        return os.path.join(self.workdir, f"{self.name}-{index}{suffix}")

    def prepare(self, index):
        raise NotImplementedError

    def execute(self, job):
        raise NotImplementedError

    def check(self, job, output):
        """Problems found in one job's output (empty when correct)."""
        raise NotImplementedError

    def score_greedy(self, tree, value, n, adj, objective):
        """Check a greedy result (tree valid, balanced, value is its measure)
        and add its beta and the reference greedy's beta to the run totals."""
        clusters = list(tree.clusters)
        problems, height = ref.tree_shape(n, clusters)
        if problems:
            return [f"greedy tree: {p}" for p in problems]
        if not ref.is_balanced_height(n, height):
            return [f"greedy tree has height {height}, not balanced"]
        alpha, beta = ref.measures(adj, n, clusters)
        expected = alpha if objective == "alpha" else beta
        if value != expected:
            return [f"greedy reports {objective} {value}, its tree measures {expected}"]
        self.greedy_beta += beta
        self.greedy_ref_beta += ref.greedy_beta(adj, n)
        return []

    def greedy_probe(self, n, edges, objective="beta"):
        """Untimed library greedy call, scored against the reference greedy.
        Returns (problems, value)."""
        g = self.lib.graphs.Graph(n, frozenset(edges))
        tree, value = self.lib.solvers.greedy_balanced_heuristic(g, objective)
        return self.score_greedy(tree, value, n, ref.adjacency(n, edges), objective), value


class DP16(Workload):
    """reasm optimize on n=16 graphs, rotating objective/sense over families."""

    name = "dp16"
    trace_jobs = 6
    rotation = 12
    KINDS = (("alpha", "min"), ("beta", "min"), ("beta", "max"))
    FAMILIES = ("gnp-0.5", "gnp-0.2", "planted-cover", "planted-quarters")

    def prepare(self, index):
        rng = self.rng(index)
        objective, sense = self.KINDS[index % 3]
        family = self.FAMILIES[(index // 3) % 4]
        if family.startswith("gnp"):
            edges = gnp_edges(16, float(family[4:]), rng)
        else:
            edges = planted_edges(16, rng, cliques=family == "planted-cover")
        path = self.path(index, ".edges")
        write_edges(path, 16, edges)
        argv = ["optimize", path, "--objective", objective, "--sense", sense]
        return {"edges": edges, "objective": objective, "sense": sense, "argv": argv}

    def execute(self, job):
        return run_cli(self.lib.cli, job["argv"])

    def check(self, job, output):
        doc, problem = cli_doc(output, "optimize")
        if problem:
            return [problem]
        objective, sense = job["objective"], job["sense"]
        adj = ref.adjacency(16, job["edges"])
        try:
            clusters = [sum(1 << v for v in c) for c in doc["tree"]]
            value = doc["value"]
        except (KeyError, TypeError):
            return [f"optimize: unexpected document {doc!r:.200}"]
        problems, height = ref.tree_shape(16, clusters)
        if problems:
            return problems
        if not ref.is_balanced_height(16, height):
            return [f"optimize returned a tree of height {height}"]
        alpha, beta = ref.measures(adj, 16, clusters)
        if value != (alpha if objective == "alpha" else beta):
            return [f"reported {objective} {value} but the tree measures {alpha}/{beta}"]
        expected = ref.optimum(adj, 16, objective, sense)
        if value != expected:
            return [f"{objective}-{sense} optimum is {expected}, got {value}"]
        problems, bound = self.greedy_probe(16, job["edges"], objective)
        if not problems and (value > bound if sense == "min" else value < bound):
            problems = [f"{objective}-{sense} {value} is on the wrong side of greedy {bound}"]
        return problems


class Lemmas(Workload):
    """One sweep of reasm verify-lemma 1..6 with a fresh seed per sweep."""

    name = "lemmas"
    trace_jobs = 4

    def prepare(self, index):
        rng = self.rng(index)
        seed = rng.randrange(1, 2**31)
        argvs = [
            ["verify-lemma", str(lemma), "--instances", str(LEMMA_INSTANCES),
             "--n", str(n), "--seed", str(seed)]
            for lemma, n in LEMMA_N.items()
        ]
        return {"argvs": argvs, "probe": gnp_edges(16, 0.3, rng)}

    def execute(self, job):
        return [run_cli(self.lib.cli, argv) for argv in job["argvs"]]

    def check(self, job, output):
        problems = []
        for lemma, argv, result in zip(LEMMA_N, job["argvs"], output):
            code, out, _ = result
            if code == 1 and lemma in COUNTEREXAMPLE_CLAIMS and confirmed_counterexample(lemma, out):
                self.findings.append("counterexample: reasm " + " ".join(argv))
                continue
            doc, problem = cli_doc(result, f"verify-lemma {lemma}")
            if problem:
                problems.append(problem)
            elif doc != {"lemma": lemma, "tried": LEMMA_INSTANCES, "passed": True}:
                problems.append(f"verify-lemma {lemma}: {doc!r:.200}")
        if not problems:
            problems = self.greedy_probe(16, job["probe"])[0]
        return problems


# Lemmas 5 and 6 claim that every beta-maximal (5) or beta-minimal (6)
# balanced tree of a graph with four independent (5) or complete (6)
# quarters has those quarters as grandchildren. On about 1 in 100-300
# random n=8 instances, verify-lemma finds an optimal tree that ties with a
# conforming one but has a non-conforming grandchild, and exits 1. Such a
# report is a correct output when every part of it checks out independently.
COUNTEREXAMPLE_CLAIMS = {5: (ref.is_independent, "max"), 6: (ref.is_clique, "min")}


def confirmed_counterexample(lemma, stdout):
    """True when a failed verify-lemma 5/6 report is a genuine counterexample:
    the graph meets the hypothesis, the tree is a balanced beta-optimal tree,
    and one of its grandchildren breaks the conclusion."""
    accept, sense = COUNTEREXAMPLE_CLAIMS[lemma]
    try:
        doc = json.loads(stdout)
        example = doc["counterexample"]
        n, edges = ref.parse_edges(example["graph"])
        clusters = [sum(1 << v for v in cluster) for cluster in example["tree"]]
    except (ValueError, KeyError, TypeError, IndexError):
        return False
    if doc.get("lemma") != lemma or doc.get("passed") is not False or n != LEMMA_N[lemma]:
        return False
    adj = ref.adjacency(n, edges)
    problems, height = ref.tree_shape(n, clusters)
    if problems or not ref.is_balanced_height(n, height):
        return False
    if not ref.has_equal_blocks(adj, n, accept):
        return False
    if ref.measures(adj, n, clusters)[1] != ref.optimum(adj, n, "beta", sense):
        return False
    return any(not accept(adj, x) for x in clusters if x.bit_count() == n // 4)


class Greedy64(Workload):
    """solvers.greedy_balanced_heuristic(g, "beta") on G(64, p)."""

    name = "greedy64"
    trace_jobs = 24
    rotation = 3
    DENSITIES = (0.1, 0.3, 0.5)

    def prepare(self, index):
        edges = gnp_edges(64, self.DENSITIES[index % 3], self.rng(index))
        return {"edges": edges, "graph": self.lib.graphs.Graph(64, frozenset(edges))}

    def execute(self, job):
        return self.lib.solvers.greedy_balanced_heuristic(job["graph"], "beta")

    def check(self, job, output):
        tree, value = output
        return self.score_greedy(tree, value, 64, ref.adjacency(64, job["edges"]), "beta")


class Measure256(Workload):
    """reasm measure on G(256, 0.1) with a balanced and an arbitrary tree."""

    name = "measure256"
    trace_jobs = 24

    def prepare(self, index):
        rng = self.rng(index)
        edges = gnp_edges(256, 0.1, rng)
        trees = {"balanced": balanced_tree(256, rng), "arbitrary": arbitrary_tree(256, rng)}
        graph_path = self.path(index, ".edges")
        write_edges(graph_path, 256, edges)
        argvs = []
        for shape, clusters in trees.items():
            tree_path = self.path(index, f"-{shape}.json")
            write_tree(tree_path, clusters)
            argvs.append(["measure", graph_path, tree_path])
        return {"edges": edges, "trees": trees, "argvs": argvs, "probe": gnp_edges(16, 0.3, rng)}

    def execute(self, job):
        return [run_cli(self.lib.cli, argv) for argv in job["argvs"]]

    def check(self, job, output):
        adj = ref.adjacency(256, job["edges"])
        problems = []
        for (shape, clusters), result in zip(job["trees"].items(), output):
            doc, problem = cli_doc(result, f"measure ({shape} tree)")
            if problem:
                problems.append(problem)
                continue
            alpha, beta = ref.measures(adj, 256, clusters)
            expected = {"alpha": alpha, "beta": beta}
            if ref.is_balanced_height(256, ref.tree_shape(256, clusters)[1]):
                expected["betaViaHeights"] = beta
            if doc != expected:
                problems.append(f"measure ({shape} tree): {doc!r:.200}, expected {expected}")
        if not problems:
            problems = self.greedy_probe(16, job["probe"])[0]
        return problems


WORKLOADS = {cls.name: cls for cls in (DP16, Lemmas, Greedy64, Measure256)}
