"""The table-driven subset DP against a slow, obviously correct reference.

The reference is the straightforward memoized recursion over
itertools.combinations halvings with boundary_size per cluster. Both must
return the same optimum and the byte-identical tree, including on tie-heavy
graphs (edgeless, complete, cycle) where many halvings share the optimum and
only the tie-break decides the tree.

The walk over optimal halvings (optimal_balanced_trees) is checked against
full enumeration with measures on every tree: the optimal beta trees in
enumeration order, and for alpha a subset with the same root splits. Lemma
3's check reads those root splits straight off the root's sorted optimal
halvings; on augmented graphs it must check exactly the walk's distinct
root splits, in walk order.
"""

import itertools
import random

import pytest

from reasm import reductions
from reasm.generators import planted_clique_cover, planted_independent_quarters, random_connected_graph
from reasm.graphs import (
    Graph,
    boundary_size,
    bridge_count,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    mask_of,
    vertices_of,
)
from reasm.reductions import augment
from reasm.solvers import all_balanced_trees, optimal_balanced_trees, optimize_balanced
from reasm.trees import ReassemblingTree, measures

PAIRS = [("alpha", "min"), ("alpha", "max"), ("beta", "min"), ("beta", "max")]


def reference_halvings(mask):
    bits = vertices_of(mask)
    pivot = 1 << bits[0]
    for combo in itertools.combinations(bits[1:], len(bits) // 2 - 1):
        a = pivot | mask_of(combo)
        yield a, mask ^ a


def reference_optimize(g, objective, sense):
    pick = min if sense == "min" else max
    summing = objective == "beta"
    val = {}

    def solve(mask):
        if mask not in val:
            degree = boundary_size(g, mask)
            if mask & (mask - 1) == 0:
                val[mask] = degree
            else:
                inner = pick(
                    solve(a) + solve(b) if summing else max(solve(a), solve(b))
                    for a, b in reference_halvings(mask)
                )
                val[mask] = degree + inner if summing else max(degree, inner)
        return val[mask]

    clusters = []

    def rebuild(mask):
        clusters.append(mask)
        if mask & (mask - 1) == 0:
            return
        best = None
        for a, b in reference_halvings(mask):
            inner = val[a] + val[b] if summing else max(val[a], val[b])
            key = (inner if sense == "min" else -inner, min(a, b))
            if best is None or key < best[0]:
                best = (key, a, b)
        rebuild(best[1])
        rebuild(best[2])

    value = solve(g.full_mask)
    rebuild(g.full_mask)
    return ReassemblingTree.from_masks(g.n, clusters), value


def gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


def assert_same(g, objective, sense):
    tree, value = optimize_balanced(g, objective, sense)
    ref_tree, ref_value = reference_optimize(g, objective, sense)
    assert value == ref_value
    assert tree.to_lists() == ref_tree.to_lists()


SMALL = {"edgeless1": edgeless_graph(1), "edgeless2": edgeless_graph(2), "complete2": complete_graph(2)}
for n in (4, 8):
    SMALL.update({
        f"edgeless{n}": edgeless_graph(n),
        f"complete{n}": complete_graph(n),
        f"cycle{n}": cycle_graph(n),
        f"sparse{n}": gnp(n, 0.3, n),
        f"dense{n}": gnp(n, 0.6, 10 + n),
    })


@pytest.mark.parametrize("objective,sense", PAIRS)
@pytest.mark.parametrize("g", SMALL.values(), ids=SMALL.keys())
def test_matches_reference_up_to_eight_vertices(g, objective, sense):
    assert_same(g, objective, sense)


# Every balanced tree of an edgeless or complete graph has the same alpha and
# the same beta, so the returned tree is decided by the tie-break alone and is
# the same for all four pairs; two pairs each keep the n=16 part quick.
SIXTEEN = (
    [("cycle16", cycle_graph(16), o, s) for o, s in PAIRS]
    + [("gnp16", gnp(16, 0.4, 2016), o, s) for o, s in PAIRS]
    + [("edgeless16", edgeless_graph(16), "alpha", "min"), ("edgeless16", edgeless_graph(16), "beta", "max")]
    + [("complete16", complete_graph(16), "alpha", "max"), ("complete16", complete_graph(16), "beta", "min")]
)


@pytest.mark.parametrize(
    "g,objective,sense",
    [case[1:] for case in SIXTEEN],
    ids=[f"{name}-{o}-{s}" for name, _, o, s in SIXTEEN],
)
def test_matches_reference_on_sixteen_vertices(g, objective, sense):
    assert_same(g, objective, sense)


# -- the optimal-tree walk against enumeration ------------------------------------

WALKED = {f"gnp{n}-{seed}": gnp(n, 0.5, seed) for n in (1, 2, 4) for seed in range(3)}
WALKED.update({f"gnp8-{p}-{seed}": gnp(8, p, 100 + seed) for p in (0.3, 0.5, 0.7) for seed in range(12)})
WALKED.update({f"quarters8-{seed}": planted_independent_quarters(8, random.Random(seed))[0] for seed in range(12)})
WALKED.update({f"cover8-{seed}": planted_clique_cover(8, random.Random(seed))[0] for seed in range(12)})
WALKED.update({"edgeless8": edgeless_graph(8), "complete8": complete_graph(8)})


def root_splits(trees):
    """The distinct root splits of trees, in order of first appearance."""
    return list(dict.fromkeys(t.children_of(t.root) for t in trees if t.n > 1))


@pytest.mark.parametrize("g", WALKED.values(), ids=WALKED.keys())
def test_walk_matches_enumeration(g):
    trees = all_balanced_trees(g.n)
    pairs = [measures(g, t) for t in trees]
    for objective, sense in PAIRS:
        values = [getattr(pair, objective) for pair in pairs]
        best = (min if sense == "min" else max)(values)
        optimal = [t for t, value in zip(trees, values) if value == best]
        walked = list(optimal_balanced_trees(g, objective, sense))
        if objective == "beta":
            assert walked == optimal
        else:
            assert set(walked) <= set(optimal)
            assert root_splits(walked) == root_splits(optimal)


LEMMA3_BASES = {
    f"n{n}-seed{seed}": random_connected_graph(n, random.Random(seed))
    for n in (2, 4)
    for seed in range(20)
}


@pytest.mark.parametrize("g", LEMMA3_BASES.values(), ids=LEMMA3_BASES.keys())
def test_lemma3_checks_the_walks_root_splits_in_order(g, monkeypatch):
    big = augment(g).graph
    checked = []

    def spy(h, a, b):
        if h.n == big.n:
            checked.append((a, b))
        return bridge_count(h, a, b)

    monkeypatch.setattr(reductions, "bridge_count", spy)
    assert reductions._check_lemma3(g) is None
    assert checked == root_splits(optimal_balanced_trees(big, "alpha", "min"))
