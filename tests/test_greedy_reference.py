"""The gain-based greedy bisection against a slow, obviously correct reference.

The reference is the plain hill climber: on each pass it recounts the cut
with bridge_count for every candidate swap and keeps the first swap, in
(u, v) order, that lowers the cut most. Both must return the same value and
the byte-identical tree, including on edgeless and complete graphs, where
every swap ties and only the tie-break decides the tree.
"""

import random

import pytest

from reasm.graphs import Graph, bridge_count, complete_graph, edgeless_graph, mask_of, vertices_of
from reasm.solvers import _halvings, greedy_balanced_heuristic
from reasm.trees import ReassemblingTree, measures


def reference_greedy(g, objective):
    clusters = []

    def split(mask):
        clusters.append(mask)
        size = mask.bit_count()
        if size == 1:
            return
        if size <= 4:
            a, b = min(_halvings(mask), key=lambda ab: (bridge_count(g, *ab), min(ab)))
        else:
            bits = vertices_of(mask)
            a = mask_of(bits[: len(bits) // 2])
            cut = bridge_count(g, a, mask ^ a)
            while True:
                best_cut, best_swap = cut, None
                for u in vertices_of(a):
                    for v in vertices_of(mask ^ a):
                        a2 = (a ^ (1 << u)) | (1 << v)
                        c2 = bridge_count(g, a2, mask ^ a2)
                        if c2 < best_cut:
                            best_cut, best_swap = c2, (u, v)
                if best_swap is None:
                    break
                u, v = best_swap
                a = (a ^ (1 << u)) | (1 << v)
                cut = best_cut
            b = mask ^ a
        split(a)
        split(b)

    split(g.full_mask)
    tree = ReassemblingTree.from_masks(g.n, clusters)
    pair = measures(g, tree)
    return tree, (pair.alpha if objective == "alpha" else pair.beta)


def gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


GRAPHS = {}
for n in (8, 16, 32, 64):
    GRAPHS[f"edgeless{n}"] = edgeless_graph(n)
    GRAPHS[f"complete{n}"] = complete_graph(n)
    for p in (0.1, 0.3, 0.6):
        GRAPHS[f"gnp{n}-{p}"] = gnp(n, p, 1000 * n + int(10 * p))


@pytest.mark.parametrize("objective", ["alpha", "beta"])
@pytest.mark.parametrize("g", GRAPHS.values(), ids=GRAPHS.keys())
def test_matches_reference_greedy(g, objective):
    tree, value = greedy_balanced_heuristic(g, objective)
    ref_tree, ref_value = reference_greedy(g, objective)
    assert value == ref_value
    assert tree.to_lists() == ref_tree.to_lists()
