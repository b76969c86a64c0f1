"""The lemma oracles against slow, obviously correct references.

min_bisections grows block a vertex by vertex and carries its cut along; the
reference calls boundary_size once per split, in itertools.combinations
order. qp_objective sums per-vertex-pair tables compiled from the terms;
the reference tests every term against the assignment. measures and
beta_via_edge_heights sum boundaries and bridges inline; the references call
boundary_size per cluster and walk each edge's leaf-to-root path. Values,
winners and their order, and error messages must all be identical.
"""

import itertools
import random

import pytest

from reasm.generators import random_balanced_tree, random_graph, random_tree
from reasm.graphs import boundary_size, complete_graph, cycle_graph, edgeless_graph
from reasm.oracles import Bisection, min_bisections
from reasm.reductions import augment
from reasm.solvers import (
    SIBLING_CLASSES,
    QPModel,
    QPValue,
    encode_beta_max_qp,
    iter_assignments,
    maximize_qp,
    qp_objective,
)
from reasm.trees import beta_via_edge_heights, measures


def reference_min_bisections(g):
    n = g.n
    best = None
    winners = []
    for combo in itertools.combinations([1 << v for v in range(1, n)], n // 2 - 1):
        a = 1 | sum(combo)
        cut = boundary_size(g, a)
        if best is None or cut < best:
            best = cut
            winners = [a]
        elif cut == best:
            winners.append(a)
    return best, [Bisection(a, g.full_mask ^ a) for a in winners]


def reference_qp_objective(model, block_of):
    blocks = tuple(block_of)
    if len(blocks) != model.n:
        raise ValueError(f"assignment must cover all {model.n} vertices")
    if any(k not in (1, 2, 3, 4) for k in blocks):
        raise ValueError("assignment values must be block ids 1..4")
    for k in range(1, 5):
        size = sum(1 for b in blocks if b == k)
        if size != model.block_size:
            raise ValueError(
                f"constraint (ii) violated: block {k} holds {size} vertices, "
                f"expected {model.block_size}"
            )
    theta = theta1 = theta2 = 0
    for i, k, j, l, c in model.terms:
        bi, bj = blocks[i], blocks[j]
        if not ((bi == k and bj == l) or (k != l and bi == l and bj == k)):
            continue
        theta += c
        if (k, l) in SIBLING_CLASSES:
            theta1 += 1
        elif k == l:
            theta2 += 1
    m = model.m
    if theta != 2 * model.p * m - 2 * theta1 - 4 * theta2:
        raise ArithmeticError("objective decomposition identity failed")
    return QPValue(theta=theta, m=m, theta1=theta1, theta2=theta2)


def reference_maximize_qp(model):
    best = None
    winners = []
    for assign in iter_assignments(model.n):
        value = reference_qp_objective(model, assign)
        if best is None or value.theta > best.theta:
            best = value
            winners = [assign]
        elif value.theta == best.theta:
            winners.append(assign)
    return best, winners


def reference_beta_via_edge_heights(g, t):
    total = 0
    for u, v in g.edges:
        for x in t.leaf_path(u):
            if x >> v & 1:
                total += t.cluster_height(x)
                break
    return 2 * total


def seeded_graph(n, seed, p):
    return random_graph(n, random.Random(seed), p)


# -- min_bisections -----------------------------------------------------------------


BISECTION_GRAPHS = [
    pytest.param(seeded_graph(n, 1000 * n + k, p), id=f"gnp-n{n}-p{p}-s{k}")
    for n in range(2, 17, 2)
    for k, p in enumerate((0.2, 0.5, 0.8))
] + [
    pytest.param(augment(seeded_graph(n, 500 + n, 0.5)).graph, id=f"augmented-n{n}")
    for n in (2, 4, 6, 8)
] + [
    pytest.param(edgeless_graph(16), id="edgeless16"),
    pytest.param(complete_graph(16), id="complete16"),
    pytest.param(cycle_graph(14), id="cycle14"),
]


@pytest.mark.parametrize("g", BISECTION_GRAPHS)
def test_min_bisections_matches_reference(g):
    value, optima = min_bisections(g)
    ref_value, ref_optima = reference_min_bisections(g)
    assert value == ref_value
    assert optima == ref_optima


def test_min_bisections_order_is_lexicographic_in_member_ids():
    # Block a runs {0,1,2,3}, {0,1,2,4}, {0,1,2,5}, {0,1,2,6}, {0,1,2,7},
    # {0,1,3,4}, ...: not increasing bitmask order, where 27 = {0,1,3,4}
    # would come before 39 = {0,1,2,5}. `oracle minbisect` prints this order.
    _, optima = min_bisections(edgeless_graph(8))
    assert [b.a for b in optima[:6]] == [15, 23, 39, 71, 135, 27]
    members = [tuple(b.to_lists()[0]) for b in optima]
    assert members == sorted(members)
    assert len(optima) == 35


# -- QP -----------------------------------------------------------------------------


QP_GRAPHS = [
    pytest.param(seeded_graph(8, 8000 + k, p), id=f"gnp8-p{p}") for k, p in enumerate((0.2, 0.5, 0.8))
] + [
    pytest.param(edgeless_graph(8), id="edgeless8"),
    pytest.param(complete_graph(8), id="complete8"),
    pytest.param(seeded_graph(4, 4000, 0.5), id="gnp4"),
]


@pytest.mark.parametrize("g", QP_GRAPHS)
def test_qp_objective_matches_reference_on_every_assignment(g):
    model = encode_beta_max_qp(g)
    for assign in iter_assignments(g.n):
        assert qp_objective(model, assign) == reference_qp_objective(model, assign)


@pytest.mark.parametrize("g", QP_GRAPHS)
def test_maximize_qp_matches_reference(g):
    model = encode_beta_max_qp(g)
    assert maximize_qp(model) == reference_maximize_qp(model)


def test_qp_objective_fails_the_identity_like_reference():
    # Terms that encode_beta_max_qp never emits: repeated and reversed vertex
    # pairs, classes with k > l, block ids outside 1..4 and arbitrary
    # coefficients. The identity fails on these, and both must say so.
    rng = random.Random(7)
    terms = []
    for _ in range(30):
        i, j = rng.sample(range(8), 2)
        terms.append((i, rng.randint(0, 5), j, rng.randint(0, 5), rng.randint(-3, 9)))
    model = QPModel(n=8, p=3, block_size=2, terms=tuple(terms))
    for assign in itertools.islice(iter_assignments(8), 0, None, 7):
        with pytest.raises(ArithmeticError, match="identity failed"):
            reference_qp_objective(model, assign)
        with pytest.raises(ArithmeticError, match="identity failed"):
            qp_objective(model, assign)


def test_qp_objective_matches_reference_on_rewritten_terms():
    # The same objective written differently: shuffled terms, and every
    # same-block and cross term stated from its other endpoint, (j, l, i, k).
    # A cross class then reads (l, k) with l > k; it counts toward neither
    # theta1 nor theta2 either way. Values, identity included, must not move.
    g = seeded_graph(8, 44, 0.5)
    model = encode_beta_max_qp(g)
    terms = [
        (j, l, i, k, c) if (k, l) not in SIBLING_CLASSES else (i, k, j, l, c)
        for i, k, j, l, c in model.terms
    ]
    random.Random(8).shuffle(terms)
    rewritten = QPModel(n=8, p=model.p, block_size=2, terms=tuple(terms))
    for assign in iter_assignments(8):
        expected = reference_qp_objective(model, assign)
        assert reference_qp_objective(rewritten, assign) == expected
        assert qp_objective(rewritten, assign) == expected


def test_qp_objective_accepts_the_same_block_id_values():
    model = encode_beta_max_qp(seeded_graph(8, 42, 0.5))
    for assign in [(1.0, 1, 2, 2, 3, 3, 4, 4), (True, 1, 2, 2, 3, 3, 4, 4.0)]:
        assert qp_objective(model, assign) == reference_qp_objective(model, assign)


BAD_ASSIGNMENTS = [
    (1, 1, 2, 2, 3, 3, 4),
    (1, 1, 2, 2, 3, 3, 4, 4, 1),
    (0, 1, 2, 2, 3, 3, 4, 4),
    (1, 1, 2, 2, 3, 3, 4, 5),
    (1, 1, 2, 2, 3, 3, 4, "4"),
    (1, 1, 2, 2, 3, 3, 4, [4]),
    (1, 1, 2, 2, 3, 3, 4, 4.5),
    (1, 1, 1, 2, 3, 3, 4, 4),
    (1, 1, 2, 2, 2, 3, 4, 4),
    (1, 1, 1, 1, 1, 1, 1, 1),
    (4, 4, 4, 4, 3, 3, 3, 3),
]


@pytest.mark.parametrize("assign", BAD_ASSIGNMENTS)
def test_qp_objective_rejects_like_reference(assign):
    model = encode_beta_max_qp(seeded_graph(8, 43, 0.5))
    with pytest.raises(ValueError) as expected:
        reference_qp_objective(model, assign)
    with pytest.raises(ValueError) as got:
        qp_objective(model, assign)
    assert str(got.value) == str(expected.value)


# -- measures and the edge-height identity -------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 16, 33, 64])
def test_measures_match_boundary_size_sums(n):
    rng = random.Random(9000 + n)
    for p in (0.0, 0.3, 0.7, 1.0):
        g = random_graph(n, rng, p)
        trees = [random_tree(n, rng)]
        if n & (n - 1) == 0:
            trees.append(random_balanced_tree(n, rng))
        for t in trees:
            degs = [boundary_size(g, x) for x in t.clusters]
            pair = measures(g, t)
            assert (pair.alpha, pair.beta) == (max(degs), sum(degs))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256])
def test_beta_via_edge_heights_matches_the_leaf_path_walk(n):
    rng = random.Random(7000 + n)
    for p in (0.0, 0.1, 0.5, 1.0):
        g = random_graph(n, rng, p)
        t = random_balanced_tree(n, rng)
        assert beta_via_edge_heights(g, t) == reference_beta_via_edge_heights(g, t)
        assert beta_via_edge_heights(g, t) == measures(g, t).beta

