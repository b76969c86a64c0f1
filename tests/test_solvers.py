import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reasm.generators import planted_independent_quarters
from reasm.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    mask_of,
)
from reasm.solvers import (
    QPModel,
    QPValue,
    all_balanced_trees,
    balanced_tree_count,
    beta_complete_closed_form,
    encode_beta_max_qp,
    enumerate_balanced_trees,
    greedy_balanced_heuristic,
    iter_assignments,
    maximize_qp,
    optimize_balanced,
    qp_objective,
)
from reasm.trees import ReassemblingTree, measures, tree_violations


def random_pow2_graph(n, seed, p=0.5):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, frozenset(edges))


@st.composite
def pow2_graphs(draw, sizes=(2, 4, 8)):
    n = draw(st.sampled_from(sizes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, frozenset(edges))


# -- exact optimization -------------------------------------------------------------


def test_cycle4_beta_min():
    tree, value = optimize_balanced(cycle_graph(4), "beta", "min")
    assert value == 12
    assert tree.to_lists() == [[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3]]


def test_cycle4_alpha_min():
    _, value = optimize_balanced(cycle_graph(4), "alpha", "min")
    assert value == 2


def test_cycle8_beta_min_pairs_consecutive_vertices():
    tree, value = optimize_balanced(cycle_graph(8), "beta", "min")
    assert value == 28
    quads = [x for x in tree.clusters if x.bit_count() == 4]
    pairs = [x for x in tree.clusters if x.bit_count() == 2]
    assert quads == [mask_of([0, 1, 2, 3]), mask_of([4, 5, 6, 7])]
    assert pairs == [mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5]), mask_of([6, 7])]


def test_clique4_beta_is_tree_independent():
    _, low = optimize_balanced(complete_graph(4), "beta", "min")
    _, high = optimize_balanced(complete_graph(4), "beta", "max")
    assert low == high == 20


def test_cycle4_beta_max_pairs_antipodal_vertices():
    tree, value = optimize_balanced(cycle_graph(4), "beta", "max")
    assert value == 16
    assert mask_of([0, 2]) in tree


def test_optimize_guards():
    with pytest.raises(ValueError, match="objective"):
        optimize_balanced(cycle_graph(4), "gamma", "min")
    with pytest.raises(ValueError, match="sense"):
        optimize_balanced(cycle_graph(4), "beta", "least")
    with pytest.raises(ValueError, match="power-of-two"):
        optimize_balanced(cycle_graph(6))
    with pytest.raises(ValueError, match="capped"):
        optimize_balanced(edgeless_graph(32))


@given(pow2_graphs(), st.sampled_from(["alpha", "beta"]), st.sampled_from(["min", "max"]))
@settings(max_examples=40, deadline=None)
def test_returned_tree_attains_the_reported_optimum(g, objective, sense):
    tree, value = optimize_balanced(g, objective, sense)
    assert tree_violations(g.n, tree.clusters) == []
    assert tree.is_balanced()
    pair = measures(g, tree)
    assert (pair.alpha if objective == "alpha" else pair.beta) == value


@given(pow2_graphs(sizes=(2, 4)), st.sampled_from(["alpha", "beta"]), st.sampled_from(["min", "max"]))
@settings(max_examples=40, deadline=None)
def test_dp_matches_enumeration_on_small_graphs(g, objective, sense):
    _, value = optimize_balanced(g, objective, sense)
    pick = min if sense == "min" else max
    values = [
        getattr(measures(g, t), objective) for t in enumerate_balanced_trees(g.n)
    ]
    assert value == pick(values)


def test_dp_matches_enumeration_on_eight_vertices():
    for seed in range(6):
        g = random_pow2_graph(8, seed)
        betas = [measures(g, t).beta for t in all_balanced_trees(8)]
        alphas = [measures(g, t).alpha for t in all_balanced_trees(8)]
        assert optimize_balanced(g, "beta", "min")[1] == min(betas)
        assert optimize_balanced(g, "beta", "max")[1] == max(betas)
        assert optimize_balanced(g, "alpha", "min")[1] == min(alphas)
        assert optimize_balanced(g, "alpha", "max")[1] == max(alphas)


def test_optimization_is_deterministic():
    g = random_pow2_graph(8, 99)
    first = optimize_balanced(g, "beta", "min")
    second = optimize_balanced(g, "beta", "min")
    assert first[0] == second[0] and first[1] == second[1]


# -- enumeration ---------------------------------------------------------------------


def test_enumeration_counts():
    assert len(list(enumerate_balanced_trees(2))) == 1
    assert len(list(enumerate_balanced_trees(4))) == 3
    trees = list(enumerate_balanced_trees(8))
    assert len(trees) == 315
    assert len(set(trees)) == 315
    assert all(t.is_balanced() for t in trees)


def test_enumeration_guards():
    with pytest.raises(ValueError, match="capped"):
        next(enumerate_balanced_trees(16))
    with pytest.raises(ValueError, match="power-of-two"):
        next(enumerate_balanced_trees(6))


def test_balanced_tree_count_closed_form():
    assert [balanced_tree_count(n) for n in (1, 2, 4, 8)] == [1, 1, 3, 315]
    assert balanced_tree_count(16) == 638_512_875


def test_complete_graph_closed_form():
    assert beta_complete_closed_form(2) == 2
    assert beta_complete_closed_form(4) == 20
    assert beta_complete_closed_form(8) == 136
    with pytest.raises(ValueError):
        beta_complete_closed_form(6)
    with pytest.raises(ValueError):
        beta_complete_closed_form(1)


def test_every_balanced_tree_of_a_clique_hits_the_closed_form():
    for n in (2, 4):
        g = complete_graph(n)
        expected = beta_complete_closed_form(n)
        for t in enumerate_balanced_trees(n):
            assert measures(g, t).beta == expected


# -- quadratic program ------------------------------------------------------------------


def test_qp_encoding_structure_for_cycle4():
    model = encode_beta_max_qp(cycle_graph(4))
    assert (model.n, model.p, model.block_size) == (4, 2, 1)
    assert model.m == 4
    assert len(model.terms) == 40  # ten block classes per edge
    per_edge = model.terms[:10]
    assert {(k, l) for _, k, _, l, _ in per_edge} == {
        (1, 3), (1, 4), (2, 3), (2, 4), (1, 2), (3, 4), (1, 1), (2, 2), (3, 3), (4, 4),
    }
    coeff_of = {(k, l): c for _, k, _, l, c in per_edge}
    assert all(coeff_of[kl] == 4 for kl in ((1, 3), (1, 4), (2, 3), (2, 4)))
    assert all(coeff_of[kl] == 2 for kl in ((1, 2), (3, 4)))
    assert all(coeff_of[kl] == 0 for kl in ((1, 1), (2, 2), (3, 3), (4, 4)))
    edges_in_order = [(i, j) for i, _, j, _, _ in model.terms[::10]]
    assert edges_in_order == cycle_graph(4).sorted_edges()


def test_qp_encoding_guards_and_degenerate_input():
    with pytest.raises(ValueError, match="n >= 4"):
        encode_beta_max_qp(complete_graph(2))
    with pytest.raises(ValueError, match="power-of-two"):
        encode_beta_max_qp(cycle_graph(6))
    empty = encode_beta_max_qp(edgeless_graph(8))
    assert empty.terms == () and empty.block_size == 2


def test_qp_json_document_shape():
    doc = encode_beta_max_qp(cycle_graph(4)).to_json_dict()
    assert list(doc) == ["n", "p", "variables", "terms", "constraints"]
    assert len(doc["variables"]) == 16
    assert doc["variables"][:4] == ["x[0][1]", "x[0][2]", "x[0][3]", "x[0][4]"]
    assert doc["constraints"] == {
        "binary": "x[i][k] in {0, 1}",
        "blockSize": 1,
        "blocksPerVertex": 1,
    }
    assert all(len(term) == 5 for term in doc["terms"])


def test_qp_objective_frozen_cases():
    c4 = encode_beta_max_qp(cycle_graph(4))
    value = qp_objective(c4, (1, 2, 3, 4))
    assert value == QPValue(theta=12, m=4, theta1=2, theta2=0)
    k4 = encode_beta_max_qp(complete_graph(4))
    assert qp_objective(k4, (1, 2, 3, 4)) == QPValue(theta=20, m=6, theta1=2, theta2=0)


def test_qp_objective_rejects_bad_assignments():
    model = encode_beta_max_qp(cycle_graph(4))
    with pytest.raises(ValueError, match=r"constraint \(ii\)"):
        qp_objective(model, (1, 1, 1, 1))
    with pytest.raises(ValueError, match="cover all"):
        qp_objective(model, (1, 2, 3))
    with pytest.raises(ValueError, match="block ids"):
        qp_objective(model, (0, 1, 2, 3))


def test_assignment_enumeration_counts():
    assert len(list(iter_assignments(4))) == 24
    assignments = list(iter_assignments(8))
    assert len(assignments) == 2520
    assert all(
        [a.count(k) for k in (1, 2, 3, 4)] == [2, 2, 2, 2] for a in assignments
    )
    with pytest.raises(ValueError, match="divisible"):
        list(iter_assignments(6))


def _direct_theta_parts(g, blocks):
    """Recount theta1/theta2 straight from the edge list."""
    theta1 = theta2 = 0
    for u, v in g.edges:
        pair = frozenset((blocks[u], blocks[v]))
        if pair in (frozenset((1, 2)), frozenset((3, 4))):
            theta1 += 1
        elif len(pair) == 1:
            theta2 += 1
    return theta1, theta2


def test_identity_against_direct_recount_on_seeded_instances():
    rng = random.Random(271828)
    for _ in range(40):
        g = random_pow2_graph(8, rng.randrange(2**30), p=rng.choice([0.3, 0.5, 0.7]))
        model = encode_beta_max_qp(g)
        perm = list(range(8))
        rng.shuffle(perm)
        blocks = [0] * 8
        for slot, v in enumerate(perm):
            blocks[v] = slot // 2 + 1
        value = qp_objective(model, blocks)
        theta1, theta2 = _direct_theta_parts(g, blocks)
        assert (value.theta1, value.theta2) == (theta1, theta2)
        assert value.theta == 2 * model.p * g.m - 2 * theta1 - 4 * theta2


def test_qp_maximum_equals_beta_maximum_at_desk_scale():
    """With two levels below the root the same-block credit is exact: on
    every assignment the QP objective is beta of the balanced tree with
    children X1+X2 and X3+X4, and theta2 counts the edges inside the blocks.
    So the exhaustive assignment maximum must agree with the tree maximum.
    verify-lemma's lemma 5 check relies on this to skip the QP."""
    rng = random.Random(5)
    graphs = [random_pow2_graph(n, 1000 + seed) for n, seeds in ((4, range(8)), (8, range(4))) for seed in seeds]
    graphs += [planted_independent_quarters(n, rng)[0] for n in (4, 4, 8)]
    tree_of = {}
    for n in (4, 8):
        singletons = frozenset(1 << v for v in range(n))
        built = {}  # assignments that differ only in the order of blocks share a tree
        for assign in iter_assignments(n):
            x1, x2, x3, x4 = (mask_of(v for v in range(n) if assign[v] == k) for k in range(1, 5))
            clusters = singletons | {x1, x2, x3, x4, x1 | x2, x3 | x4, (1 << n) - 1}
            if clusters not in built:
                built[clusters] = ReassemblingTree.from_masks(n, clusters)
            tree_of[assign] = built[clusters]
    for g in graphs:
        model = encode_beta_max_qp(g)
        best, winners = maximize_qp(model)
        _, tree_max = optimize_balanced(g, "beta", "max")
        assert best.theta == tree_max
        assert winners
        residuals = []
        for assign in iter_assignments(g.n):
            value = qp_objective(model, assign)
            residuals.append(2 * (value.m - value.theta1 - value.theta2) - 2 * value.theta2)
            assert value.theta == measures(g, tree_of[assign]).beta
            assert value.theta2 == _direct_theta_parts(g, assign)[1]
        p = g.n.bit_length() - 1
        assert best.theta == 2 * (p - 1) * g.m + max(residuals)


def test_qp_maximization_cap():
    with pytest.raises(ValueError, match="capped"):
        maximize_qp(QPModel(n=16, p=4, block_size=4, terms=()))


# -- heuristic ------------------------------------------------------------------------


def test_greedy_is_exact_on_four_vertices():
    tree, value = greedy_balanced_heuristic(cycle_graph(4), "beta")
    assert value == 12
    assert tree.is_balanced()


def test_greedy_on_clique_and_edgeless():
    _, beta = greedy_balanced_heuristic(complete_graph(8), "beta")
    assert beta == beta_complete_closed_form(8)
    _, alpha = greedy_balanced_heuristic(edgeless_graph(8), "alpha")
    assert alpha == 0


def test_greedy_never_beats_the_exact_minimum():
    for seed in range(10):
        g = random_pow2_graph(8, 2000 + seed)
        for objective in ("alpha", "beta"):
            tree, value = greedy_balanced_heuristic(g, objective)
            assert tree.is_balanced()
            _, exact = optimize_balanced(g, objective, "min")
            assert value >= exact


def test_greedy_guards():
    with pytest.raises(ValueError, match="objective"):
        greedy_balanced_heuristic(cycle_graph(4), "gamma")
    with pytest.raises(ValueError, match="power-of-two"):
        greedy_balanced_heuristic(cycle_graph(6))
