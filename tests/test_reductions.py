import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reasm.generators import (
    planted_clique_cover,
    planted_independent_quarters,
)
from reasm.graphs import (
    Graph,
    bridge_count,
    complement,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    is_clique,
    mask_of,
    path_graph,
    vertices_of,
)
from reasm.oracles import (
    find_equal_size_cover4,
    find_fixed_size_cover4,
    min_bisections,
    partitions4,
    verify_cover,
)
from reasm.reductions import (
    AugmentedGraph,
    LemmaReport,
    LemmaViolation,
    _check_lemma5,
    _check_lemma6,
    augment,
    clique_cover_from_beta_optimal,
    equal_size_gadget,
    gadget_blocks,
    has_independent_quarters,
    independent_grandchildren_from_beta_max,
    min_bisection_from_alpha_optimal,
    min_bisection_via_augment,
    padding,
    verify_lemma,
)
from reasm.solvers import (
    all_balanced_trees,
    beta_complete_closed_form,
    optimal_balanced_trees,
    optimize_balanced,
)
from reasm.trees import ReassemblingTree, measures

# Eight vertices, sixteen cross edges over the independent blocks
# {0,7}, {5,6}, {1,2}, {3,4}. The maximum beta (88) is attained by ten
# balanced trees; nine of them pair adjacent vertices somewhere, one keeps
# all four grandchildren independent. The batch checkers demand the
# grandchildren conclusion of every optimal tree, so this graph makes them
# report a counterexample while the relaxed existential reading still holds.
TIE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (1, 5),
    (1, 6), (2, 3), (2, 5), (2, 6), (2, 7), (4, 5), (4, 6), (4, 7),
]
TIE_GRAPH = Graph.from_edges(8, TIE_EDGES)


def seeded_graph(n, seed, p=0.5):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, frozenset(edges))


# -- padding and augmentation ----------------------------------------------------


def test_padding_values():
    assert [padding(n) for n in (2, 4, 6, 8, 10, 12, 14, 16)] == [0, 0, 2, 0, 6, 4, 2, 0]
    with pytest.raises(ValueError):
        padding(3)
    with pytest.raises(ValueError):
        padding(0)


def test_augment_cycle4():
    ag = augment(cycle_graph(4))
    assert (ag.graph.n, ag.graph.m) == (8, 22)
    assert (ag.r, ag.q, ag.base_n) == (0, 2, 4)
    assert ag.g_mask == mask_of(range(4))
    assert ag.h_mask == mask_of([4, 5])
    assert ag.i_mask == mask_of([6, 7])


def test_augment_single_edge():
    ag = augment(complete_graph(2))
    assert (ag.graph.n, ag.graph.m) == (4, 5)
    assert ag.q == 1


def test_augment_pads_path6_to_sixteen_vertices():
    ag = augment(path_graph(6))
    assert (ag.r, ag.q) == (2, 5)
    assert ag.graph.n == 16


def test_augment_rejects_odd_order():
    with pytest.raises(ValueError, match="even"):
        augment(path_graph(5))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**30))
@settings(deadline=None)
def test_augmented_graph_structure(half_n, seed):
    g = seeded_graph(2 * half_n, seed)
    ag = augment(g)
    big, q = ag.graph, ag.q
    assert big.n & (big.n - 1) == 0  # always a power of two
    assert big.n == 2 * g.n + 2 * ag.r
    assert big.m == g.m + 2 * (q * (q - 1) // 2) + 2 * g.n * q
    for u in vertices_of(ag.h_mask):
        assert big.adj[u] & ag.h_mask == ag.h_mask ^ (1 << u)  # H is a clique
        assert big.adj[u] & ag.i_mask == 0  # no edges into I
        assert big.adj[u] & ag.g_mask == ag.g_mask  # joined to all of g
    for u in vertices_of(ag.i_mask):
        assert big.adj[u] & ag.i_mask == ag.i_mask ^ (1 << u)
        assert big.adj[u] & ag.g_mask == ag.g_mask
    for u in range(g.n):
        assert big.adj[u] & ag.g_mask == g.adj[u]  # g is untouched


# -- bisection through the augmentation -------------------------------------------


def test_pipeline_value_on_cycle4():
    value, bis = min_bisection_via_augment(cycle_graph(4))
    assert value == 2
    assert bis.to_lists() in ([[0, 1], [2, 3]], [[0, 3], [1, 2]])


def test_pipeline_value_on_clique4():
    value, _ = min_bisection_via_augment(complete_graph(4))
    assert value == 4


def test_pipeline_value_on_path6():
    value, bis = min_bisection_via_augment(path_graph(6))
    assert value == 1
    assert bis.to_lists() == [[0, 1, 2], [3, 4, 5]]


def test_root_split_extraction_on_cycle4():
    ag = augment(cycle_graph(4))
    tree, _ = optimize_balanced(ag.graph, "alpha", "min")
    bis = min_bisection_from_alpha_optimal(ag, tree)
    cut = bridge_count(ag.graph, bis.a, bis.b)
    assert cut == 10  # half the vertices squared, plus the base minimum of 2
    restricted = (bis.a & ag.g_mask, bis.b & ag.g_mask)
    assert bridge_count(cycle_graph(4), *restricted) == 2


def test_root_split_extraction_on_clique4_and_edgeless4():
    for g, expected in ((complete_graph(4), 12), (edgeless_graph(4), 8)):
        ag = augment(g)
        tree, _ = optimize_balanced(ag.graph, "alpha", "min")
        bis = min_bisection_from_alpha_optimal(ag, tree)
        assert bridge_count(ag.graph, bis.a, bis.b) == expected


def test_root_split_extraction_needs_unpadded_augmentation():
    ag = augment(path_graph(6))
    tree, _ = optimize_balanced(ag.graph, "alpha", "min")
    with pytest.raises(ValueError, match="r = 0"):
        min_bisection_from_alpha_optimal(ag, tree)


def test_root_split_extraction_flags_suboptimal_trees():
    ag = augment(cycle_graph(4))
    # Splitting H across the root costs extra: 12 > 10 for this layout.
    bad = ReassemblingTree.from_lists(
        [[0], [1], [2], [3], [4], [5], [6], [7],
         [0, 1], [4, 6], [2, 3], [5, 7],
         [0, 1, 4, 6], [2, 3, 5, 7], [0, 1, 2, 3, 4, 5, 6, 7]]
    )
    with pytest.raises(LemmaViolation, match="expected n\\^2/2 \\+ C = 10"):
        min_bisection_from_alpha_optimal(ag, bad)


# -- equal-size gadget -------------------------------------------------------------


def test_gadget_on_clique4_singleton_sizes():
    gadget = equal_size_gadget(complete_graph(4), (1, 1, 1, 1))
    assert gadget.n == 16
    blocks = gadget_blocks(4, (1, 1, 1, 1))
    assert [b.bit_count() for b in blocks] == [3, 3, 3, 3]
    assert find_equal_size_cover4(gadget) is not None


def test_gadget_blocks_are_mutually_non_adjacent():
    g = cycle_graph(5)
    sizes = (2, 1, 1, 1)
    gadget = equal_size_gadget(g, sizes)
    added = gadget_blocks(g.n, sizes)
    assert [b.bit_count() for b in added] == [3, 4, 4, 4]
    for i in range(4):
        for u in vertices_of(added[i]):
            assert gadget.adj[u] & g.full_mask == g.full_mask  # joined to all of g
            for j in range(4):
                if j != i:
                    assert gadget.adj[u] & added[j] == 0


def test_gadget_on_cycle5():
    g = cycle_graph(5)
    sizes = (2, 1, 1, 1)
    assert find_fixed_size_cover4(g, sizes) is not None
    gadget = equal_size_gadget(g, sizes)
    assert gadget.n == 20
    assert find_equal_size_cover4(gadget) is not None


def test_gadget_negative_instance():
    g = edgeless_graph(5)
    sizes = (2, 1, 1, 1)
    assert find_fixed_size_cover4(g, sizes) is None
    assert find_equal_size_cover4(equal_size_gadget(g, sizes)) is None


def test_gadget_rejects_bad_sizes():
    with pytest.raises(ValueError, match="summing to n"):
        equal_size_gadget(cycle_graph(4), (2, 1, 1, 1))


def test_positive_cover_lifts_blockwise_into_the_gadget():
    g = cycle_graph(8)
    sizes = (2, 2, 2, 2)
    cover = find_fixed_size_cover4(g, sizes)
    gadget = equal_size_gadget(g, sizes)
    added = gadget_blocks(g.n, sizes)
    lifted = [cover[i] | added[i] for i in range(4)]
    assert verify_cover(gadget, lifted, sizes=[g.n] * 4)


def test_gadget_equivalence_on_seeded_instances():
    for n in (4, 5):
        for seed in (0, 1):
            g = seeded_graph(n, seed)
            for sizes in partitions4(n):
                direct = find_fixed_size_cover4(g, sizes) is not None
                via = find_equal_size_cover4(equal_size_gadget(g, sizes)) is not None
                assert direct == via


# -- grandchildren extraction --------------------------------------------------------


def test_cover_extraction_on_cycle8():
    g = cycle_graph(8)
    tree, _ = optimize_balanced(g, "beta", "min")
    blocks = clique_cover_from_beta_optimal(g, tree)
    assert sorted(b.bit_count() for b in blocks) == [2, 2, 2, 2]
    assert verify_cover(g, blocks, sizes=(2, 2, 2, 2))


def test_cover_extraction_on_clique8():
    g = complete_graph(8)
    tree, _ = optimize_balanced(g, "beta", "min")
    assert verify_cover(g, clique_cover_from_beta_optimal(g, tree))


def test_cover_extraction_on_two_cliques_with_a_bridge():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
    edges.append((3, 4))
    g = Graph.from_edges(8, edges)
    tree, _ = optimize_balanced(g, "beta", "min")
    blocks = clique_cover_from_beta_optimal(g, tree)
    low, high = mask_of(range(4)), mask_of(range(4, 8))
    for block in blocks:
        assert block & low == block or block & high == block


def test_cover_extraction_flags_non_clique_grandchildren():
    g = cycle_graph(8)
    tree, _ = optimize_balanced(g, "beta", "max")  # pairs far-apart vertices
    with pytest.raises(LemmaViolation, match="does not induce a complete graph"):
        clique_cover_from_beta_optimal(g, tree)


def test_independent_extraction_on_cycle8_complement():
    g = complement(cycle_graph(8))
    tree, _ = optimize_balanced(g, "beta", "max")
    blocks = independent_grandchildren_from_beta_max(g, tree)
    base = cycle_graph(8)
    for block in blocks:
        u, v = vertices_of(block)
        assert base.has_edge(u, v)  # independent in the complement = adjacent here


def test_independent_extraction_on_edgeless8():
    g = edgeless_graph(8)
    tree, _ = optimize_balanced(g, "beta", "max")
    blocks = independent_grandchildren_from_beta_max(g, tree)
    assert len(blocks) == 4


def test_independent_extraction_flags_adjacent_pairs():
    g = cycle_graph(8)
    tree, _ = optimize_balanced(g, "beta", "min")  # pairs adjacent vertices
    with pytest.raises(LemmaViolation, match="not an independent set"):
        independent_grandchildren_from_beta_max(g, tree)


def test_extraction_guards():
    g = cycle_graph(8)
    tree, _ = optimize_balanced(cycle_graph(4), "beta", "min")
    with pytest.raises(ValueError, match="match"):
        clique_cover_from_beta_optimal(g, tree)
    with pytest.raises(ValueError, match="p >= 2"):
        independent_grandchildren_from_beta_max(
            complete_graph(2), optimize_balanced(complete_graph(2), "beta", "min")[0]
        )


def test_has_independent_quarters():
    assert has_independent_quarters(edgeless_graph(8))
    assert not has_independent_quarters(complete_graph(8))
    g, _ = planted_independent_quarters(8, random.Random(5))
    assert has_independent_quarters(g)


# -- the complement identity ----------------------------------------------------------


def test_beta_of_graph_and_complement_sum_to_the_clique_value():
    """Each cluster boundary splits between a graph and its complement, so
    the two beta values always sum to the complete-graph beta."""
    for seed in (3, 4):
        g = seeded_graph(8, seed)
        co = complement(g)
        total = beta_complete_closed_form(8)
        for t in all_balanced_trees(8):
            assert measures(g, t).beta + measures(co, t).beta == total


# -- batch verification -----------------------------------------------------------------


@pytest.mark.parametrize("lemma", [1, 2, 3, 4, 5, 6])
def test_batch_checks_pass_on_small_seeded_runs(lemma):
    report = verify_lemma(lemma, instances=3, seed=11)
    assert report.passed and report.tried == 3
    assert report.counterexample is None


def test_batch_checks_skip_out_of_hypothesis_instances():
    # K8 has no four independent quarters and the edgeless graph has no
    # equal-size clique cover; neither claim applies, so neither checker
    # may manufacture a counterexample from the (irrelevant) optima.
    assert _check_lemma5(complete_graph(8)) is None
    assert _check_lemma6(edgeless_graph(8)) is None


def test_batch_checks_are_deterministic():
    first = verify_lemma(4, instances=5, seed=123)
    second = verify_lemma(4, instances=5, seed=123)
    assert first == second


def test_verify_lemma_guards():
    with pytest.raises(ValueError, match="unknown lemma"):
        verify_lemma(7)
    with pytest.raises(ValueError, match="at least one"):
        verify_lemma(1, instances=0)
    with pytest.raises(ValueError, match=r"lemma 3 supports n in \{2, 4\}, got 8"):
        verify_lemma(3, n=8)
    with pytest.raises(ValueError, match="lemma 4 needs a power-of-two n, got 8.0"):
        verify_lemma(4, n=8.0)
    with pytest.raises(ValueError, match="lemma 5 supports n in .*, got True"):
        verify_lemma(5, n=True)


@pytest.mark.parametrize(
    "lemma,instances,message",
    [
        (True, 1, "unknown lemma id True (valid: 1..6)"),
        (1.0, 1, "unknown lemma id 1.0 (valid: 1..6)"),
        ("1", 1, "unknown lemma id '1' (valid: 1..6)"),
        (1, True, "instance count must be an int, got True"),
        (1, 2.5, "instance count must be an int, got 2.5"),
        (1, "3", "instance count must be an int, got '3'"),
    ],
)
def test_verify_lemma_rejects_non_int_arguments(lemma, instances, message):
    with pytest.raises(ValueError) as info:
        verify_lemma(lemma, instances=instances)
    assert str(info.value) == message


def test_report_serialization():
    clean = LemmaReport(lemma=2, tried=5, passed=True)
    assert clean.to_json_dict() == {"lemma": 2, "tried": 5, "passed": True}
    failing = LemmaReport(
        lemma=5, tried=1, passed=False, counterexample={"detail": "x"}
    )
    doc = failing.to_json_dict()
    assert doc["passed"] is False and doc["counterexample"] == {"detail": "x"}


# -- optimality ties -----------------------------------------------------------------


def test_tied_maxima_can_defeat_the_every_tree_reading():
    """TIE_GRAPH has four independent quarters, yet nine of its ten
    beta-maximal trees pair two adjacent vertices in a grandchild. The
    batch checker reads the grandchildren conclusion universally, so it
    must surface one of those trees as a counterexample."""
    assert has_independent_quarters(TIE_GRAPH)
    betas = [measures(TIE_GRAPH, t).beta for t in all_balanced_trees(8)]
    assert max(betas) == 88
    winners = [t for t, b in zip(all_balanced_trees(8), betas) if b == 88]
    assert len(winners) == 10
    clean = [
        t
        for t in winners
        if all(
            not TIE_GRAPH.has_edge(*vertices_of(x))
            for x in t.clusters
            if x.bit_count() == 2
        )
    ]
    assert len(clean) == 1  # the conclusion survives existentially, not universally
    result = _check_lemma5(TIE_GRAPH)
    assert result is not None
    assert "not an independent set" in result["detail"]


def test_tied_minima_mirror_through_the_complement():
    co = complement(TIE_GRAPH)
    assert optimize_balanced(co, "beta", "min")[1] == 136 - 88
    result = _check_lemma6(co)
    assert result is not None
    assert "does not induce a complete graph" in result["detail"]


# -- pinned counterexamples (beta-minimal trees without clique grandchildren) ---------


def edges_graph(text):
    return Graph.from_edges(8, [tuple(map(int, edge.split("-"))) for edge in text.split()])


# Both have an equal-size clique cover. No beta-minimal tree of the first has
# clique grandchildren (it fails even "some optimal tree conforms"); two of
# the eight of the second do.
WEAK_FAILURE = edges_graph("0-3 1-3 1-6 2-3 2-7 4-5 4-6 4-7 5-6 5-7 6-7")
EVERY_FAILURE = edges_graph("0-2 0-3 0-6 1-2 1-3 3-7 4-5 4-6 4-7")


def has_clique_grandchildren(g, t):
    return all(is_clique(g, x) for x in t.clusters if x.bit_count() == g.n // 4)


@pytest.mark.parametrize(
    "g,count,beta,conforming,best_conforming",
    [(WEAK_FAILURE, 9, 42, 0, 44), (EVERY_FAILURE, 8, 34, 2, 34)],
    ids=["weak", "every"],
)
def test_pinned_lemma6_counterexamples(g, count, beta, conforming, best_conforming):
    assert find_equal_size_cover4(g) is not None
    optimal = list(optimal_balanced_trees(g, "beta", "min"))
    assert len(optimal) == count
    assert {measures(g, t).beta for t in optimal} == {beta}
    assert sum(has_clique_grandchildren(g, t) for t in optimal) == conforming
    conforming_betas = [measures(g, t).beta for t in all_balanced_trees(8) if has_clique_grandchildren(g, t)]
    assert min(conforming_betas) == best_conforming
    # Lemma 5's tree part is lemma 6's on the complement: the same tree fails.
    six, five = _check_lemma6(g), _check_lemma5(complement(g))
    assert six is not None and five is not None
    assert six["tree"] == five["tree"]


FAILING_REPORTS = json.loads((pathlib.Path(__file__).parent / "data" / "failing_lemma_reports.json").read_text())


@pytest.mark.parametrize("case", FAILING_REPORTS, ids=[f"lemma{c['lemma']}-seed{c['seed']}" for c in FAILING_REPORTS])
def test_recorded_failing_reports(case):
    report = verify_lemma(case["lemma"], case["instances"], case["seed"], case["n"])
    assert report.to_json_dict() == case["report"]
