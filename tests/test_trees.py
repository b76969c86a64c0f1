import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reasm.generators import random_balanced_tree, random_tree
from reasm.graphs import (
    Graph,
    boundary_size,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    mask_of,
    relabel,
)
from reasm.trees import (
    InvalidTreeError,
    MeasurePair,
    ReassemblingTree,
    beta_via_edge_heights,
    cluster_degree,
    edge_height,
    find_isomorphism,
    measures,
    tree_violations,
)

PAIRED = ReassemblingTree.from_lists([[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3]])
ANTIPODAL = ReassemblingTree.from_lists([[0], [1], [2], [3], [0, 2], [1, 3], [0, 1, 2, 3]])
CATERPILLAR = ReassemblingTree.from_lists([[0], [1], [2], [3], [0, 1], [0, 1, 2], [0, 1, 2, 3]])


@st.composite
def trees(draw, max_n=8, balanced=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if balanced:
        n = 1 << (n.bit_length() - 1)
    seed = draw(st.integers(min_value=0, max_value=2**30))
    rng = random.Random(seed)
    return random_balanced_tree(n, rng) if balanced else random_tree(n, rng)


@st.composite
def graph_tree_pairs(draw, balanced=False):
    t = draw(trees(balanced=balanced))
    pairs = [(u, v) for u in range(t.n) for v in range(u + 1, t.n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(t.n, frozenset(edges)), t


# -- validation -----------------------------------------------------------------


def test_balanced_collection_validates():
    assert len(PAIRED) == 7
    assert PAIRED.height == 2


def test_missing_merge_partner_is_reported():
    masks = [1, 2, 4, 8, mask_of([0, 1]), mask_of([0, 1, 2, 3])]
    problems = tree_violations(4, masks)
    assert any("no merge partner" in p for p in problems)
    assert any("wrong cluster count: 6" in p for p in problems)
    with pytest.raises(InvalidTreeError):
        ReassemblingTree.from_masks(4, masks)


def test_caterpillar_is_a_valid_tree():
    assert CATERPILLAR.height == 3
    assert not CATERPILLAR.is_balanced()


def test_violations_catch_bad_clusters():
    assert tree_violations(2, [1, 2, 3, 3]) == ["duplicate cluster {0,1}"]
    assert any("nonempty" in p for p in tree_violations(2, [0, 1, 2, 3]))
    assert any("missing singleton {1}" in p for p in tree_violations(2, [1, 3]))
    assert any("missing root" in p for p in tree_violations(2, [1, 2]))


def test_out_of_range_cluster_names_the_bad_vertex():
    clusters = [[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3, 9]]
    with pytest.raises(InvalidTreeError, match=r"\{0,1,2,3,9\}.*vertex ids \{9\} out of range"):
        ReassemblingTree.from_clusters(4, clusters)
    assert tree_violations(2, [-3, 1, 2, 3]) == ["cluster mask -3 is negative, not a nonempty subset of 0..1"]


def test_ambiguous_partner_is_rejected():
    # {0} could merge with {1} or with {2}: both unions are present.
    masks = [1, 2, 4, 3, 5, 6, 7]
    problems = tree_violations(3, masks)
    assert any("multiple merge partners" in p for p in problems)


def test_from_merges_builds_and_guards():
    t = ReassemblingTree.from_merges(4, [([0], [1]), ([2], [3]), ([0, 1], [2, 3])])
    assert t == PAIRED
    with pytest.raises(InvalidTreeError, match="overlap"):
        ReassemblingTree.from_merges(2, [([0], [0])])
    with pytest.raises(InvalidTreeError, match="unmerged"):
        ReassemblingTree.from_merges(3, [([0], [1]), ([0], [2])])


@given(trees())
def test_generated_trees_validate_with_correct_count(t):
    assert tree_violations(t.n, t.clusters) == []
    assert len(t) == 2 * t.n - 1


@given(trees(), st.integers(min_value=0, max_value=2**30))
def test_deleting_any_internal_cluster_invalidates(t, seed):
    internal = [x for x in t.clusters if x.bit_count() not in (1, t.n)]
    if not internal:
        return
    victim = random.Random(seed).choice(internal)
    remaining = [x for x in t.clusters if x != victim]
    assert tree_violations(t.n, remaining)


@given(trees(max_n=6), st.integers(min_value=0, max_value=2**30))
def test_inserting_a_fresh_cluster_invalidates(t, seed):
    rng = random.Random(seed)
    present = set(t.clusters)
    candidates = [m for m in range(1, 1 << t.n) if m not in present]
    if not candidates:
        return
    extra = rng.choice(candidates)
    assert tree_violations(t.n, list(t.clusters) + [extra])


# -- structure ------------------------------------------------------------------


def test_heights_and_balance():
    assert PAIRED.is_balanced()
    assert CATERPILLAR.height == 3
    assert PAIRED.cluster_height(1) == 0
    assert PAIRED.cluster_height(mask_of([0, 1])) == 1
    single = ReassemblingTree.from_lists([[0]])
    assert single.height == 0 and single.is_balanced()


def test_parent_sibling_children():
    ab = mask_of([0, 1])
    assert PAIRED.parent_of(1) == ab
    assert PAIRED.sibling_of(1) == 2
    assert PAIRED.children_of(ab) == (1, 2)
    assert PAIRED.children_of(4) is None
    with pytest.raises(ValueError, match="root has no parent"):
        PAIRED.parent_of(PAIRED.root)
    with pytest.raises(ValueError, match="not a cluster"):
        PAIRED.parent_of(mask_of([0, 2]))


def test_leaf_path_examples():
    assert PAIRED.leaf_path(0) == (1, mask_of([0, 1]), 15)
    assert CATERPILLAR.leaf_path(3) == (8, 15)
    single = ReassemblingTree.from_lists([[0]])
    assert single.leaf_path(0) == (1,)
    with pytest.raises(ValueError, match="out of range"):
        PAIRED.leaf_path(4)


@given(trees())
def test_leaf_paths_climb_through_every_containing_cluster(t):
    for v in range(t.n):
        path = t.leaf_path(v)
        assert len(path) - 1 <= t.height
        assert set(path) == {x for x in t.clusters if x & (1 << v)}


# -- measures ---------------------------------------------------------------------


def test_measures_frozen_cases():
    assert measures(complete_graph(4), PAIRED) == MeasurePair(alpha=4, beta=20)
    assert measures(cycle_graph(4), PAIRED) == MeasurePair(alpha=2, beta=12)
    assert measures(cycle_graph(4), ANTIPODAL) == MeasurePair(alpha=4, beta=16)


def test_cluster_degree_cases():
    assert cluster_degree(complete_graph(4), PAIRED, mask_of([0, 1])) == 4
    assert cluster_degree(cycle_graph(4), PAIRED, mask_of([0, 1])) == 2
    g = cycle_graph(4)
    assert cluster_degree(g, PAIRED, g.full_mask) == 0
    with pytest.raises(ValueError, match="not a cluster"):
        cluster_degree(g, PAIRED, mask_of([0, 2]))


def test_measures_reject_size_mismatch():
    with pytest.raises(ValueError, match="vertices"):
        measures(cycle_graph(8), PAIRED)


@given(graph_tree_pairs())
def test_alpha_never_exceeds_beta(data):
    g, t = data
    pair = measures(g, t)
    assert 0 <= pair.alpha
    if g.n >= 2:
        assert pair.alpha <= pair.beta


# -- edge heights ------------------------------------------------------------------


def test_edge_height_cases():
    g = cycle_graph(4)
    assert edge_height(g, PAIRED, (0, 1)) == 1
    assert edge_height(g, PAIRED, (1, 2)) == 2
    k2 = complete_graph(2)
    t2 = ReassemblingTree.from_lists([[0], [1], [0, 1]])
    assert edge_height(k2, t2, (0, 1)) == 1
    with pytest.raises(ValueError, match="not an edge"):
        edge_height(g, PAIRED, (0, 2))


def test_beta_via_edge_heights_frozen_cases():
    assert beta_via_edge_heights(cycle_graph(4), PAIRED) == 12
    assert beta_via_edge_heights(complete_graph(4), PAIRED) == 20
    assert beta_via_edge_heights(complete_graph(4), ANTIPODAL) == 20
    assert beta_via_edge_heights(edgeless_graph(4), PAIRED) == 0


def test_beta_via_edge_heights_refuses_out_of_scope_input():
    with pytest.raises(ValueError, match="balanced"):
        beta_via_edge_heights(cycle_graph(4), CATERPILLAR)
    g6 = cycle_graph(6)
    t6 = random_balanced_tree(8, random.Random(1))
    with pytest.raises(ValueError):
        beta_via_edge_heights(g6, t6)


@given(graph_tree_pairs(balanced=True))
def test_beta_equals_twice_edge_height_sum_on_balanced_trees(data):
    g, t = data
    assert measures(g, t).beta == beta_via_edge_heights(g, t)


# -- bijection lifting ---------------------------------------------------------------


def test_identity_bijection_is_identity():
    assert PAIRED.apply_bijection((0, 1, 2, 3)) == PAIRED


def test_swap_bijection_maps_pairs():
    swapped = PAIRED.apply_bijection((2, 3, 0, 1))
    assert swapped == PAIRED  # {2,3},{0,1} is the same collection
    shifted = CATERPILLAR.apply_bijection((1, 2, 3, 0))
    assert mask_of([1, 2]) in shifted
    assert shifted.height == CATERPILLAR.height


def test_apply_bijection_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        PAIRED.apply_bijection((0, 1, 2, 2))


@given(graph_tree_pairs(), st.integers(min_value=0, max_value=2**30))
def test_bijection_preserves_measures_of_relabeled_graph(data, seed):
    g, t = data
    theta = list(range(g.n))
    random.Random(seed).shuffle(theta)
    mapped = t.apply_bijection(theta)
    assert mapped.height == t.height
    assert measures(relabel(g, theta), mapped) == measures(g, t)
    for x in t.clusters:
        image = mask_of(theta[v] for v in range(g.n) if x & (1 << v))
        assert boundary_size(relabel(g, theta), image) == boundary_size(g, x)


# -- serialization ---------------------------------------------------------------------


def test_to_lists_is_canonical():
    assert PAIRED.to_lists() == [[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3]]
    assert json.loads(PAIRED.to_json()) == PAIRED.to_lists()


def test_from_json_round_trip_and_errors():
    assert ReassemblingTree.from_json(PAIRED.to_json()) == PAIRED
    with pytest.raises(InvalidTreeError, match="array"):
        ReassemblingTree.from_json('{"not": "a tree"}')


@given(trees())
def test_lists_round_trip(t):
    assert ReassemblingTree.from_lists(t.to_lists(), n=t.n) == t


# -- reassembling isomorphism ------------------------------------------------------------


def test_isomorphic_pairings_on_clique():
    theta = find_isomorphism(complete_graph(4), PAIRED, ANTIPODAL)
    assert theta is not None
    mapped = PAIRED.apply_bijection(theta)
    assert mapped == ANTIPODAL


def test_pairings_on_cycle_are_not_isomorphic():
    assert find_isomorphism(cycle_graph(4), PAIRED, ANTIPODAL) is None


def test_tree_is_isomorphic_to_itself():
    theta = find_isomorphism(cycle_graph(4), PAIRED, PAIRED)
    assert theta == (0, 1, 2, 3)


def test_isomorphism_respects_cap():
    g = edgeless_graph(16)
    t = random_balanced_tree(16, random.Random(0))
    with pytest.raises(ValueError, match="capped"):
        find_isomorphism(g, t, t)
