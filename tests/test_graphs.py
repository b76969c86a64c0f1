import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reasm.graphs import (
    Graph,
    boundary_size,
    bridge_count,
    bridges,
    complement,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    format_graph,
    induced_subgraph,
    is_clique,
    is_connected,
    is_independent,
    iter_bits,
    mask_of,
    parse_graph,
    path_graph,
    relabel,
    vertices_of,
)


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(edges))


@st.composite
def graph_with_disjoint_sets(draw, parts=2):
    """A graph plus `parts` pairwise disjoint vertex masks."""
    g = draw(graphs(min_n=1))
    masks = [0] * parts
    for v in range(g.n):
        slot = draw(st.integers(min_value=0, max_value=parts))
        if slot:
            masks[slot - 1] |= 1 << v
    return g, masks


# -- bitmask helpers ----------------------------------------------------------


def test_mask_of_vertices_of_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vertices_of(0b100101) == (0, 2, 5)
    assert vertices_of(0) == ()


@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_mask_round_trip_is_identity(vertex_set):
    assert set(vertices_of(mask_of(vertex_set))) == vertex_set


@pytest.mark.parametrize("mask", [-1, -6, -(1 << 70)])
def test_negative_masks_raise_instead_of_looping(mask):
    with pytest.raises(ValueError, match=f"mask {mask} is negative"):
        vertices_of(mask)
    with pytest.raises(ValueError, match=f"mask {mask} is negative"):
        list(iter_bits(mask))


@pytest.mark.parametrize("bad", ["x", 3.5, True, -1, None])
def test_mask_of_names_a_bad_vertex_id(bad):
    with pytest.raises(ValueError, match=re.escape(f"vertex id {bad!r} is not a non-negative int")):
        mask_of([0, bad])


# -- construction and validation ----------------------------------------------


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # stored edges must have u < v


def test_from_edges_normalizes_orientation():
    g = Graph.from_edges(3, [(2, 0), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])


def test_standard_constructions():
    assert complete_graph(1).m == 0
    assert complete_graph(4).m == 6
    assert complete_graph(8).m == 28
    assert cycle_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert path_graph(3).edges == frozenset({(0, 1), (1, 2)})
    assert path_graph(1).m == 0
    assert edgeless_graph(5).m == 0


def test_construction_guards():
    with pytest.raises(ValueError):
        complete_graph(0)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)


def test_degrees_and_adjacency():
    g = cycle_graph(5)
    assert [g.degree(v) for v in range(5)] == [2, 2, 2, 2, 2]
    assert g.adj[0] == mask_of([1, 4])
    assert g.has_edge(4, 0) and not g.has_edge(0, 2)


# -- parsing and serialization --------------------------------------------------


def test_parse_cycle_document():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n0 3")
    assert g.n == 4 and g.m == 4
    assert g.edges == cycle_graph(4).edges


def test_parse_single_edge():
    g = parse_graph("2 1\n0 1")
    assert (g.n, g.m) == (2, 1)


def test_parse_skips_comments_and_blank_lines():
    g = parse_graph("# a triangle\n\n3 3\n0 1\n# middle\n1 2\n0 2\n")
    assert g.m == 3


def test_parse_reports_self_loop_with_line_number():
    with pytest.raises(ValueError, match="line 2: self-loop"):
        parse_graph("3 1\n0 0")


def test_parse_rejects_descending_endpoints():
    with pytest.raises(ValueError, match="u < v"):
        parse_graph("3 1\n2 1")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="line 4: duplicate"):
        parse_graph("3 2\n0 1\n\n0 1")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(ValueError, match="out of range"):
        parse_graph("3 1\n0 3")


def test_parse_rejects_bad_header_and_counts():
    with pytest.raises(ValueError, match="header"):
        parse_graph("oops\n0 1")
    with pytest.raises(ValueError, match="extra line"):
        parse_graph("2 1\n0 1\n0 1")
    with pytest.raises(ValueError, match="expected 2 edge lines"):
        parse_graph("3 2\n0 1")
    with pytest.raises(ValueError, match="header"):
        parse_graph("# nothing here\n")


def test_format_is_canonical():
    g = Graph.from_edges(4, [(2, 3), (0, 3), (0, 1), (1, 2)])
    assert format_graph(g) == "4 4\n0 1\n0 3\n1 2\n2 3\n"


@given(graphs())
def test_parse_format_round_trip(g):
    assert parse_graph(format_graph(g)) == g


# -- induced subgraphs ----------------------------------------------------------


def test_induced_subgraph_on_cycle():
    sub, labels = induced_subgraph(cycle_graph(4), mask_of([0, 1]))
    assert labels == (0, 1)
    assert sub.edges == frozenset({(0, 1)})
    sub, _ = induced_subgraph(cycle_graph(4), mask_of([0, 2]))
    assert sub.m == 0


def test_induced_subgraph_of_clique_is_clique():
    sub, labels = induced_subgraph(complete_graph(4), mask_of([0, 1, 2]))
    assert labels == (0, 1, 2)
    assert sub.edges == complete_graph(3).edges


def test_induced_subgraph_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        induced_subgraph(cycle_graph(4), mask_of([0, 4]))


@given(graphs(min_n=1))
def test_inducing_on_full_vertex_set_is_identity(g):
    sub, labels = induced_subgraph(g, g.full_mask)
    assert labels == tuple(range(g.n))
    assert sub == g


# -- boundaries and bridges -----------------------------------------------------


def test_bridges_on_cycle():
    got = bridges(cycle_graph(4), mask_of([0, 1]), mask_of([2, 3]))
    assert got == frozenset({(1, 2), (0, 3)})


def test_bridges_around_path_center():
    g = path_graph(3)
    assert bridges(g, mask_of([1]), mask_of([0, 2])) == frozenset({(0, 1), (1, 2)})


def test_bridges_of_full_against_empty():
    g = cycle_graph(4)
    assert bridges(g, g.full_mask, 0) == frozenset()
    assert boundary_size(g, g.full_mask) == 0
    assert boundary_size(g, 0) == 0


def test_bridges_reject_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        bridges(cycle_graph(4), mask_of([0, 1]), mask_of([1, 2]))
    with pytest.raises(ValueError, match="disjoint"):
        bridge_count(cycle_graph(4), 3, 6)


def test_boundary_rejects_foreign_mask():
    with pytest.raises(ValueError):
        boundary_size(cycle_graph(4), 1 << 7)


def test_foreign_mask_errors_name_the_offending_ids():
    g = cycle_graph(8)
    with pytest.raises(ValueError, match=r"vertex ids \(70,\) not within 0..7"):
        boundary_size(g, 1 << 70)
    with pytest.raises(ValueError, match=r"vertex ids \(8, 9\) not within 0..7"):
        bridge_count(g, 0b11_0000_0001, 2)
    with pytest.raises(ValueError, match=r"negative mask \(-1\)"):
        boundary_size(g, -1)
    with pytest.raises(ValueError, match="bridge endpoint sets must be disjoint"):
        bridge_count(g, 3, 6)


def test_clique_and_independence_checks():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert is_clique(g, mask_of([0, 1, 2]))
    assert not is_clique(g, mask_of([0, 1, 3]))
    assert is_independent(g, mask_of([0, 3]))
    assert not is_independent(g, mask_of([2, 3, 4]))
    assert is_clique(g, 0) and is_independent(g, 0)
    assert is_clique(g, 1 << 4) and is_independent(g, 1 << 4)


@given(graph_with_disjoint_sets(parts=3))
def test_bridge_count_is_additive_in_second_argument(data):
    g, (a, b, c) = data
    assert bridge_count(g, a, b | c) == bridge_count(g, a, b) + bridge_count(g, a, c)


@given(graph_with_disjoint_sets(parts=1))
def test_boundary_equals_degree_sum_minus_internal_edges(data):
    g, (a,) = data
    inside, _ = induced_subgraph(g, a)
    degree_sum = sum(g.degree(v) for v in vertices_of(a))
    assert boundary_size(g, a) == degree_sum - 2 * inside.m


@given(graph_with_disjoint_sets(parts=2))
def test_bridge_count_matches_bridge_set(data):
    g, (a, b) = data
    assert bridge_count(g, a, b) == len(bridges(g, a, b))


# -- complement -------------------------------------------------------------------


def test_complement_frozen_cases():
    assert complement(complete_graph(4)).m == 0
    assert complement(edgeless_graph(3)) == complete_graph(3)
    assert complement(cycle_graph(4)).edges == frozenset({(0, 2), (1, 3)})


@given(graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g
    assert g.m + complement(g).m == math.comb(g.n, 2)


# -- relabeling and connectivity ---------------------------------------------------


def test_relabel_moves_edges():
    g = path_graph(3)
    assert relabel(g, (2, 1, 0)).edges == g.edges
    assert relabel(g, (1, 0, 2)).edges == frozenset({(0, 1), (0, 2)})


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        relabel(path_graph(3), (0, 0, 2))


@given(graphs(min_n=1), st.integers(min_value=0, max_value=2**30))
def test_relabel_preserves_degree_multiset(g, seed):
    theta = list(range(g.n))
    random.Random(seed).shuffle(theta)
    h = relabel(g, theta)
    assert sorted(h.degree(v) for v in range(h.n)) == sorted(
        g.degree(v) for v in range(g.n)
    )


def test_is_connected():
    assert is_connected(path_graph(6))
    assert is_connected(complete_graph(1))
    assert is_connected(edgeless_graph(0))
    assert not is_connected(edgeless_graph(2))
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two_parts)
