"""Reductions between bisection, clique cover, and balanced-tree optimization.

Two constructions do the work:

* The augmented graph of g (n even) pads g with two disjoint cliques H and I
  of size q = n/2 + r each, where r is the smallest even padding that makes
  n + r a power of two. Every vertex of g is joined to every vertex of
  H and I; H and I are not joined to each other. The augmented graph has
  2n + 2r = 2^(p+1) vertices, and its minimum bisections always separate
  H from I, so they restrict to minimum bisections of g. When r = 0, the
  root split of any alpha-minimal balanced tree of the augmented graph is
  such a minimum bisection, with cut value n^2/2 + C where C is the minimum
  bisection value of g.

* The equal-size gadget for a fixed-size 4-clique cover instance (g, sizes)
  appends four cliques A_i of size n - n_i, each fully joined to V(g) and
  not joined to each other, giving a 4n-vertex graph that has an equal-size
  4-clique cover exactly when g has a cover with the given sizes.

Extraction helpers assert the structural conclusion they rely on and raise
LemmaViolation when it fails; verify_lemma runs those conclusions over seeded
instance batches and reports the first counterexample found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .generators import (
    DEFAULT_SEED,
    planted_clique_cover,
    planted_independent_quarters,
    random_balanced_tree,
    random_connected_graph,
    random_graph,
)
from .graphs import (
    Graph,
    bridge_count,
    complement,
    format_graph,
    induced_subgraph,
    is_clique,
    is_independent,
    mask_of,
    vertices_of,
)
from .oracles import (
    Bisection,
    bisection_type,
    find_equal_size_cover4,
    min_bisections,
    verify_cover,
)
from .solvers import (
    encode_beta_max_qp,
    maximize_qp,
    optimal_balanced_trees,
    qp_objective,
)
from .trees import ReassemblingTree, beta_via_edge_heights, measures


class LemmaViolation(Exception):
    """A structural conclusion this reduction relies on failed to hold."""


# -- augmented graph ----------------------------------------------------------


def padding(n: int) -> int:
    """Smallest even r >= 0 with n + r a power of two (n even)."""
    if n < 2 or n % 2:
        raise ValueError("padding is defined for even n >= 2")
    r = 0
    while (n + r) & (n + r - 1):
        r += 2
    return r


@dataclass(frozen=True)
class AugmentedGraph:
    """g padded with the two fully-joined cliques H and I."""

    graph: Graph
    g_mask: int
    h_mask: int
    i_mask: int
    r: int
    q: int

    @property
    def base_n(self) -> int:
        return self.g_mask.bit_count()


def augment(g: Graph) -> AugmentedGraph:
    """Build the augmented graph. Vertices keep their ids; H occupies
    n..n+q-1 and I occupies n+q..n+2q-1."""
    n = g.n
    if n < 2 or n % 2:
        raise ValueError("augmentation needs an even vertex count of at least 2")
    r = padding(n)
    q = n // 2 + r
    h = range(n, n + q)
    i = range(n + q, n + 2 * q)
    edges = set(g.edges)
    for part in (h, i):
        edges.update((u, v) for u in part for v in part if u < v)
        edges.update((u, v) for u in range(n) for v in part)
    graph = Graph(n + 2 * q, frozenset(edges))
    return AugmentedGraph(
        graph=graph,
        g_mask=(1 << n) - 1,
        h_mask=mask_of(h),
        i_mask=mask_of(i),
        r=r,
        q=q,
    )


def min_bisection_via_augment(g: Graph):
    """Minimum bisection of g recovered through the augmented graph.

    Takes the oracle-minimum bisection of the augmented graph, checks that it
    separates H from I, and restricts it to V(g). Returns (value, Bisection).
    """
    ag = augment(g)
    _, optima = min_bisections(ag.graph)
    best = optima[0]
    if not bisection_type(best, ag.h_mask, ag.i_mask):
        raise LemmaViolation(
            "a minimum bisection of the augmented graph fails to separate "
            f"the added cliques: {best.to_lists()}"
        )
    a = best.a & ag.g_mask
    b = best.b & ag.g_mask
    if a.bit_count() != b.bit_count():
        raise LemmaViolation("restriction to the base graph is not a bisection")
    return bridge_count(g, a, b), Bisection.of(a, b)


def min_bisection_from_alpha_optimal(ag: AugmentedGraph, t: ReassemblingTree) -> Bisection:
    """Root split of an alpha-minimal balanced tree of the augmented graph,
    checked to be a minimum bisection of the augmented graph.

    Requires r = 0 (no padding). The check asserts the cut equals
    n^2/2 + C with C the minimum bisection value of the base graph.
    """
    if ag.r != 0:
        raise ValueError("root-split extraction needs an unpadded augmentation (r = 0)")
    if t.n != ag.graph.n:
        raise ValueError("tree does not match the augmented graph")
    if not t.is_balanced():
        raise ValueError("root-split extraction needs a balanced tree")
    a, b = t.children_of(t.root)
    cut = bridge_count(ag.graph, a, b)
    base, _ = induced_subgraph(ag.graph, ag.g_mask)
    c, _ = min_bisections(base)
    n = ag.base_n
    expected = n * n // 2 + c
    if cut != expected:
        raise LemmaViolation(
            f"root split cuts {cut} edges, expected n^2/2 + C = {expected}"
        )
    return Bisection.of(a, b)


# -- equal-size gadget --------------------------------------------------------


def gadget_blocks(n: int, sizes) -> tuple:
    """Masks of the four appended cliques, laid out after the base vertices."""
    sizes = tuple(sizes)
    start = n
    blocks = []
    for s in sizes:
        blocks.append(mask_of(range(start, start + (n - s))))
        start += n - s
    return tuple(blocks)


def equal_size_gadget(g: Graph, sizes) -> Graph:
    """Reduce fixed-size 4-clique cover to equal-size 4-clique cover.

    Appends a clique A_i of size n - n_i per requested size, fully joined to
    V(g) and to nothing else. The result has 4n vertices and has an
    equal-size cover (four blocks of size n) exactly when g has a cover with
    the given sizes: each A_i absorbs one cover block of size n_i.
    """
    sizes = tuple(sizes)
    n = g.n
    if len(sizes) != 4 or any(s < 1 for s in sizes) or sum(sizes) != n:
        raise ValueError("sizes must be four positive ints summing to n")
    edges = set(g.edges)
    base = range(n)
    for block in gadget_blocks(n, sizes):
        members = vertices_of(block)
        edges.update((u, v) for u in members for v in members if u < v)
        edges.update((u, v) for u in base for v in members)
    return Graph(4 * n, frozenset(edges))


# -- grandchildren extraction -------------------------------------------------


def _checked_grandchildren(g: Graph, t: ReassemblingTree, what: str, is_block, violation: str) -> tuple:
    """The four grandchildren of balanced tree t over g, each checked with
    is_block(g, block); a failing block raises LemmaViolation."""
    if g.n != t.n:
        raise ValueError("tree does not match the graph")
    if g.n < 4 or g.n & (g.n - 1):
        raise ValueError(f"{what} extraction needs n = 2^p with p >= 2")
    if not t.is_balanced():
        raise ValueError(f"{what} extraction needs a balanced tree")
    blocks = tuple(x for x in t.clusters if x.bit_count() == g.n // 4)
    for block in blocks:
        if not is_block(g, block):
            raise LemmaViolation(f"grandchild {list(vertices_of(block))} {violation}")
    return blocks


def clique_cover_from_beta_optimal(g: Graph, t: ReassemblingTree) -> tuple:
    """Grandchildren of a beta-minimal balanced tree, checked to be an
    equal-size clique cover of g."""
    return _checked_grandchildren(g, t, "cover", is_clique, "does not induce a complete graph")


def independent_grandchildren_from_beta_max(g: Graph, t: ReassemblingTree) -> tuple:
    """Grandchildren of a beta-maximal balanced tree, checked to be four
    disjoint independent sets."""
    return _checked_grandchildren(g, t, "grandchildren", is_independent, "is not an independent set")


def has_independent_quarters(g: Graph) -> bool:
    """Whether V(g) splits into four independent sets of size n/4 (oracle)."""
    return find_equal_size_cover4(complement(g)) is not None


# -- lemma verification harness -----------------------------------------------


LEMMA_SUMMARIES = {
    1: "every minimum bisection of the augmented graph separates the added cliques",
    2: "the minimum bisection value recovered through the augmented graph matches the direct oracle",
    3: "alpha-minimal balanced trees of the unpadded augmented graph split off minimum bisections",
    4: "beta equals twice the sum of edge heights on balanced trees",
    5: "beta-maximal trees of graphs with independent quarters have independent grandchildren",
    6: "beta-minimal trees of positive cover instances read off equal-size clique covers",
}


@dataclass(frozen=True)
class LemmaReport:
    lemma: int
    tried: int
    passed: bool
    counterexample: dict | None = None

    def to_json_dict(self) -> dict:
        doc = {"lemma": self.lemma, "tried": self.tried, "passed": self.passed}
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc


def _check_lemma1(g: Graph):
    ag = augment(g)
    _, optima = min_bisections(ag.graph)
    bad = [b for b in optima if not bisection_type(b, ag.h_mask, ag.i_mask)]
    if bad:
        return {"detail": f"{len(bad)} of {len(optima)} minimum bisections mix the added cliques",
                "bisection": bad[0].to_lists()}
    return None


def _check_lemma2(g: Graph):
    direct, _ = min_bisections(g)
    via, _ = min_bisection_via_augment(g)
    if direct != via:
        return {"detail": f"augmented pipeline found {via}, direct oracle found {direct}"}
    return None


def _check_lemma3(g: Graph):
    ag = augment(g)
    if ag.r != 0:
        raise ValueError("this check needs a power-of-two vertex count (r = 0)")
    big = ag.graph
    big_value, _ = min_bisections(big)
    c, _ = min_bisections(g)
    n = g.n
    if big_value != n * n // 2 + c:
        return {"detail": f"augmented minimum bisection {big_value} is not n^2/2 + C = {n * n // 2 + c}"}
    # The walk's root splits are exactly those of the alpha-minimal trees.
    for t in optimal_balanced_trees(big, "alpha", "min"):
        a, b = t.children_of(t.root)
        cut = bridge_count(big, a, b)
        ra, rb = a & ag.g_mask, b & ag.g_mask
        if cut != big_value:
            detail = f"alpha-minimal root split cuts {cut}, minimum is {big_value}"
        elif ra.bit_count() != n // 2 or rb.bit_count() != n // 2:
            detail = "alpha-minimal root split does not restrict to a bisection"
        elif bridge_count(g, ra, rb) != c:
            detail = f"restricted split cuts {bridge_count(g, ra, rb)}, minimum is {c}"
        else:
            continue
        return {"detail": detail, "rootSplit": [list(vertices_of(a)), list(vertices_of(b))]}
    return None


def _check_lemma4(g: Graph, t: ReassemblingTree):
    direct = measures(g, t).beta
    via_heights = beta_via_edge_heights(g, t)
    if direct != via_heights:
        return {"detail": f"beta {direct} but twice the edge-height sum is {via_heights}",
                "tree": t.to_lists()}
    return None


def _first_failing_optimal_tree(g: Graph, sense: str, extract):
    """Walk the beta-optimal trees of g in enumeration order and describe the
    first on which extract(g, t) raises LemmaViolation, as {"detail", "tree"};
    None when every tree passes."""
    for t in optimal_balanced_trees(g, "beta", sense):
        try:
            extract(g, t)
        except LemmaViolation as exc:
            return {"detail": str(exc), "tree": t.to_lists()}
    return None


def _check_lemma5(g: Graph):
    if not has_independent_quarters(g):
        return None  # hypothesis absent: the claim says nothing here, skip
    failure = _first_failing_optimal_tree(g, "max", independent_grandchildren_from_beta_max)
    if failure is not None:
        return failure
    model = encode_beta_max_qp(g)
    best, winners = maximize_qp(model)
    if not any(qp_objective(model, w).theta2 == 0 for w in winners):
        return {"detail": f"no QP maximizer (theta = {best.theta}) reaches theta2 = 0"}
    return None


def _checked_cover(g: Graph, t: ReassemblingTree) -> None:
    blocks = clique_cover_from_beta_optimal(g, t)
    if not verify_cover(g, blocks, sizes=[g.n // 4] * 4):
        raise LemmaViolation("extracted grandchildren fail the cover checker")


def _check_lemma6(g: Graph):
    if find_equal_size_cover4(g) is None:
        return None  # not a positive cover instance: the claim says nothing, skip
    return _first_failing_optimal_tree(g, "min", _checked_cover)


_LEMMA_DEFAULT_N = {1: 6, 2: 6, 3: 4, 4: 8, 5: 8, 6: 8}

# The instance sizes each check can run: lemmas 1-2 need an even n whose
# augmented graph, 2(n + r) vertices, stays within the bisection oracle (16),
# lemma 3 an unpadded augmented graph within tree enumeration (2n <= 8), and
# lemmas 5-6 planted quarters within tree enumeration. Lemma 4 takes any
# power of two.
_LEMMA_N = {1: (2, 4, 6, 8), 2: (2, 4, 6, 8), 3: (2, 4), 5: (4, 8), 6: (4, 8)}


def _check_lemma_n(lemma: int, n) -> None:
    if lemma == 4:
        if type(n) is not int or n < 1 or n & (n - 1):
            raise ValueError(f"lemma 4 needs a power-of-two n, got {n!r}")
    elif type(n) is not int or n not in _LEMMA_N[lemma]:
        sizes = ", ".join(map(str, _LEMMA_N[lemma]))
        raise ValueError(f"lemma {lemma} supports n in {{{sizes}}}, got {n!r}")


def verify_lemma(
    lemma: int,
    instances: int = 20,
    seed: int = DEFAULT_SEED,
    n: int | None = None,
) -> LemmaReport:
    """Check one structural claim over a batch of seeded instances.

    Returns a LemmaReport; on the first failing instance the report carries
    the serialized graph and a short description of what went wrong. An n
    the lemma's check cannot run raises ValueError before any instance.
    """
    if type(lemma) is not int or lemma not in LEMMA_SUMMARIES:
        raise ValueError(f"unknown lemma id {lemma!r} (valid: 1..6)")
    if type(instances) is not int:
        raise ValueError(f"instance count must be an int, got {instances!r}")
    if instances < 1:
        raise ValueError("need at least one instance")
    if n is None:
        n = _LEMMA_DEFAULT_N[lemma]
    _check_lemma_n(lemma, n)
    rng = random.Random(seed)
    for index in range(instances):
        if lemma in (1, 2):
            g = random_connected_graph(n, rng)
            result = _check_lemma1(g) if lemma == 1 else _check_lemma2(g)
        elif lemma == 3:
            g = random_connected_graph(n, rng)
            result = _check_lemma3(g)
        elif lemma == 4:
            g = random_graph(n, rng)
            t = random_balanced_tree(n, rng)
            result = _check_lemma4(g, t)
        elif lemma == 5:
            g, _ = planted_independent_quarters(n, rng)
            result = _check_lemma5(g)
        else:
            g, _ = planted_clique_cover(n, rng)
            result = _check_lemma6(g)
        if result is not None:
            counterexample = {"graph": format_graph(g), **result}
            return LemmaReport(lemma, index + 1, False, counterexample)
    return LemmaReport(lemma, instances, True)
