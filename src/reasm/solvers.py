"""Exact and heuristic optimization of balanced reassembling trees.

A balanced tree over n = 2^p vertices is necessarily full: every cluster has
a power-of-two size and splits into two equal halves. That makes exact
optimization a dynamic program over equal halvings of vertex subsets, and
makes exhaustive enumeration feasible for n <= 8 (1, 3, and 315 trees for
n = 2, 4, 8).

The dynamic program fills a flat table indexed by vertex mask, level by
level: singletons, then every subset of size 2, 4, ..., n. A cluster's
halvings (the halves that keep its lowest vertex) are assembled from
per-byte submask tables grouped by popcount, and each cluster is reduced in
one pass of C-level map/min over those halves. Cluster boundaries are summed
inline from the adjacency masks. One step reads a cluster's optimal
halvings off the filled table. optimize_balanced follows it top-down,
breaking ties toward the numerically smallest block, and
optimal_balanced_trees walks every optimal halving with the recursion that
enumerate_balanced_trees runs over all halvings.

The quadratic-program encoding targets beta maximization. With grandchildren
X1..X4 at height p-2 (X1, X2 under one root child, X3, X4 under the other),
an edge contributes 2p when its endpoints fall across the two root halves,
2(p-1) when they fall in the sibling classes {X1,X2} or {X3,X4}, and the
relaxed credit 2(p-2) when both endpoints share one block. Writing theta for
the objective, m for the edge count, theta1 for the number of sibling-class
edges and theta2 for the number of same-block edges gives the identity
theta = 2pm - 2*theta1 - 4*theta2. qp_objective evaluates it term by term.
The QP is the paper's formulation and a test oracle; verify-lemma does not
run it, because at n = 4 and 8 the objective of an assignment is beta of the
balanced tree with those grandchildren, so the QP maximizers are the beta-max
trees that the lemma 5 check already walks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, product, starmap
from operator import add, or_

# boundary_size is unused here but kept as a module attribute: the benchmark's
# self-test (bench/selftest.py) checks that its tracer rebinds solvers.boundary_size.
from .graphs import Graph, boundary_size, bridge_count, iter_bits, mask_of, vertices_of  # noqa: F401
from .trees import MeasurePair, ReassemblingTree, measures

MAX_DP_N = 16
MAX_ENUMERATION_N = 8

CROSS_CLASSES = ((1, 3), (1, 4), (2, 3), (2, 4))
SIBLING_CLASSES = ((1, 2), (3, 4))
SAME_CLASSES = ((1, 1), (2, 2), (3, 3), (4, 4))


def _check_power_of_two(n: int, what: str):
    if n < 1 or n & (n - 1):
        raise ValueError(f"{what} needs a power-of-two vertex count, got {n}")


def _halvings(mask: int):
    """Unordered equal splits {a, b} of mask; a always holds mask's lowest bit."""
    bits = vertices_of(mask)
    half = len(bits) // 2
    pivot = 1 << bits[0]
    for combo in itertools.combinations([1 << v for v in bits[1:]], half - 1):
        a = pivot | sum(combo)
        yield a, mask ^ a


@lru_cache(maxsize=None)
def _byte_tables():
    """Per-byte tables that assemble the halvings of masks below 2**16.

    Returns (low, high, ids, ids_hi), each indexed by a byte value b. For
    c = 0..8, low[b][c] holds the c-bit submasks of b that keep b's lowest
    bit, and high[b][c] holds every c-bit submask of b shifted into the high
    byte. ids[b] holds the vertex ids of b's bits, ids_hi[b] the same ids
    plus 8. Built once, in a few milliseconds; about 0.3 MB, because the
    shifted values are shared int objects.
    """
    subs = [((0,),) + ((),) * 8]
    for b in range(1, 256):
        top = 1 << (b.bit_length() - 1)
        rest = subs[b ^ top]
        subs.append((rest[0],) + tuple(rest[c] + tuple(map(top.__or__, rest[c - 1])) for c in range(1, 9)))
    low = [((),) * 9]
    for b in range(1, 256):
        pivot = b & -b
        low.append(((),) + tuple(tuple(map(pivot.__or__, group)) for group in subs[b ^ pivot][:8]))
    shifted = [s << 8 for s in range(256)].__getitem__
    high = [tuple(tuple(map(shifted, group)) for group in row) for row in subs]
    ids = [vertices_of(b) for b in range(256)]
    return low, high, ids, [tuple(v + 8 for v in row) for row in ids]


def _balanced_table(g: Graph, objective: str, sense: str):
    """Fill the subset DP table of g and return (value, optimal_halvings).

    value is the optimum over all balanced trees of g. optimal_halvings(mask)
    lists, in no particular order, the halves a of mask that keep its lowest
    vertex and whose halving (a, mask ^ a) attains mask's optimum.
    """
    if objective not in ("alpha", "beta"):
        raise ValueError("objective must be 'alpha' or 'beta'")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    _check_power_of_two(g.n, "balanced optimization")
    if g.n > MAX_DP_N:
        raise ValueError(f"balanced optimization is capped at n <= {MAX_DP_N}")
    pick = min if sense == "min" else max
    low, high, ids, ids_hi = _byte_tables()
    full = g.full_mask
    adj = g.adj
    val = [0] * (full + 1)
    get = val.__getitem__
    if objective == "beta":
        # Both halves are read from val itself and their sums need no lookup.
        combine, scale, finish = add, 1, iter
        left = val
    else:
        # Every alpha value is the boundary of some cluster, at most n*n/4
        # edges. A copy of the table scaled by n*n/4 + 1 turns
        # max(val[a], val[b]) into one lookup in a table of maxima, which
        # costs about half of a builtin max call.
        combine, scale = max, g.n * g.n // 4 + 1
        maxima = [max(x, y) for x in range(scale) for y in range(scale)]
        finish = partial(map, maxima.__getitem__)
        left = [0] * (full + 1)
    get_left = left.__getitem__

    def splits(mask):
        """The halves of mask that keep its lowest vertex (the a of _halvings),
        and an iterator over the combined value of each halving."""
        lo, hi = mask & 0xFF, mask >> 8
        h = mask.bit_count() // 2
        if lo:  # the lowest vertex is in the low byte: pair up the byte halves by size
            halves = list(starmap(or_, chain.from_iterable(map(product, low[lo][: h + 1], high[hi][h::-1]))))
        else:  # every vertex is in the high byte: keep its lowest, add h - 1 others
            pivot = mask & -mask
            halves = list(map(pivot.__or__, high[hi ^ (pivot >> 8)][h - 1]))
        return halves, finish(map(add, map(get_left, halves), map(get, map(mask.__xor__, halves))))

    singletons = [1 << v for v in range(g.n)]
    for v, single in enumerate(singletons):
        val[single] = adj[v].bit_count()
        left[single] = val[single] * scale
    size = 2
    while size <= g.n:
        for mask in map(sum, combinations(singletons, size)):
            inner = pick(splits(mask)[1])
            members = ids[mask & 0xFF] + ids_hi[mask >> 8]
            degree = sum(map(int.bit_count, map((full ^ mask).__and__, map(adj.__getitem__, members))))
            val[mask] = v = combine(degree, inner)
            left[mask] = v * scale
        size *= 2

    def optimal_halvings(mask):
        halves, inners = splits(mask)
        inners = list(inners)
        best = pick(inners)
        return [a for a, inner in zip(halves, inners) if inner == best]

    return val[full], optimal_halvings


def optimize_balanced(g: Graph, objective: str = "beta", sense: str = "min"):
    """Exact optimum of alpha or beta over all balanced trees of g.

    Returns (tree, value). Subset dynamic program over equal halvings; ties
    between optimal halvings break toward the numerically smallest block, so
    the returned tree is deterministic.
    """
    value, optimal_halvings = _balanced_table(g, objective, sense)
    clusters = []
    pending = [g.full_mask]
    while pending:
        mask = pending.pop()
        clusters.append(mask)
        if mask & (mask - 1):
            a = min(optimal_halvings(mask), key=lambda a: min(a, mask ^ a))
            pending += (mask ^ a, a)
    return ReassemblingTree.from_masks(g.n, clusters), value


def _trees_below(mask: int, halvings):
    """Yield the cluster tuples of the balanced trees below mask whose every
    cluster X splits as (a, X ^ a) for some a in halvings(X), in that order."""
    if mask & (mask - 1) == 0:
        yield (mask,)
        return
    for a in halvings(mask):
        for ta in _trees_below(a, halvings):
            for tb in _trees_below(mask ^ a, halvings):
                yield ta + tb + (mask,)


def optimal_balanced_trees(g: Graph, objective: str = "beta", sense: str = "min"):
    """Yield the balanced trees of g whose every halving is optimal for its
    cluster in the subset DP, in the order of enumerate_balanced_trees.

    Each yielded tree attains the optimum. For beta, which is a sum over the
    clusters, these are exactly the optimal trees. Alpha is a maximum, so an
    alpha-optimal tree can hold a suboptimal subtree and the walk yields only
    some of the optimal trees; but the root's boundary is 0, so a root split
    lies in some optimal tree exactly when it is an optimal halving, and the
    walk's root splits are exactly the optimal trees' root splits.
    """
    _, optimal_halvings = _balanced_table(g, objective, sense)

    @lru_cache(maxsize=None)
    def halvings(mask):  # enumeration order: lexicographic in the member ids
        return sorted(optimal_halvings(mask), key=vertices_of)

    for masks in _trees_below(g.full_mask, halvings):
        yield ReassemblingTree.from_masks(g.n, masks)


def enumerate_balanced_trees(n: int):
    """Yield every balanced tree over n vertices exactly once, in a canonical
    order. Only feasible for n <= 8 (315 trees at n = 8)."""
    _check_power_of_two(n, "balanced enumeration")
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"balanced enumeration is capped at n <= {MAX_ENUMERATION_N}")
    for masks in _trees_below((1 << n) - 1, lambda mask: (a for a, _ in _halvings(mask))):
        yield ReassemblingTree.from_masks(n, masks)


@lru_cache(maxsize=None)
def all_balanced_trees(n: int) -> tuple:
    """Cached tuple of every balanced tree over n vertices (n <= 8)."""
    return tuple(enumerate_balanced_trees(n))


def balanced_tree_count(n: int) -> int:
    """Number of balanced trees over n = 2^p vertices: T(2) = 1 and
    T(n) = C(n, n/2)/2 * T(n/2)^2."""
    _check_power_of_two(n, "balanced tree count")
    if n <= 2:
        return 1
    return math.comb(n, n // 2) // 2 * balanced_tree_count(n // 2) ** 2


def beta_complete_closed_form(n: int) -> int:
    """beta of the complete graph on n = 2^p vertices under any balanced tree:
    (p-1)*4^p + 2^p. The value does not depend on the tree."""
    _check_power_of_two(n, "complete-graph closed form")
    if n < 2:
        raise ValueError("closed form needs n >= 2")
    p = n.bit_length() - 1
    return (p - 1) * 4**p + 2**p


# -- quadratic program for beta maximization ----------------------------------


@dataclass(frozen=True)
class QPModel:
    """Binary quadratic program whose optimum is the maximum beta.

    Variables x[i][k] for vertex i and block k in 1..4 say that vertex i
    lands in grandchild block X_k. Each term (i, k, j, l, coeff) with k <= l
    stands for the unordered class "edge {i, j} has endpoints in blocks
    {k, l}": it fires on x[i][k]*x[j][l], plus x[i][l]*x[j][k] when k < l.
    Constraints: each x binary, each block holds exactly n/4 vertices, each
    vertex lies in exactly one block.
    """

    n: int
    p: int
    block_size: int
    terms: tuple

    @property
    def m(self) -> int:
        return len(self.terms) // 10

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "variables": [f"x[{i}][{k}]" for i in range(self.n) for k in range(1, 5)],
            "terms": [list(t) for t in self.terms],
            "constraints": {
                "binary": "x[i][k] in {0, 1}",
                "blockSize": self.block_size,
                "blocksPerVertex": 1,
            },
        }


def encode_beta_max_qp(g: Graph) -> QPModel:
    """Encode beta maximization over balanced trees of g as a QP.

    Needs n = 2^p with p >= 2 so that the grandchildren level exists. Terms
    are emitted edge by edge in serializer order, ten classes per edge.
    """
    _check_power_of_two(g.n, "QP encoding")
    if g.n < 4:
        raise ValueError("QP encoding needs n >= 4 (two levels below the root)")
    p = g.n.bit_length() - 1
    coeff = {}
    for k, l in CROSS_CLASSES:
        coeff[(k, l)] = 2 * p
    for k, l in SIBLING_CLASSES:
        coeff[(k, l)] = 2 * (p - 1)
    for k, l in SAME_CLASSES:
        coeff[(k, l)] = 2 * (p - 2)
    terms = []
    for u, v in g.sorted_edges():
        for (k, l), c in coeff.items():
            terms.append((u, k, v, l, c))
    return QPModel(n=g.n, p=p, block_size=g.n // 4, terms=tuple(terms))


@dataclass(frozen=True)
class QPValue:
    theta: int
    m: int
    theta1: int
    theta2: int


def qp_objective(model: QPModel, block_of) -> QPValue:
    """Evaluate the QP objective for an assignment (block_of[v] in 1..4).

    Checks the size constraints, sums the objective term by term and
    cross-checks it against the identity theta = 2pm - 2*theta1 - 4*theta2.
    """
    blocks = tuple(block_of)
    if len(blocks) != model.n:
        raise ValueError(f"assignment must cover all {model.n} vertices")
    if any(k not in (1, 2, 3, 4) for k in blocks):
        raise ValueError("assignment values must be block ids 1..4")
    for k in range(1, 5):
        size = blocks.count(k)
        if size != model.block_size:
            raise ValueError(
                f"constraint (ii) violated: block {k} holds {size} vertices, "
                f"expected {model.block_size}"
            )
    theta = theta1 = theta2 = 0
    for i, k, j, l, c in model.terms:
        bi, bj = blocks[i], blocks[j]
        if (bi, bj) == (k, l) or (k != l and (bi, bj) == (l, k)):
            theta += c
            if (k, l) in SIBLING_CLASSES:
                theta1 += 1
            elif k == l:
                theta2 += 1
    m = model.m
    if theta != 2 * model.p * m - 2 * theta1 - 4 * theta2:
        raise ArithmeticError("objective decomposition identity failed")
    return QPValue(theta=theta, m=m, theta1=theta1, theta2=theta2)


def iter_assignments(n: int):
    """Yield every assignment of n vertices into four ordered blocks of n/4."""
    if n % 4:
        raise ValueError("assignments need n divisible by 4")
    q = n // 4
    vertices = range(n)
    for b1 in itertools.combinations(vertices, q):
        rest1 = [v for v in vertices if v not in b1]
        for b2 in itertools.combinations(rest1, q):
            rest2 = [v for v in rest1 if v not in b2]
            for b3 in itertools.combinations(rest2, q):
                b4 = [v for v in rest2 if v not in b3]
                assign = [0] * n
                for v in b1:
                    assign[v] = 1
                for v in b2:
                    assign[v] = 2
                for v in b3:
                    assign[v] = 3
                for v in b4:
                    assign[v] = 4
                yield tuple(assign)


def maximize_qp(model: QPModel):
    """Exhaustive maximization of the QP (n <= 8). Returns (best QPValue,
    list of maximizing assignments)."""
    if model.n > MAX_ENUMERATION_N:
        raise ValueError(f"exhaustive QP maximization is capped at n <= {MAX_ENUMERATION_N}")
    best = None
    winners = []
    for assign in iter_assignments(model.n):
        value = qp_objective(model, assign)
        if best is None or value.theta > best.theta:
            best = value
            winners = [assign]
        elif value.theta == best.theta:
            winners.append(assign)
    return best, winners


# -- heuristic ----------------------------------------------------------------


def _swap_descent(g: Graph, mask: int) -> int:
    """Half of mask found by single-swap descent on the cut.

    Starts from the lower half of mask's vertex ids, and on each pass applies
    the swap of u in the half with v outside it that lowers the cut most,
    taking the first such (u, v) in increasing order; stops when no swap
    lowers the cut. With gain[x] the edges from x across the cut minus those
    to its own side, the swap changes the cut by
    -gain[u] - gain[v] + 2*[uv is an edge]. So for a fixed u the best v lies
    in one of the three highest gain classes of the other side, and a pass
    costs O(|mask|) bit operations instead of a recount per candidate.
    """
    adj = g.adj
    members = vertices_of(mask)
    a = mask_of(members[: len(members) // 2])
    while True:
        b = mask ^ a
        gain = {}
        for v in members:
            own, other = (a, b) if a >> v & 1 else (b, a)
            gain[v] = (adj[v] & other).bit_count() - (adj[v] & own).bit_count()
        top = max(gain[v] for v in iter_bits(b))
        classes = [0, 0, 0]
        for v in iter_bits(b):
            k = top - gain[v]
            if k < 3:
                classes[k] |= 1 << v
        best, swap = 0, None
        for u in iter_bits(a):
            au = adj[u]
            if classes[0] & ~au:  # a non-neighbour of u with the top gain
                step, vs = 0, classes[0] & ~au
            elif classes[1] & ~au:
                step, vs = 1, classes[1] & ~au
            else:  # every top-gain vertex is a neighbour of u
                step, vs = 2, (classes[0] & au) | (classes[2] & ~au)
            change = step - top - gain[u]
            if change < best:
                best, swap = change, (1 << u) | (vs & -vs)
        if swap is None:
            return a
        a ^= swap


def greedy_balanced_heuristic(g: Graph, objective: str = "beta"):
    """Top-down recursive bisection: split each cluster to minimize the cut
    between the halves, by exhaustive search on clusters of up to 4 vertices
    and by gain-based single-swap descent above that (see _swap_descent).
    Returns (tree, value) where the value is the chosen measure of the
    heuristic tree (an upper bound on the true minimum)."""
    if objective not in ("alpha", "beta"):
        raise ValueError("objective must be 'alpha' or 'beta'")
    _check_power_of_two(g.n, "greedy balanced heuristic")
    clusters = []

    def split(mask):
        clusters.append(mask)
        size = mask.bit_count()
        if size == 1:
            return
        if size <= 4:
            a, b = min(_halvings(mask), key=lambda ab: (bridge_count(g, *ab), min(ab)))
        else:
            a = _swap_descent(g, mask)
            b = mask ^ a
        split(a)
        split(b)

    split(g.full_mask)
    tree = ReassemblingTree.from_masks(g.n, clusters)
    pair = measures(g, tree)
    return tree, (pair.alpha if objective == "alpha" else pair.beta)
