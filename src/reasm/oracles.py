"""Brute-force oracles: minimum bisections, 4-block clique covers, partition counts.

Everything here is exhaustive by construction and therefore only usable on
small instances; each oracle enforces an explicit size cap and raises
ValueError beyond it. The point of these is to be obviously correct so the
clever solvers and reductions can be checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, check_vertex_set, is_clique, vertices_of

MAX_BISECTION_N = 16
MAX_COVER_N = 20


@dataclass(frozen=True)
class Bisection:
    """An unordered split of V(G) into two equal halves. Block a holds the
    lowest-numbered vertex so that the pair has one canonical form."""

    a: int
    b: int

    def __post_init__(self):
        if self.a & self.b:
            raise ValueError("bisection blocks overlap")
        if self.a.bit_count() != self.b.bit_count():
            raise ValueError("bisection blocks differ in size")
        union = self.a | self.b
        if union and not self.a & (union & -union):
            raise ValueError("block a must contain the lowest vertex")

    @staticmethod
    def of(x: int, y: int) -> "Bisection":
        union = x | y
        if union and y & (union & -union):
            x, y = y, x
        return Bisection(x, y)

    def to_lists(self):
        return [list(vertices_of(self.a)), list(vertices_of(self.b))]


def min_bisections(g: Graph):
    """Minimum bisection value of g together with every optimal bisection.

    Enumerates all splits with vertex 0 pinned to block a, in lexicographic
    order of block a's sorted member ids (the order of
    itertools.combinations), so on the edgeless graph with n = 8 block a runs
    {0,1,2,3}, {0,1,2,4}, {0,1,2,5}, ... Block a grows one vertex at a time,
    level by level, and carries its cut along:
    cut(a | {v}) = cut(a) + deg(v) - 2*|N(v) & a|.
    Returns (value, [Bisection, ...]).
    """
    n = g.n
    if n < 2 or n % 2:
        raise ValueError("bisection needs an even vertex count of at least 2")
    if n > MAX_BISECTION_N:
        raise ValueError(f"bisection oracle is capped at n <= {MAX_BISECTION_N}")
    adj = g.adj
    half = n // 2
    # (block a, its cut) pairs. A prefix is extended only by vertices above
    # its largest member that leave room for the members still to come.
    level = [(1, adj[0].bit_count())]
    for size in range(1, half):
        stop = n - half + size + 1
        level = [
            (a | 1 << v, cut + adj[v].bit_count() - 2 * (adj[v] & a).bit_count())
            for a, cut in level
            for v in range(a.bit_length(), stop)
        ]
    best = min(cut for _, cut in level)
    full = g.full_mask
    return best, [Bisection(a, full ^ a) for a, cut in level if cut == best]


def bisection_type(bis: Bisection, x: int, y: int) -> bool:
    """True when x and y land whole on opposite sides of the bisection."""
    if x & y:
        raise ValueError("type sets must be disjoint")
    return (x & bis.a == x and y & bis.b == y) or (x & bis.b == x and y & bis.a == y)


# -- clique covers ------------------------------------------------------------


def verify_cover(g: Graph, blocks, sizes=None) -> bool:
    """Polynomial check: blocks partition V(g), each induces a complete graph,
    and (optionally) the block sizes match the given multiset."""
    union = 0
    for block in blocks:
        check_vertex_set(g, block)
        if union & block:
            return False
        union |= block
        if not is_clique(g, block):
            return False
    if union != g.full_mask:
        return False
    if sizes is not None:
        if sorted(b.bit_count() for b in blocks) != sorted(sizes):
            return False
    return True


def find_clique_cover(g: Graph, k: int):
    """Partition of V(g) into at most k cliques, or None.

    Backtracking over vertices in id order; a vertex may only open the first
    empty block, which prunes block-order symmetry (vertex 0 lands in block 0).
    """
    if k < 1:
        raise ValueError("need at least one block")
    if g.n > MAX_COVER_N:
        raise ValueError(f"clique cover oracle is capped at n <= {MAX_COVER_N}")
    if g.n == 0:
        return []
    blocks = [0] * k

    def place(v):
        if v == g.n:
            return True
        bit = 1 << v
        for i in range(k):
            if blocks[i] and g.adj[v] & blocks[i] != blocks[i]:
                continue
            opened = blocks[i] == 0
            blocks[i] |= bit
            if place(v + 1):
                return True
            blocks[i] &= ~bit
            if opened:
                break  # later empty blocks are interchangeable
        return False

    if not place(0):
        return None
    return [b for b in blocks if b]


def find_fixed_size_cover4(g: Graph, sizes):
    """Partition of V(g) into four cliques with the given sizes, or None.

    Returns blocks ordered to match the input size tuple. Sizes must be four
    positive ints summing to n.
    """
    sizes = tuple(sizes)
    if len(sizes) != 4 or any(s < 1 for s in sizes) or sum(sizes) != g.n:
        raise ValueError("sizes must be four positive ints summing to n")
    if g.n > MAX_COVER_N:
        raise ValueError(f"clique cover oracle is capped at n <= {MAX_COVER_N}")
    order = sorted(range(4), key=lambda i: -sizes[i])
    caps = [sizes[i] for i in order]
    blocks = [0, 0, 0, 0]
    counts = [0, 0, 0, 0]

    def place(v):
        if v == g.n:
            return True
        bit = 1 << v
        for i in range(4):
            if counts[i] == caps[i]:
                continue
            if counts[i] == 0 and i > 0 and counts[i - 1] == 0 and caps[i] == caps[i - 1]:
                continue  # empty blocks with equal caps are interchangeable
            if blocks[i] and g.adj[v] & blocks[i] != blocks[i]:
                continue
            blocks[i] |= bit
            counts[i] += 1
            if place(v + 1):
                return True
            blocks[i] &= ~bit
            counts[i] -= 1
        return False

    if not place(0):
        return None
    result = [0, 0, 0, 0]
    for slot, i in enumerate(order):
        result[i] = blocks[slot]
    return tuple(result)


def find_equal_size_cover4(g: Graph):
    """Partition of V(g) into four cliques of size n/4 each, or None."""
    if g.n % 4:
        raise ValueError("equal-size cover needs n divisible by 4")
    if g.n == 0:
        raise ValueError("equal-size cover needs at least 4 vertices")
    q = g.n // 4
    return find_fixed_size_cover4(g, (q, q, q, q))


# -- partitions of n into exactly four parts ---------------------------------


def partitions4(n: int) -> list:
    """All descending 4-tuples (n1, n2, n3, n4) of positive ints summing to n,
    in decreasing lexicographic order."""
    if n < 4:
        raise ValueError("need n >= 4 to make four positive parts")
    parts = []
    for n1 in range(n - 3, (n + 3) // 4 - 1, -1):
        rest1 = n - n1
        for n2 in range(min(n1, rest1 - 2), (rest1 + 2) // 3 - 1, -1):
            rest2 = rest1 - n2
            hi = min(n2, rest2 - 1)
            lo = (rest2 + 1) // 2
            parts.extend((n1, n2, n3, rest2 - n3) for n3 in range(hi, lo - 1, -1))
    return parts


def p4_closed_form(n: int) -> int:
    """Number of partitions of n into exactly four positive parts, by the
    closed form: nearest integer to (n+1)^3/144 - (n+1)/48 for even n and to
    (n+1)^3/144 - (n+1)/12 for odd n (half rounds away from zero)."""
    if n < 4:
        raise ValueError("need n >= 4 to make four positive parts")
    w = n + 1
    x = Fraction(w**3, 144) - (Fraction(w, 48) if n % 2 == 0 else Fraction(w, 12))
    sign = 1 if x >= 0 else -1
    return sign * int(abs(x) + Fraction(1, 2))
