"""Simple undirected graphs over dense integer vertices, with bitset vertex sets.

Vertices are always 0..n-1. A vertex set is a plain int bitmask (bit v set
means vertex v is in the set), which keeps subset enumeration in the solvers
and oracles cheap. Graphs are immutable after construction.

The text exchange format is an edge list: optional '#' comment lines, a
header line "n m", then exactly m lines "u v" with 0 <= u < v < n. The
serializer emits edges sorted lexicographically, so serialize(parse(text))
is a canonical form and parse(serialize(g)) == g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def mask_of(vertices) -> int:
    """Bitmask for an iterable of vertex ids. Each id must be a non-negative
    int; a bool, a float, a string or a negative int raises ValueError."""
    m = 0
    for v in vertices:
        if type(v) is not int or v < 0:
            raise ValueError(f"vertex id {v!r} is not a non-negative int")
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted vertex ids of a bitmask."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative, not a vertex set")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative, not a vertex set")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph. Edges are (u, v) tuples with u < v."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph, normalizing edge orientation. Rejects self-loops."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        return Graph(n, frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def adj(self) -> tuple:
        """Neighbor bitmask per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def check_vertex_set(g: Graph, mask: int, what: str = "vertex set") -> None:
    """Reject masks that are not subsets of V(g)."""
    if mask < 0:
        raise ValueError(f"{what} is a negative mask ({mask}), not a subset of 0..{g.n - 1}")
    outside = mask & ~g.full_mask
    if outside:
        raise ValueError(f"{what} has vertex ids {vertices_of(outside)!r} not within 0..{g.n - 1}")


def boundary_size(g: Graph, a: int) -> int:
    """Number of edges with exactly one endpoint in a."""
    check_vertex_set(g, a)
    out = ~a & g.full_mask
    total = 0
    rest = a
    while rest:
        low = rest & -rest
        total += (g.adj[low.bit_length() - 1] & out).bit_count()
        rest ^= low
    return total


def bridge_count(g: Graph, a: int, b: int) -> int:
    """Number of edges with one endpoint in a and the other in b (disjoint sets)."""
    check_vertex_set(g, a)
    check_vertex_set(g, b)
    if a & b:
        raise ValueError("bridge endpoint sets must be disjoint")
    total = 0
    rest = a
    while rest:
        low = rest & -rest
        total += (g.adj[low.bit_length() - 1] & b).bit_count()
        rest ^= low
    return total


def bridges(g: Graph, a: int, b: int) -> frozenset:
    """The set of edges with one endpoint in a and the other in b.

    a and b must be disjoint subsets of V(g); they need not cover V(g).
    """
    check_vertex_set(g, a)
    check_vertex_set(g, b)
    if a & b:
        raise ValueError("bridge endpoint sets must be disjoint")
    found = []
    for u in iter_bits(a):
        for v in iter_bits(g.adj[u] & b):
            found.append((u, v) if u < v else (v, u))
    return frozenset(found)


def induced_subgraph(g: Graph, a: int):
    """Subgraph induced by a, relabeled to 0..|a|-1.

    Returns (subgraph, labels) where labels[new_id] = old_id; labels are in
    increasing order of old id, so the relabeling is deterministic.
    """
    check_vertex_set(g, a)
    labels = vertices_of(a)
    index = {old: new for new, old in enumerate(labels)}
    edges = [(index[u], index[v]) for u, v in g.edges if (1 << u) & a and (1 << v) & a]
    return Graph.from_edges(len(labels), edges), labels


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in g.edges
    ]
    return Graph(g.n, frozenset(edges))


def relabel(g: Graph, theta) -> Graph:
    """Apply a vertex bijection: edge {u, v} becomes {theta[u], theta[v]}."""
    theta = tuple(theta)
    if sorted(theta) != list(range(g.n)):
        raise ValueError("theta is not a permutation of the vertices")
    return Graph.from_edges(g.n, ((theta[u], theta[v]) for u, v in g.edges))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, frozenset((v, v + 1) for v in range(n - 1)))


def edgeless_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return Graph(n, frozenset())


def is_clique(g: Graph, block: int) -> bool:
    """True when every two vertices of block are adjacent."""
    return all(g.adj[v] & block == block ^ (1 << v) for v in iter_bits(block))


def is_independent(g: Graph, block: int) -> bool:
    """True when no two vertices of block are adjacent."""
    return all(g.adj[v] & block == 0 for v in iter_bits(block))


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.full_mask


def parse_graph(text: str) -> Graph:
    """Parse the edge-list text format. Raises ValueError with a line number."""
    header = None
    n = m = 0
    edges = set()
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise ValueError(f"line {lineno}: expected header 'n m'") from None
            if n < 0 or m < 0:
                raise ValueError(f"line {lineno}: header counts must be non-negative")
            header = (n, m)
            continue
        if count == m:
            raise ValueError(f"line {lineno}: unexpected extra line (expected {m} edges)")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected edge 'u v'") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if u > v:
            raise ValueError(f"line {lineno}: edge endpoints must satisfy u < v")
        if not (0 <= u and v < n):
            raise ValueError(f"line {lineno}: vertex id out of range for n={n}")
        if (u, v) in edges:
            raise ValueError(f"line {lineno}: duplicate edge ({u}, {v})")
        edges.add((u, v))
        count += 1
    if header is None:
        raise ValueError("line 1: expected header 'n m'")
    if count != m:
        raise ValueError(f"expected {m} edge lines, found {count}")
    return Graph(n, frozenset(edges))


def format_graph(g: Graph) -> str:
    """Serialize to the edge-list text format (canonical: edges sorted)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"
