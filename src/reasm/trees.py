"""Reassembling trees: rooted binary merge trees over the vertex set of a graph.

A reassembling of a graph on n vertices is a collection of 2n-1 vertex sets
("clusters") that contains every singleton and the full vertex set, and in
which every non-root cluster X has exactly one disjoint partner Y such that
X and Y merge to another cluster X | Y of the collection. Leaves are the
singletons, the root is V(G), and every internal cluster is the disjoint
union of its two children.

Clusters are int bitmasks throughout (see graphs.mask_of / vertices_of).
The canonical order sorts clusters by size, then by vertex list; the JSON
form is the canonically sorted array of clusters as sorted vertex lists,
e.g. [[0],[1],[2],[3],[0,1],[2,3],[0,1,2,3]].

Validation places the clusters from the largest down, so that each finds its
parent, the smallest larger cluster holding it, in one pass. In a collection
whose clusters do not cross (overlap without nesting) the only possible merge
partner of x is parent ^ x. The pairwise partner search is kept for
collections with crossing clusters, to report every violation in them; no
such collection is a valid tree (checked exhaustively for n <= 6), and
from_masks refuses one regardless.

The two measures of a reassembling: alpha is the largest edge boundary over
all 2n-1 clusters, beta is the sum of all 2n-1 edge boundaries. A tree is
balanced when its height equals ceil(log2 n); for balanced trees over a
power-of-two vertex count, beta equals twice the sum of edge heights, where
the height of an edge is the height of the least cluster containing both
endpoints.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .graphs import Graph, boundary_size, mask_of, vertices_of

MAX_ISOMORPHISM_N = 8


class InvalidTreeError(ValueError):
    """Raised when a cluster collection is not a reassembling tree."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid reassembling tree: " + "; ".join(self.violations)
        )


def _fmt(mask: int) -> str:
    return "{" + ",".join(map(str, vertices_of(mask))) + "}"


def _laminar_parents(n: int, masks):
    """Parent of every cluster other than the full set, or None when two
    clusters cross (overlap without one containing the other).

    One pass over the clusters from the largest down: each vertex keeps the
    smallest cluster placed so far that holds it, starting from the full set,
    whether or not the full set is among masks. A cluster's parent is the
    owner of all of its vertices; vertices with different owners mean it
    crosses a placed cluster. masks must be distinct nonempty subsets of
    0..n-1.
    """
    full = (1 << n) - 1
    owner = [full] * n
    parents = {}
    for x in sorted(masks, key=int.bit_count, reverse=True):
        if x == full:
            continue
        members = vertices_of(x)
        parent = owner[members[0]]
        if len(set(map(owner.__getitem__, members))) > 1:
            return None
        parents[x] = parent
        for v in members:
            owner[v] = x
    return parents


def tree_violations(n: int, masks) -> list:
    """All conditions violated by a cluster collection (empty list if valid)."""
    if n < 1:
        return ["vertex count must be at least 1"]
    full = (1 << n) - 1
    collection = list(masks)
    problems = []
    seen = set()
    for m in collection:
        if m < 0:
            problems.append(f"cluster mask {m} is negative, not a nonempty subset of 0..{n - 1}")
        elif m == 0 or m & ~full:
            outside = f" (vertex ids {_fmt(m & ~full)} out of range)" if m else ""
            problems.append(f"cluster {_fmt(m)} is not a nonempty subset of 0..{n - 1}{outside}")
        elif m in seen:
            problems.append(f"duplicate cluster {_fmt(m)}")
        seen.add(m)
    if problems:
        return problems
    for v in range(n):
        if (1 << v) not in seen:
            problems.append(f"missing singleton {{{v}}}")
    if full not in seen:
        problems.append(f"missing root {_fmt(full)}")
    if len(collection) != 2 * n - 1:
        problems.append(f"wrong cluster count: {len(collection)} (expected {2 * n - 1})")
    # Without crossings the only candidate partner is parent ^ x. The full
    # set is the parent of every top cluster even when it is missing, so the
    # parent must be present too.
    parents = _laminar_parents(n, collection)
    for x in collection:
        if x == full:
            continue
        if parents is None:
            partners = [y for y in collection if x & y == 0 and (x | y) in seen]
        else:
            parent = parents[x]
            partners = [parent ^ x] if parent in seen and parent ^ x in seen else []
        if len(partners) == 0:
            problems.append(f"cluster {_fmt(x)} has no merge partner")
        elif len(partners) > 1:
            mates = ", ".join(_fmt(y) for y in sorted(partners))
            problems.append(f"cluster {_fmt(x)} has multiple merge partners: {mates}")
    return problems


def _cluster_mask(cluster) -> int:
    """mask_of for one cluster of vertex ids, naming the cluster on error."""
    try:
        return mask_of(cluster)
    except ValueError as exc:
        raise InvalidTreeError([f"cluster {cluster!r}: {exc}"]) from None


def _canonical_key(mask: int):
    return (mask.bit_count(), vertices_of(mask))


class ReassemblingTree:
    """Validated, immutable reassembling tree. Construct via the classmethods."""

    __slots__ = ("n", "clusters", "_set", "_parent", "_children", "_heights")

    def __init__(self, n, clusters, parent, children, heights):
        self.n = n
        self.clusters = clusters
        self._set = frozenset(clusters)
        self._parent = parent
        self._children = children
        self._heights = heights

    @classmethod
    def from_masks(cls, n: int, masks) -> "ReassemblingTree":
        """Validate a collection of bitmask clusters and build the tree."""
        masks = list(masks)
        problems = tree_violations(n, masks)
        if problems:
            raise InvalidTreeError(problems)
        parents = _laminar_parents(n, masks)
        if parents is None:
            # Every valid collection checked exhaustively for n <= 6 is laminar.
            raise InvalidTreeError(["clusters cross without nesting"])
        collection = sorted(masks, key=_canonical_key)
        parent = {}
        children = {}
        for x in collection:
            if x in parents:
                z = parent[x] = parents[x]
                children.setdefault(z, (min(x, z ^ x), max(x, z ^ x)))
        heights = {}
        for x in collection:  # sorted by size, so children come first
            kids = children.get(x)
            heights[x] = 0 if kids is None else 1 + max(heights[kids[0]], heights[kids[1]])
        return cls(n, tuple(collection), parent, children, heights)

    @classmethod
    def from_clusters(cls, n: int, clusters) -> "ReassemblingTree":
        """Build from an iterable of vertex-id iterables."""
        return cls.from_masks(n, [_cluster_mask(c) for c in clusters])

    @classmethod
    def from_merges(cls, n: int, merges) -> "ReassemblingTree":
        """Build bottom-up from singletons by a sequence of (set, set) merges."""
        clusters = [1 << v for v in range(n)]
        active = set(clusters)
        for a, b in merges:
            am = a if isinstance(a, int) else mask_of(a)
            bm = b if isinstance(b, int) else mask_of(b)
            if am not in active or bm not in active:
                raise InvalidTreeError(
                    [f"merge of {_fmt(am)} and {_fmt(bm)}: operand is not an unmerged cluster"]
                )
            if am & bm:
                raise InvalidTreeError([f"merge of {_fmt(am)} and {_fmt(bm)}: operands overlap"])
            active.discard(am)
            active.discard(bm)
            active.add(am | bm)
            clusters.append(am | bm)
        return cls.from_masks(n, clusters)

    @classmethod
    def from_lists(cls, lists, n: int | None = None) -> "ReassemblingTree":
        """Build from the JSON shape (list of vertex-id lists). n defaults to
        the size of the largest cluster."""
        masks = [_cluster_mask(c) for c in lists]
        if n is None:
            n = max((m.bit_count() for m in masks), default=0)
        return cls.from_masks(n, masks)

    @classmethod
    def from_json(cls, text: str, n: int | None = None) -> "ReassemblingTree":
        data = json.loads(text)
        if not isinstance(data, list):
            raise InvalidTreeError(["tree JSON must be an array of clusters"])
        for cluster in data:
            if not isinstance(cluster, list):
                raise InvalidTreeError([f"cluster {cluster!r} is not an array of vertex ids"])
        return cls.from_lists(data, n)

    # -- structure ---------------------------------------------------------

    @property
    def root(self) -> int:
        return (1 << self.n) - 1

    @property
    def height(self) -> int:
        return self._heights[self.root]

    def cluster_height(self, x: int) -> int:
        """Height of the subtree rooted at cluster x."""
        if x not in self._set:
            raise ValueError(f"{_fmt(x)} is not a cluster of this tree")
        return self._heights[x]

    def is_balanced(self) -> bool:
        """True when the height is the minimum possible, ceil(log2 n)."""
        return self.height == (self.n - 1).bit_length()

    def parent_of(self, x: int) -> int:
        if x not in self._set:
            raise ValueError(f"{_fmt(x)} is not a cluster of this tree")
        if x == self.root:
            raise ValueError("the root has no parent")
        return self._parent[x]

    def sibling_of(self, x: int) -> int:
        return self.parent_of(x) ^ x

    def children_of(self, x: int):
        """The two children of x, or None when x is a leaf."""
        if x not in self._set:
            raise ValueError(f"{_fmt(x)} is not a cluster of this tree")
        return self._children.get(x)

    def leaf_path(self, v: int) -> tuple:
        """Clusters from the singleton {v} up to the root, inclusive."""
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")
        x = 1 << v
        path = [x]
        while x != self.root:
            x = self._parent[x]
            path.append(x)
        return tuple(path)

    def __contains__(self, mask: int) -> bool:
        return mask in self._set

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def __eq__(self, other):
        return (
            isinstance(other, ReassemblingTree)
            and self.n == other.n
            and self.clusters == other.clusters
        )

    def __hash__(self):
        return hash((self.n, self.clusters))

    def __repr__(self):
        return f"ReassemblingTree(n={self.n}, height={self.height})"

    # -- transforms and serialization ---------------------------------------

    def apply_bijection(self, theta) -> "ReassemblingTree":
        """Relabel every cluster through a vertex bijection."""
        theta = tuple(theta)
        if sorted(theta) != list(range(self.n)):
            raise ValueError("theta is not a permutation of the vertices")
        mapped = [mask_of(theta[v] for v in vertices_of(x)) for x in self.clusters]
        return ReassemblingTree.from_masks(self.n, mapped)

    def to_lists(self) -> list:
        return [list(vertices_of(x)) for x in self.clusters]

    def to_json(self) -> str:
        return json.dumps(self.to_lists(), separators=(",", ":"))


# -- measures ---------------------------------------------------------------


@dataclass(frozen=True)
class MeasurePair:
    alpha: int
    beta: int


def _check_pair(g: Graph, t: ReassemblingTree):
    if g.n != t.n:
        raise ValueError(f"graph has {g.n} vertices but tree has {t.n}")


def cluster_degree(g: Graph, t: ReassemblingTree, x: int) -> int:
    """Edge boundary size of cluster x."""
    _check_pair(g, t)
    if x not in t:
        raise ValueError(f"{_fmt(x)} is not a cluster of this tree")
    return boundary_size(g, x)


def measures(g: Graph, t: ReassemblingTree) -> MeasurePair:
    """alpha (max cluster boundary) and beta (sum of cluster boundaries).

    The boundaries are summed inline from the adjacency masks: the tree's
    clusters were validated as subsets of 0..n-1 when it was built, and
    _check_pair pins n to the graph's.
    """
    _check_pair(g, t)
    adj = g.adj
    full = g.full_mask
    degs = []
    for x in t.clusters:
        out = full ^ x
        degree = 0
        while x:
            low = x & -x
            degree += (adj[low.bit_length() - 1] & out).bit_count()
            x ^= low
        degs.append(degree)
    return MeasurePair(alpha=max(degs), beta=sum(degs))


def edge_height(g: Graph, t: ReassemblingTree, e) -> int:
    """Height of the least cluster containing both endpoints of edge e."""
    _check_pair(g, t)
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    vbit = 1 << v
    for x in t.leaf_path(u):
        if x & vbit:
            return t.cluster_height(x)
    raise AssertionError("root contains every vertex")  # unreachable


def beta_via_edge_heights(g: Graph, t: ReassemblingTree) -> int:
    """beta computed as twice the sum of edge heights.

    Only valid for balanced trees over a power-of-two vertex count, where
    every leaf-to-root path climbs through every level exactly once.
    """
    _check_pair(g, t)
    if g.n & (g.n - 1):
        raise ValueError("edge-height identity needs a power-of-two vertex count")
    if not t.is_balanced():
        raise ValueError("edge-height identity needs a balanced tree")
    # Each edge has exactly one least common cluster z, the one whose two
    # children it bridges, so the edge heights sum to
    # sum_z height(z) * bridges(children of z): one pass over the internal
    # clusters in place of a leaf-to-root walk per edge.
    adj = g.adj
    total = 0
    for z, (a, b) in t._children.items():
        crossing = 0
        while a:
            low = a & -a
            crossing += (adj[low.bit_length() - 1] & b).bit_count()
            a ^= low
        total += t._heights[z] * crossing
    return 2 * total


def find_isomorphism(g: Graph, t1: ReassemblingTree, t2: ReassemblingTree):
    """Vertex bijection mapping t1 onto t2 that preserves every cluster
    boundary size, or None. Exhaustive search, so n is capped.
    """
    _check_pair(g, t1)
    _check_pair(g, t2)
    if g.n > MAX_ISOMORPHISM_N:
        raise ValueError(f"isomorphism search is capped at n <= {MAX_ISOMORPHISM_N}")
    deg1 = {x: boundary_size(g, x) for x in t1.clusters}
    deg2 = {x: boundary_size(g, x) for x in t2.clusters}
    profile1 = sorted((x.bit_count(), d) for x, d in deg1.items())
    profile2 = sorted((x.bit_count(), d) for x, d in deg2.items())
    if profile1 != profile2:
        return None
    targets = frozenset(t2.clusters)
    for theta in itertools.permutations(range(g.n)):
        ok = True
        for x in t1.clusters:
            image = 0
            for v in vertices_of(x):
                image |= 1 << theta[v]
            if image not in targets or deg1[x] != deg2[image]:
                ok = False
                break
        if ok:
            return theta
    return None
