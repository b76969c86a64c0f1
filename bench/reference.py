"""Reference implementations the benchmark checks job outputs against.

These are written independently of the ``reasm`` package and use only plain
adjacency bitmasks (``adj[v]`` is the neighbour mask of vertex v) and cluster
bitmasks, so a defect introduced in the package cannot hide in its own check.
Each one reproduces the package's output at the commit that defined the
benchmark; ``references.json`` pins a sample of those outputs.
"""

from __future__ import annotations

import itertools


def bits(mask: int) -> list:
    """Set bit positions of mask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def parse_edges(text: str) -> tuple:
    """(n, edges) from the edge-list text format (no validation)."""
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return int(rows[0][0]), [(int(u), int(v)) for u, v in rows[1:]]


def adjacency(n: int, edges) -> list:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def boundary(adj, full: int, mask: int) -> int:
    out = full ^ mask
    return sum((adj[v] & out).bit_count() for v in bits(mask))


def measures(adj, n: int, clusters) -> tuple:
    """(alpha, beta): largest and summed cluster boundary."""
    full = (1 << n) - 1
    degs = [boundary(adj, full, x) for x in clusters]
    return max(degs), sum(degs)


def tree_shape(n: int, clusters):
    """Check that clusters form a reassembling tree over 0..n-1.

    Returns (problems, height): problems is a list of strings (empty when
    the collection is a valid tree) and height is the root's height.
    Clusters are placed from the largest down; each one must sit inside the
    smallest placed cluster that holds its vertices, which makes the
    collection laminar, and every internal cluster must then have exactly two
    children that cover it.
    """
    full = (1 << n) - 1
    if len(clusters) != 2 * n - 1:
        return [f"{len(clusters)} clusters, expected {2 * n - 1}"], -1
    if len(set(clusters)) != len(clusters):
        return ["duplicate clusters"], -1
    order = sorted(clusters, key=lambda x: -x.bit_count())
    if order[0] != full:
        return ["root is not the full vertex set"], -1
    owner = [full] * n
    children = {full: []}
    for x in order[1:]:
        if x <= 0 or x & ~full:
            return [f"cluster {x:#x} is out of range"], -1
        members = bits(x)
        parent = owner[members[0]]
        if any(owner[v] != parent for v in members) or x == parent:
            return [f"cluster {members} is not nested in one parent"], -1
        children[parent].append(x)
        children[x] = []
        for v in members:
            owner[v] = x
    height = {}
    for x in reversed(order):
        kids = children[x]
        if not kids:
            if x.bit_count() != 1:
                return [f"leaf {bits(x)} is not a singleton"], -1
            height[x] = 0
        elif len(kids) != 2 or kids[0] | kids[1] != x:
            return [f"cluster {bits(x)} does not split into two children"], -1
        else:
            height[x] = 1 + max(height[kids[0]], height[kids[1]])
    return [], height[full]


def is_clique(adj, block: int) -> bool:
    return all(adj[v] & block == block ^ (1 << v) for v in bits(block))


def is_independent(adj, block: int) -> bool:
    return all(adj[v] & block == 0 for v in bits(block))


def has_equal_blocks(adj, n: int, accept) -> bool:
    """Whether 0..n-1 splits into four blocks of n/4 vertices that each
    satisfy accept(adj, block). Exhaustive; each block holds the lowest
    vertex not yet placed."""
    size = n // 4

    def place(rest):
        if rest == 0:
            return True
        low = rest & -rest
        for combo in itertools.combinations(bits(rest ^ low), size - 1):
            block = low
            for v in combo:
                block |= 1 << v
            if accept(adj, block) and place(rest ^ block):
                return True
        return False

    return n % 4 == 0 and place((1 << n) - 1)


def is_balanced_height(n: int, height: int) -> bool:
    return height == (n - 1).bit_length()


def optimum(adj, n: int, objective: str, sense: str) -> int:
    """Exact optimum of alpha or beta over balanced trees (n a power of two),
    bottom-up over subsets of sizes 1, 2, 4, ..., n."""
    full = (1 << n) - 1
    summing = objective == "beta"
    minimize = sense == "min"
    val = {1 << v: adj[v].bit_count() for v in range(n)}
    size = 2
    while size <= n:
        half = size // 2
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            pivot = 1 << combo[0]
            best = None
            for sub in itertools.combinations(combo[1:], half - 1):
                a = pivot
                for v in sub:
                    a |= 1 << v
                va, vb = val[a], val[mask ^ a]
                inner = va + vb if summing else (va if va > vb else vb)
                if best is None or (inner < best if minimize else inner > best):
                    best = inner
            deg = boundary(adj, full, mask)
            val[mask] = deg + best if summing else max(deg, best)
        size *= 2
    return val[full]


def greedy_clusters(adj, n: int) -> list:
    """Clusters of the top-down greedy bisection tree.

    Exhaustive best split (fewest cut edges, then smallest block) for clusters
    of up to 4 vertices; above that, start from the lower half of the vertex
    ids and repeatedly apply the single swap that lowers the cut most, taking
    the first such swap in (u, v) order. Swap gains come from per-vertex
    external-minus-internal degrees, so each pass costs O(size^2) instead of
    recounting the cut for every candidate.
    """
    clusters = []

    def cut(a, b):
        return sum((adj[u] & b).bit_count() for u in bits(a))

    def split(mask):
        clusters.append(mask)
        members = bits(mask)
        size = len(members)
        if size == 1:
            return
        if size <= 4:
            pivot = 1 << members[0]
            best = choice = None
            for combo in itertools.combinations(members[1:], size // 2 - 1):
                a = pivot
                for v in combo:
                    a |= 1 << v
                b = mask ^ a
                key = (cut(a, b), min(a, b))
                if best is None or key < best:
                    best, choice = key, (a, b)
            a, b = choice
        else:
            a = 0
            for v in members[: size // 2]:
                a |= 1 << v
            b = mask ^ a
            c = cut(a, b)
            while True:
                gain = {}
                for u in members:
                    own = a if (a >> u) & 1 else b
                    gain[u] = (adj[u] & (mask ^ own)).bit_count() - (adj[u] & own).bit_count()
                best_cut, swap = c, None
                b_members = bits(b)
                for u in bits(a):
                    gu, au = gain[u], adj[u]
                    for v in b_members:
                        c2 = c - gu - gain[v] + (2 if (au >> v) & 1 else 0)
                        if c2 < best_cut:
                            best_cut, swap = c2, (u, v)
                if swap is None:
                    break
                u, v = swap
                a = (a ^ (1 << u)) | (1 << v)
                b = mask ^ a
                c = best_cut
        split(a)
        split(b)

    split((1 << n) - 1)
    return clusters


def greedy_beta(adj, n: int) -> int:
    return measures(adj, n, greedy_clusters(adj, n))[1]
