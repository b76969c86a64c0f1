"""Tree validation and construction against the slow pairwise reference.

The reference checks every cluster against every other one for a merge
partner, both in the violation list and when it builds the parent and
children maps. The one-pass laminar check must give the identical list of
violations, in the same order, and build identical maps, on valid trees,
on seeded mutations of them (deleted, inserted, replaced and reshaped
clusters), on collections without the root, and on every collection of
subsets for n <= 3.
"""

import itertools
import random

import pytest

from reasm.generators import random_balanced_tree, random_tree
from reasm.graphs import vertices_of
from reasm.trees import ReassemblingTree, tree_violations


def fmt(mask):
    return "{" + ",".join(map(str, vertices_of(mask))) + "}"


def reference_violations(n, masks):
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
            outside = f" (vertex ids {fmt(m & ~full)} out of range)" if m else ""
            problems.append(f"cluster {fmt(m)} is not a nonempty subset of 0..{n - 1}{outside}")
        elif m in seen:
            problems.append(f"duplicate cluster {fmt(m)}")
        seen.add(m)
    if problems:
        return problems
    for v in range(n):
        if (1 << v) not in seen:
            problems.append(f"missing singleton {{{v}}}")
    if full not in seen:
        problems.append(f"missing root {fmt(full)}")
    if len(collection) != 2 * n - 1:
        problems.append(f"wrong cluster count: {len(collection)} (expected {2 * n - 1})")
    for x in collection:
        if x == full:
            continue
        partners = [y for y in collection if x & y == 0 and (x | y) in seen]
        if len(partners) == 0:
            problems.append(f"cluster {fmt(x)} has no merge partner")
        elif len(partners) > 1:
            mates = ", ".join(fmt(y) for y in sorted(partners))
            problems.append(f"cluster {fmt(x)} has multiple merge partners: {mates}")
    return problems


def reference_structure(n, masks):
    full = (1 << n) - 1
    collection = sorted(masks, key=lambda x: (x.bit_count(), vertices_of(x)))
    present = set(collection)
    parent = {}
    children = {}
    for x in collection:
        if x == full:
            continue
        y = next(y for y in collection if x & y == 0 and (x | y) in present)
        parent[x] = x | y
        children.setdefault(x | y, (min(x, y), max(x, y)))
    heights = {}
    for x in collection:
        kids = children.get(x)
        heights[x] = 0 if kids is None else 1 + max(heights[kids[0]], heights[kids[1]])
    return parent, children, heights


def assert_same(n, masks):
    problems = tree_violations(n, masks)
    assert problems == reference_violations(n, masks)
    if not problems:
        t = ReassemblingTree.from_masks(n, masks)
        expected = reference_structure(n, masks)
        got = (t._parent, t._children, t._heights)
        assert [list(d.items()) for d in got] == [list(d.items()) for d in expected]
    return problems


def mutations(t, rng):
    """Seeded variants of t's cluster list, most of them invalid."""
    n, clusters = t.n, list(t.clusters)
    full = (1 << n) - 1

    def random_mask():
        return rng.randrange(1, full + 1)

    def varied(fn):
        out = list(clusters)
        fn(out)
        rng.shuffle(out)
        return out

    def toggle(out):
        i = rng.randrange(len(out))
        out[i] ^= 1 << rng.randrange(n)
        if out[i] == 0:
            out[i] = random_mask()

    yield varied(lambda out: None)
    yield varied(lambda out: out.pop(rng.randrange(len(out))))
    yield varied(lambda out: out.append(random_mask()))
    yield varied(lambda out: out.__setitem__(rng.randrange(len(out)), random_mask()))
    yield varied(toggle)
    yield varied(lambda out: (toggle(out), toggle(out)))
    yield [x for x in clusters if x != full]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 32, 64])
def test_matches_reference_on_seeded_trees(n):
    valid = invalid = 0
    for seed in range(40 if n < 32 else 12):
        rng = random.Random(1000 * n + seed)
        t = random_balanced_tree(n, rng) if n & (n - 1) == 0 and seed % 2 else random_tree(n, rng)
        for masks in mutations(t, rng):
            if assert_same(n, masks):
                invalid += 1
            else:
                valid += 1
    assert valid and (invalid or n == 1)


def test_missing_root_gives_top_clusters_no_partner():
    assert assert_same(2, [1, 2]) == ["missing root {0,1}", "wrong cluster count: 2 (expected 3)"] + [
        f"cluster {{{v}}} has no merge partner" for v in (0, 1)
    ]
    problems = assert_same(4, [1, 2, 4, 8, 3, 12])
    assert "cluster {0,1} has no merge partner" in problems
    assert "cluster {2,3} has no merge partner" in problems


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matches_reference_on_every_collection(n):
    # Every subset of the in-range masks, plus the empty mask and one
    # out-of-range mask, in increasing and in reversed order.
    candidates = list(range(1 << n)) + [1 << n]
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            assert_same(n, list(combo))
            assert_same(n, list(reversed(combo)))
