"""Reference tree core: tuple parents with ``None`` at the root, children
tuples and a breadth-first order, walked by Python loops.

This is the representation ``treedim.tree`` used before the parent array
became the tree.  The tests compare the array core against it: build
results and errors, line flags, climbs, leg tops, pk flags,
``md_report`` and subtree sizes.  Earlier loops serve as oracles too: the
stack walk that turned depth-first outdegrees into parents, ``parse`` with
its line comprehension, ``serialize`` with its per-vertex ``str``, and the
metric-dimension search that tried every subset from
``itertools.combinations`` over breadth-first distance rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from treedim.errors import (
    CycleDetected,
    IndexOutOfRange,
    MultipleRoots,
    NoRoot,
    TooLarge,
    TreeFormatError,
)
from treedim.metric_dimension import MDReport
from treedim.tree import ROOT_TOKEN, RootedTree
from treedim.tree import build_from_parents as build_array


@dataclass(frozen=True)
class TupleTree:
    parents: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    root: int
    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parents)


def build_from_parents(parents) -> TupleTree:
    n = len(parents)
    if n == 0:
        raise NoRoot("empty parent list")
    root: int | None = None
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parents):
        if p is None:
            if root is not None:
                raise MultipleRoots(
                    f"vertex {v} has no parent but vertex {root} is already the root",
                    vertex=v,
                )
            root = v
        else:
            if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
                raise IndexOutOfRange(
                    f"vertex {v} has non-integer parent {p!r}", vertex=v
                )
            if not 0 <= p < n:
                raise IndexOutOfRange(
                    f"vertex {v} has parent {p}, outside 0..{n - 1}", vertex=v
                )
            if p == v:
                raise CycleDetected(f"vertex {v} is its own parent", vertex=v)
            children[p].append(v)
    if root is None:
        raise NoRoot("every vertex has a parent; no root")
    order = [root]
    for v in order:
        order.extend(children[v])
    if len(order) < n:
        start = min(set(range(n)).difference(order))
        raise CycleDetected(
            f"vertex {start} cannot reach the root (parent cycle)", vertex=start
        )
    return TupleTree(
        parents=tuple(parents),
        children=tuple(map(tuple, children)),
        root=root,
        order=tuple(order),
    )


def line_flags(tree: TupleTree) -> list[bool]:
    flags = [False] * tree.n
    children = tree.children
    for v in reversed(tree.order):
        kids = children[v]
        flags[v] = not kids or (len(kids) == 1 and flags[kids[0]])
    return flags


def climb(tree: TupleTree) -> list[int]:
    """For each vertex, where it stops moving to its parent: at the root's
    children and below vertices that do not have exactly one child."""
    tops = list(range(tree.n))
    for v in tree.order:
        p = tree.parents[v]
        if p is not None and p != tree.root and len(tree.children[p]) == 1:
            tops[v] = tops[p]
    return tops


def pk_flags(tree: TupleTree) -> list[bool]:
    """At least two children, at least one of them heading a line."""
    line = line_flags(tree)
    return [len(kids) >= 2 and any(line[c] for c in kids) for kids in tree.children]


def legs(tree: TupleTree) -> list[int]:
    """The top of each non-root leaf's leg, in ascending leaf order: climb
    one parent at a time while that parent is not the root and has one
    child."""
    tops = []
    for v, kids in enumerate(tree.children):
        if kids or v == tree.root:
            continue
        while tree.parents[v] != tree.root and len(tree.children[tree.parents[v]]) == 1:
            v = tree.parents[v]
        tops.append(v)
    return tops


def mask(n: int, vertices) -> np.ndarray:
    """The n flags that are set at ``vertices``, the form ``MDReport`` holds."""
    flags = np.zeros(n, dtype=bool)
    flags[list(vertices)] = True
    return flags


def md_report(tree: TupleTree) -> MDReport:
    children, root = tree.children, tree.root
    line = line_flags(tree)
    top = children[root]
    leaves = [v for v, kids in enumerate(children) if len(kids) == (v == root)]
    if len(top) <= 2 and all(line[c] for c in top):
        return MDReport(mask(tree.n, leaves), mask(tree.n, ()), 0 if tree.n == 1 else 1, True)
    exterior = {
        v
        for v, kids in enumerate(children)
        if len(kids) >= 2 + (v == root) and any(line[c] for c in kids)
    }
    heavy = [c for c in top if not line[c]]
    if len(top) <= 2 and len(heavy) == 1:
        v = heavy[0]
        while len(children[v]) == 1:
            v = children[v][0]
        exterior.add(v)
    beta = len(leaves) - len(exterior)
    return MDReport(mask(tree.n, leaves), mask(tree.n, exterior), beta, False)


def subtree_sizes(tree: TupleTree) -> list[int]:
    sizes = [1] * tree.n
    for v in reversed(tree.order):
        for c in tree.children[v]:
            sizes[v] += sizes[c]
    return sizes


def adjacency(parents) -> list[list[int]]:
    """Neighbour lists of the unrooted tree with this parent list."""
    adj: list[list[int]] = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p is not None:
            adj[v].append(p)
            adj[p].append(v)
    return adj


def reroot(parents, root: int) -> list[int | None]:
    """The parent list of the same unrooted tree, rooted at ``root``."""
    adj = adjacency(parents)
    out: list[int | None] = [None] * len(parents)
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                out[w] = v
                stack.append(w)
    return out


def bfs_distances(adj: list[list[int]], source: int) -> list[int]:
    """Graph distances from ``source`` to every vertex, given neighbour lists."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = [source]
    for v in queue:
        dv = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv
                queue.append(w)
    return dist


def brute_force_md(tree: RootedTree, cap: int = 16) -> tuple[int, tuple[int, ...]]:
    """Smallest resolving set by trying every subset with ``combinations``,
    in increasing size and lexicographic order, with its witness."""
    n = tree.n
    if n > cap:
        raise TooLarge(f"brute force capped at {cap} vertices, tree has {n}")
    if n == 1:
        return 0, ()
    adj = adjacency([None if p < 0 else p for p in tree.parents.tolist()])
    dist = [bfs_distances(adj, v) for v in range(n)]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            rows = [dist[w] for w in subset]
            seen = {tuple(row[v] for row in rows) for v in range(n)}
            if len(seen) == n:
                return size, subset
    raise AssertionError("the full vertex set always resolves")


def random_tree(rng, n: int, shape: str, shuffled: bool, root: int) -> list[int | None]:
    """A parent list with ``None`` at the root, drawn from numpy's ``rng``.

    ``shape`` is ``random`` (parent of v uniform below v), ``path`` (a
    path with a few random jumps, so pointer doubling runs many rounds) or
    ``caterpillar`` (a spine with leaves hanging off it).  ``shuffled``
    relabels the vertices at random; the tree is then rerooted at ``root``.
    """
    v = np.arange(1, n)
    if shape == "random":
        picks = (rng.random(n - 1) * v).astype(np.int64)
    elif shape == "path":
        jumps = rng.random(n - 1) < 0.05
        picks = np.where(jumps, (rng.random(n - 1) * v).astype(np.int64), v - 1)
    else:
        spine = int(rng.integers(1, n + 1))
        picks = np.where(v < spine, v - 1, rng.integers(0, spine, size=n - 1))
    parents = [None, *picks.tolist()]
    if shuffled:
        parents = relabel(parents, rng.permutation(n).tolist())
    return reroot(parents, root % n)


def relabel(parents, perm) -> list[int | None]:
    """The same rooted tree with vertex ``u`` renamed ``perm[u]``."""
    out: list[int | None] = [None] * len(parents)
    for u, p in enumerate(parents):
        out[perm[u]] = None if p is None else perm[p]
    return out


@st.composite
def tree_lists(draw, max_n: int = 150):
    """Hypothesis strategy for :func:`random_tree` parent lists."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("random", "path", "caterpillar")))
    return random_tree(rng, n, shape, draw(st.booleans()), draw(st.integers(0, n - 1)))


def preorder_parents(degs: list[int]) -> list[int]:
    """Parents of the ordered tree with depth-first outdegrees ``degs``
    (a Lukasiewicz word), by a stack of (vertex, children still to come)."""
    parents = [-1] * len(degs)
    stack = [(0, degs[0])]
    for v in range(1, len(degs)):
        while stack[-1][1] == 0:
            stack.pop()
        parent, remaining = stack[-1]
        stack[-1] = (parent, remaining - 1)
        parents[v] = parent
        stack.append((v, degs[v]))
    return parents


@st.composite
def lukasiewicz_words(draw, max_n: int = 200):
    """Depth-first outdegree sequences of ordered trees: drawn degrees are
    taken while children are still owed, then leaves fill the rest."""
    owed, word = 1, []
    for d in draw(st.lists(st.integers(0, 5), max_size=max_n)):
        if owed == 0:
            break
        word.append(d)
        owed += d - 1
    return word + [0] * owed


def parse(text: str) -> RootedTree:
    """``treedim.tree.parse`` with every line stripped and blank ones dropped."""
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows:
        raise TreeFormatError("empty tree file")
    try:
        n = int(rows[0])
    except ValueError:
        raise TreeFormatError(f"first line must be the vertex count, got {rows[0]!r}")
    body = rows[1:]
    if len(body) != n:
        raise TreeFormatError(f"expected {n} vertex lines, found {len(body)}")
    if body.count(ROOT_TOKEN) == 1:
        body[body.index(ROOT_TOKEN)] = "-1"
        try:
            parents = np.array(body, dtype=np.int64)
        except (ValueError, OverflowError):
            pass  # a bad token: the loop below names it
        else:
            # A literal -1 would read as a second root, not as out of range.
            if np.count_nonzero(parents == -1) == 1:
                return build_array(parents)
        body = rows[1:]
    entries: list[int | None] = []
    for line in body:
        if line == ROOT_TOKEN:
            entries.append(None)
        else:
            try:
                entries.append(int(line))
            except ValueError:
                raise TreeFormatError(f"bad parent entry {line!r}")
    return build_array(entries)


def serialize(tree: RootedTree) -> str:
    """``treedim.tree.serialize`` by one ``str`` per vertex."""
    lines = [str(tree.n), *map(str, tree.parents.tolist())]
    lines[1 + tree.root] = ROOT_TOKEN
    return "\n".join(lines) + "\n"
