"""Metric dimension of trees.

For a non-path tree the metric dimension equals the number of leaves minus
the number of exterior major vertices (Slater's formula); a path needs one
landmark and a single vertex none.  The formula runs in linear time; an
exponential subset-search oracle is provided for validation on small trees.
All quantities refer to the unrooted graph; the root only orders the pass.

The oracle reads nothing of the formula: with vertex v at bit n - 1 - v,
subset masks sorted by size and then by decreasing value come in
``itertools.combinations`` order, and a block of them per numpy pass is
tested against each vertex pair's mask of separating landmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooLarge, VertexOutOfRange
from .tree import RootedTree, child_counts

BRUTE_FORCE_CAP = 16
_SCAN_ROWS = 4096  # subsets tested at once: about 1 MB of scratch at n = 16


@dataclass(frozen=True)
class MDReport:
    """Leaves, exterior major vertices, and the resulting metric dimension."""

    leaves: tuple[int, ...]
    exterior_major: tuple[int, ...]
    beta: int
    is_path: bool


@dataclass(frozen=True)
class ResolvingWitness:
    """A candidate landmark set together with its distance table.

    The set resolves the tree iff the columns of ``distance_table``
    (one per vertex) are pairwise distinct.
    """

    vertices: tuple[int, ...]
    distance_table: tuple[tuple[int, ...], ...]
    n: int

    @property
    def resolves(self) -> bool:
        if not self.distance_table:
            # An empty landmark set distinguishes nothing: only n = 1 passes.
            return self.n <= 1
        columns = set(zip(*self.distance_table))
        return len(columns) == self.n


def md_report(tree: RootedTree) -> MDReport:
    """Compute leaves, exterior major vertices and the metric dimension.

    A leaf's leg (its path through degree-2 vertices) is a line subtree
    hanging from the leg's major vertex, unless the leg runs through the
    root.  So the exterior major vertices are the vertices of degree >= 3
    with a line child, plus, when the root has degree <= 2 and exactly one
    non-line child, the end of the only-child chain below that child.
    Each step is an array pass over the parent array.
    """
    outdeg, root = tree.outdeg, tree.root
    ends = tree.chain_ends
    line = outdeg[ends] == 0
    # A non-root vertex is a leaf with no children, the root with one.
    leaf = outdeg == 0
    leaf[root] = outdeg[root] == 1
    leaves = tuple(leaf.nonzero()[0].tolist())
    top = int(outdeg[root])
    line_kids = child_counts(tree.parents[line], tree.n)
    heavy = top - int(line_kids[root])
    if top <= 2 and heavy == 0:
        return MDReport(
            leaves=leaves,
            exterior_major=(),
            beta=0 if tree.n == 1 else 1,
            is_path=True,
        )

    exterior = (outdeg >= 2) & (line_kids > 0)
    exterior[root] = top >= 3 and line_kids[root] > 0
    if top <= 2 and heavy == 1:
        child = ((tree.parents == root) & ~line).nonzero()[0][0]
        exterior[ends[child]] = True
    exterior_major = tuple(exterior.nonzero()[0].tolist())
    return MDReport(
        leaves=leaves,
        exterior_major=exterior_major,
        beta=len(leaves) - len(exterior_major),
        is_path=False,
    )


def _distances(tree: RootedTree, sources) -> list[int]:
    """Graph distances from each source to every vertex, one row of ``n``
    after another in a flat list, by breadth-first search over the
    neighbour lists of the unrooted tree."""
    n = tree.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(tree.parents.tolist()):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    rows: list[int] = []
    for source in sources:
        dist = [-1] * n
        dist[source] = 0
        queue = [source]
        for v in queue:
            dv = dist[v] + 1
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv
                    queue.append(w)
        rows += dist
    return rows


def resolving_witness(tree: RootedTree, candidate) -> ResolvingWitness:
    """Build the distance table of a candidate landmark set."""
    n = tree.n
    verts = tuple(sorted(set(int(v) for v in candidate)))
    for v in verts:
        if not 0 <= v < n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{n - 1}")
    flat = _distances(tree, verts)
    table = tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))
    return ResolvingWitness(vertices=verts, distance_table=table, n=n)


def is_resolving(tree: RootedTree, candidate) -> bool:
    """True iff every vertex pair differs in distance to some candidate vertex."""
    return resolving_witness(tree, candidate).resolves


@lru_cache(maxsize=None)
def _search_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only search arrays for n vertices: the masks of every nonempty
    subset of ``0..n-1``, the bit of each vertex, in the narrowest unsigned
    dtype that holds n bits, and, per landmark w (row) and vertex pair
    u < v (column), the places ``w * n + u`` and ``w * n + v`` in the flat
    distance list.

    The masks come one size k = 1, ..., n after another, each size in
    ``itertools.combinations`` order: every (k-1)-subset in that order,
    extended by each vertex above its last in turn.
    """
    dtype = np.min_scalar_type((1 << n) - 1)
    bits = np.array([1 << (n - 1 - v) for v in range(n)], dtype=dtype)
    rows = np.arange(0, n * n, n)[:, None]
    u, v = np.triu_indices(n, 1)
    sizes = []
    masks, last = np.zeros(1, dtype=dtype), np.array([-1])
    for _ in range(n):
        grow = n - 1 - last
        first = np.repeat(np.cumsum(grow) - grow, grow)
        last = np.repeat(last + 1, grow) + np.arange(len(first)) - first
        masks = np.repeat(masks, grow) | bits[last]
        sizes.append(masks)
    arrays = (np.concatenate(sizes), bits, rows + u, rows + v)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def brute_force_md(tree: RootedTree) -> tuple[int, tuple[int, ...]]:
    """Smallest resolving set by exhaustive search, with its witness.

    Subsets are scanned in increasing size and lexicographic order, so the
    returned witness is deterministic.  A single vertex has metric dimension
    zero (the empty set resolves it vacuously).  Raises :class:`TooLarge`
    beyond ``BRUTE_FORCE_CAP`` vertices.

    Each subset is a bitmask with vertex v at bit n - 1 - v.  Of two
    subsets of one size, the lexicographically first holds the first
    vertex where they differ, which is the highest differing bit, so its
    mask is larger: masks sorted by size and then by decreasing value are
    in ``itertools.combinations`` order.  The first mask that meets every
    pair mask (the landmarks w with d(w, u) != d(w, v), per pair u < v)
    is the answer; ``_SCAN_ROWS`` masks are tested per numpy pass.  The
    table of all 2^n - 1 masks is kept for each n.
    """
    n = tree.n
    if n > BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force capped at {BRUTE_FORCE_CAP} vertices, tree has {n}")
    if n == 1:
        return 0, ()
    table, bits, at_u, at_v = _search_tables(n)
    dist = np.array(_distances(tree, range(n)))
    pairs = (bits @ (dist[at_u] != dist[at_v]))[:, None]
    for start in range(0, len(table), _SCAN_ROWS):
        block = table[start : start + _SCAN_ROWS]
        ok = (pairs & block).all(0)
        first = int(ok.argmax())
        if ok[first]:
            mask = int(block[first])
            witness = tuple(w for w in range(n) if mask >> (n - 1 - w) & 1)
            return len(witness), witness
    raise AssertionError("the full vertex set always resolves")
