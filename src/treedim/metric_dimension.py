"""Metric dimension of trees.

For a non-path tree the metric dimension equals the number of leaves minus
the number of exterior major vertices (Slater's formula); a path needs one
landmark and a single vertex none.  The formula runs in linear time; an
exponential subset-search oracle is provided for validation on small trees.
All quantities refer to the unrooted graph; the root only orders the pass.

The oracle reads nothing of the formula: it takes every distance from
subtree offsets and tests blocks of subset masks, in
``itertools.combinations`` order, against each vertex pair's mask of
separating landmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import TooLarge
from .tree import RootedTree, check_vertex

BRUTE_FORCE_CAP = 16
_SCAN_ROWS = 4096  # subsets tested at once: about 1 MB of scratch at n = 16


@dataclass(frozen=True, eq=False)
class MDReport:
    """Leaves, exterior major vertices, and the resulting metric dimension.

    ``leaf_mask`` and ``exterior_mask`` flag the vertices (treat them as
    read-only: marking them so would cost a small tree's report a tenth of
    its time); ``leaves`` and ``exterior_major`` list them in ascending
    order and are built when first read.  Two reports are equal when those
    two tuples, ``beta`` and ``is_path`` are.
    """

    leaf_mask: np.ndarray
    exterior_mask: np.ndarray
    beta: int
    is_path: bool

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return tuple(self.leaf_mask.nonzero()[0].tolist())

    @cached_property
    def exterior_major(self) -> tuple[int, ...]:
        return tuple(self.exterior_mask.nonzero()[0].tolist())

    def _key(self):
        return self.leaves, self.exterior_major, self.beta, self.is_path

    def __eq__(self, other):
        if not isinstance(other, MDReport):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def md_report(tree: RootedTree) -> MDReport:
    """Compute leaves, exterior major vertices and the metric dimension.

    A leaf's leg (its path through degree-2 vertices) is a line subtree
    hanging from the leg's major vertex, unless the leg runs through the
    root.  The tree's cached ``climb`` gives the leg tops, whose parents of
    outdegree >= 2 are the vertices of degree >= 3 with a line child; the
    root among them needs a third child to be major.  When the root has
    degree <= 2 and exactly one non-line child, the end of the only-child
    chain below that child is exterior major too: the one vertex of
    outdegree >= 2 whose climb stops at a child of the root.  The tree is
    a path, ``is_path``, when n == 1 or it has exactly two leaves.
    """
    outdeg, root = tree.outdeg, tree.root
    # A non-root vertex is a leaf with no children, the root with one.
    leaf = outdeg == 0
    leaf[root] = outdeg[root] == 1
    leaves = int(np.count_nonzero(leaf))
    if tree.n == 1 or leaves == 2:  # a path (a single vertex counts)
        return MDReport(
            leaf_mask=leaf,
            exterior_mask=np.zeros(tree.n, dtype=bool),
            beta=0 if tree.n == 1 else 1,
            is_path=True,
        )

    exterior = tree.pk_flags.copy()
    top = outdeg[root]
    # Not a path, so a lone child is no line, and of two children with a
    # line among them the other is none.
    if top == 1 or (top == 2 and exterior[root]):
        exterior[root] = False
        exterior |= (tree.parents == root)[tree.climb] & (outdeg >= 2)  # the chain end
    return MDReport(
        leaf_mask=leaf,
        exterior_mask=exterior,
        beta=leaves - int(np.count_nonzero(exterior)),
        is_path=False,
    )


def is_resolving(tree: RootedTree, candidate) -> bool:
    """True iff every vertex pair differs in distance to some candidate
    vertex.  One breadth-first search over the unrooted tree per candidate
    appends to each vertex's distance vector (a vector's length marks the
    vertices this search has reached), and the set resolves when the n
    vectors are distinct.  An empty set resolves only a single vertex."""
    n = tree.n
    verts = set()
    for v in candidate:
        check_vertex(tree, v)  # before ``int`` could make a vertex of it
        verts.add(int(v))
    adj: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(tree.parents.tolist()):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    vectors: list[list[int]] = [[] for _ in range(n)]
    for searched, source in enumerate(verts, 1):
        vectors[source].append(0)
        queue = [source]
        for v in queue:
            for w in adj[v]:
                if len(vectors[w]) < searched:
                    vectors[w].append(vectors[v][-1] + 1)
                    queue.append(w)
    return len(set(map(tuple, vectors))) == n


@lru_cache(maxsize=None)
def _search_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only search arrays for n vertices: the masks of every nonempty
    subset of ``0..n-1``, the bit of each vertex, in the narrowest unsigned
    dtype that holds n bits, and the vertex pairs u < v as two index arrays.
    The masks are sorted by size and then by decreasing value (one
    ``np.lexsort``): ``itertools.combinations`` order, size by size.
    """
    dtype = np.min_scalar_type((1 << n) - 1)
    bits = np.array([1 << (n - 1 - v) for v in range(n)], dtype=dtype)
    u, v = np.triu_indices(n, 1)
    masks = np.arange(1, 1 << n, dtype=dtype)
    masks = masks[np.lexsort((~masks, ((masks[:, None] & bits) > 0).sum(1)))]
    arrays = (masks, bits, u, v)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _distance_matrix(tree: RootedTree) -> np.ndarray:
    """All graph distances as an n x n uint8 matrix, for n <= 16: row v is
    one Python int with byte w holding d(v, w).  The root's row, the depths,
    sums every other vertex's subtree byte mask; a child's row is its
    parent's plus one at every byte, minus two in its own subtree.  No
    distance exceeds 15, so no byte carries."""
    n, root = tree.n, tree.root
    parents = tree.parents.tolist()
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parents):
        if p >= 0:
            kids[p].append(v)
    order = [root]
    for v in order:
        order += kids[v]
    sub = [1 << 8 * v for v in range(n)]
    for v in reversed(order[1:]):  # bottom-up
        sub[parents[v]] += sub[v]
    ones, rows = sub[root], [0] * n
    rows[root] = sum(sub) - ones
    for v in order[1:]:
        rows[v] = rows[parents[v]] + ones - 2 * sub[v]
    data = b"".join(row.to_bytes(n, "little") for row in rows)
    return np.frombuffer(data, dtype=np.uint8).reshape(n, n)


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
    table, bits, u, v = _search_tables(n)
    dist = _distance_matrix(tree)
    pairs = (bits @ (dist[:, u] != dist[:, v]))[:, None]
    for start in range(0, len(table), _SCAN_ROWS):
        block = table[start : start + _SCAN_ROWS]
        ok = (pairs & block).all(0)
        first = int(ok.argmax())
        if ok[first]:
            mask = int(block[first])
            witness = tuple(w for w in range(n) if mask >> (n - 1 - w) & 1)
            return len(witness), witness
    raise AssertionError("the full vertex set always resolves")
