"""Metric dimension of trees.

For a non-path tree the metric dimension equals the number of leaves minus
the number of exterior major vertices (Slater's formula); a path needs one
landmark and a single vertex none.  The formula runs in linear time; an
exponential subset-search oracle is provided for validation on small trees.
All quantities refer to the unrooted graph; the root only orders the pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import TooLarge, VertexOutOfRange
from .tree import RootedTree, bfs_distances, child_counts

BRUTE_FORCE_CAP = 16


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


def resolving_witness(tree: RootedTree, candidate) -> ResolvingWitness:
    """Build the distance table of a candidate landmark set."""
    verts = tuple(sorted(set(int(v) for v in candidate)))
    for v in verts:
        if not 0 <= v < tree.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{tree.n - 1}")
    adj = tree.adjacency()
    table = tuple(tuple(bfs_distances(adj, v)) for v in verts)
    return ResolvingWitness(vertices=verts, distance_table=table, n=tree.n)


def is_resolving(tree: RootedTree, candidate) -> bool:
    """True iff every vertex pair differs in distance to some candidate vertex."""
    return resolving_witness(tree, candidate).resolves


def brute_force_md(
    tree: RootedTree, cap: int = BRUTE_FORCE_CAP
) -> tuple[int, tuple[int, ...]]:
    """Smallest resolving set by exhaustive search, with its witness.

    Subsets are scanned in increasing size and lexicographic order, so the
    returned witness is deterministic.  A single vertex has metric dimension
    zero (the empty set resolves it vacuously).  Raises :class:`TooLarge`
    beyond ``cap`` vertices.
    """
    n = tree.n
    if n > cap:
        raise TooLarge(f"brute force capped at {cap} vertices, tree has {n}")
    if n == 1:
        return 0, ()
    adj = tree.adjacency()
    dist = [bfs_distances(adj, v) for v in range(n)]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            rows = [dist[w] for w in subset]
            seen = {tuple(row[v] for row in rows) for v in range(n)}
            if len(seen) == n:
                return size, subset
    raise AssertionError("the full vertex set always resolves")
