"""Subtree-property predicates and counters.

A subtree property may inspect only the subtree hanging below a vertex,
away from the root.  Three canonical properties are used throughout:

* ``is_pl``   -- the subtree is a single vertex;
* ``is_line`` -- every vertex of the subtree has at most one child;
* ``is_pk``   -- the vertex has at least two children and at least one
  child's subtree is a line.

Counting any of the three over a whole tree takes a few array passes over
the parent array: outdegrees, line flags and line-children counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IsPath, VertexOutOfRange
from .metric_dimension import md_report
from .tree import RootedTree, _stable_order, child_counts, line_flags


# Subtree sizes are summed level by level only when the levels hold at
# least this many vertices on average; taller trees take the Python pass.
# The level pass pays a few numpy calls per level, the Python pass a loop
# step per vertex.  On uniform trees and brooms of 2,000 to 100,000
# vertices they broke even at 20 to 30 vertices per level (2-core x86-64
# Xeon, Python 3.11, numpy 2.4).
_MIN_LEVEL_WIDTH = 32


def _check_vertex(tree: RootedTree, v: int) -> None:
    if not 0 <= v < tree.n:
        raise VertexOutOfRange(f"vertex {v} outside 0..{tree.n - 1}")


def _sizes(tree: RootedTree) -> np.ndarray:
    """Hanging-subtree sizes, summed level by level from the deepest up.

    Depth comes from pointer doubling and orders the vertices by a radix
    sort, so each level is one slice of the order; a tree with more than
    ``n / _MIN_LEVEL_WIDTH`` levels is summed vertex by vertex instead.
    """
    parents, root, n = tree.parents, tree.root, tree.n
    # Pointer doubling: depth[v] is the distance from v to anc[v].
    depth = (parents >= 0).astype(np.int64)
    anc = parents.copy()
    anc[root] = root
    while not (anc == root).all():
        depth += depth[anc]
        anc = anc[anc]
    down = _stable_order(depth)
    height = int(depth[down[-1]])
    if height * _MIN_LEVEL_WIDTH > n:
        up = down[:0:-1]  # children before parents, root left out
        sizes = [1] * n
        for v, p in zip(up.tolist(), parents[up].tolist()):
            sizes[p] += sizes[v]
        return np.array(sizes)
    at = np.empty(n, dtype=np.int64)
    at[down] = np.arange(n)
    above = at[parents[down[1:]]]  # position of the parent of position i + 1
    ends = np.cumsum(np.bincount(depth))
    sized = np.ones(n, dtype=np.int64)
    for d in range(height, 0, -1):
        lo, hi = ends[d - 1], ends[d]
        # A copy: an operand overlapping ``sized`` makes numpy copy it whole.
        np.add.at(sized, above[lo - 1 : hi - 1], sized[lo:hi].copy())
    return sized[at]


def subtree_sizes(tree: RootedTree) -> list[int]:
    """Size of the hanging subtree of each vertex: one ``np.add.at`` per
    depth level, deepest first, or a Python pass for trees taller than
    ``n / _MIN_LEVEL_WIDTH``."""
    return _sizes(tree).tolist()


def is_line(tree: RootedTree, v: int) -> bool:
    """True iff every vertex in the subtree below ``v`` has at most one child."""
    _check_vertex(tree, v)
    return bool(tree.outdeg[tree.chain_ends[v]] == 0)


def is_pl(tree: RootedTree, v: int) -> bool:
    """True iff the subtree below ``v`` is a single vertex."""
    _check_vertex(tree, v)
    return int(tree.outdeg[v]) == 0


def is_pk(tree: RootedTree, v: int) -> bool:
    """True iff ``v`` has >= 2 children and some child's subtree is a line."""
    _check_vertex(tree, v)
    kids = tree.children[v]
    if len(kids) < 2:
        return False
    return any(is_line(tree, c) for c in kids)


def count_subtree_property(tree: RootedTree, predicate) -> int:
    """Number of vertices whose hanging subtree satisfies ``predicate``.

    ``predicate`` is a callable ``(tree, v) -> bool`` that may only inspect
    the subtree below ``v``.  The three canonical predicates are recognised
    and counted by array passes over the whole tree; any other callable is
    evaluated per vertex.
    """
    if predicate is is_pl:
        return int(np.count_nonzero(tree.outdeg == 0))
    if predicate is is_line:
        return int(np.count_nonzero(line_flags(tree)))
    if predicate is is_pk:
        line_kids = child_counts(tree.parents[line_flags(tree)], tree.n)
        return int(np.count_nonzero((tree.outdeg >= 2) & (line_kids > 0)))
    return sum(1 for v in range(tree.n) if predicate(tree, v))


def fringe_size_counts(tree: RootedTree) -> dict[int, int]:
    """Histogram ``size -> count`` of hanging-subtree sizes; counts sum to n.

    Sizes are listed in the order of the first vertex that has them.
    """
    sizes = _sizes(tree)
    counts = np.bincount(sizes)
    first = np.full(counts.size, tree.n)
    np.minimum.at(first, sizes, np.arange(tree.n))
    keys = counts.nonzero()[0]
    keys = keys[np.argsort(first[keys])]
    return dict(zip(keys.tolist(), counts[keys].tolist()))


@dataclass(frozen=True)
class EpsilonAudit:
    """Bookkeeping for the leaf/branch decomposition of the metric dimension.

    ``epsilon = beta - (n_pl - n_pk)`` measures how far the subtree-property
    counts drift from the exact leaves-minus-exterior-major formula; it is
    bounded by 2 in absolute value (each of the two count identities can be
    off by at most one, both only through root-adjacent configurations).
    """

    n_pl: int
    n_pk: int
    leaves: int
    exterior: int
    beta: int
    epsilon: int


def epsilon_audit(tree: RootedTree) -> EpsilonAudit:
    """Compare subtree-property counts against the exact formula.

    Raises :class:`IsPath` for path trees, whose metric dimension is 1
    directly and which the decomposition does not target.
    """
    report = md_report(tree)
    if report.is_path:
        raise IsPath("epsilon audit targets non-path trees")
    n_pl = count_subtree_property(tree, is_pl)
    n_pk = count_subtree_property(tree, is_pk)
    return EpsilonAudit(
        n_pl=n_pl,
        n_pk=n_pk,
        leaves=len(report.leaves),
        exterior=len(report.exterior_major),
        beta=report.beta,
        epsilon=report.beta - (n_pl - n_pk),
    )
