"""Subtree-property predicates and counters.

A subtree property may inspect only the subtree hanging below a vertex,
away from the root.  Three canonical properties are used throughout:

* ``is_pl``   -- the subtree is a single vertex;
* ``is_line`` -- every vertex of the subtree has at most one child;
* ``is_pk``   -- the vertex has at least two children and at least one
  child's subtree is a line.

The predicates and counters read the tree's cached arrays, all derived
from its one ``climb`` up the only-child chains: a leg (a leaf and the
non-root only children above it) tops out at the leaf's climb.  ``is_pk``
and its count read the pk flags, which mark the leg tops' parents with two
or more children; ``is_line`` and the line count read the line flags, which
mark the vertices that climb to a leg top, plus the root when the whole
tree is a line below it.  The fringe histogram counts the tree's cached
subtree sizes, the one pointer-doubling pass over the parent array, which
validation has already run for any array not labelled parent-before-child.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IsPath
from .metric_dimension import md_report
from .tree import RootedTree, check_vertex


def is_line(tree: RootedTree, v: int) -> bool:
    """True iff every vertex in the subtree below ``v`` has at most one child."""
    check_vertex(tree, v)
    return bool(tree.line[v])


def is_pl(tree: RootedTree, v: int) -> bool:
    """True iff the subtree below ``v`` is a single vertex."""
    check_vertex(tree, v)
    return int(tree.outdeg[v]) == 0


def is_pk(tree: RootedTree, v: int) -> bool:
    """True iff ``v`` has >= 2 children and some child's subtree is a line."""
    check_vertex(tree, v)
    return bool(tree.pk_flags[v])


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
        return int(np.count_nonzero(tree.line))
    if predicate is is_pk:
        return int(np.count_nonzero(tree.pk_flags))
    return sum(1 for v in range(tree.n) if predicate(tree, v))


def fringe_size_counts(tree: RootedTree) -> dict[int, int]:
    """Histogram ``size -> count`` of hanging-subtree sizes; counts sum to n.

    Sizes are listed in ascending order.
    """
    counts = np.bincount(tree.sizes)
    keys = counts.nonzero()[0]
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
