"""Rooted trees on dense integer vertices, plus the on-disk text format.

Vertices are ``0..n-1``.  Exactly one vertex (the root) has no parent.
Children lists preserve insertion order, which for every generator in this
package coincides with ascending vertex index, so ordered-tree distributions
are represented faithfully.  Instances are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CycleDetected,
    IndexOutOfRange,
    MultipleRoots,
    NoRoot,
    TreeFormatError,
)

ROOT_TOKEN = "R"


@dataclass(frozen=True)
class RootedTree:
    """A validated rooted tree.

    ``parents[v]`` is the parent of ``v`` or ``None`` for the root;
    ``children[v]`` lists the children of ``v`` in ascending index order;
    ``order`` lists every vertex breadth-first from the root, so parents
    come before their children and a reversed pass is bottom-up.
    Use :func:`build_from_parents` instead of constructing directly.
    """

    parents: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    root: int
    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parents)

    def adjacency(self) -> list[list[int]]:
        """Neighbour lists of the underlying unrooted graph (for the oracle)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parents):
            if p is not None:
                adj[v].append(p)
                adj[p].append(v)
        return adj


@dataclass(frozen=True)
class DegreeView:
    """Unrooted degrees and children counts of a tree, index-aligned."""

    deg: tuple[int, ...]
    outdeg: tuple[int, ...]


def build_from_parents(parents: list[int | None]) -> RootedTree:
    """Validate a parent array and return the tree it describes.

    Raises :class:`NoRoot`, :class:`MultipleRoots`, :class:`IndexOutOfRange`
    or :class:`CycleDetected` (each naming the first offending vertex)
    rather than returning a malformed tree.
    """
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
            if not isinstance(p, int) or isinstance(p, bool):
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

    # Every vertex has one parent, so the parent array is a tree iff a
    # breadth-first pass from the root reaches all n vertices.
    order = [root]
    for v in order:
        order.extend(children[v])
    if len(order) < n:
        start = min(set(range(n)).difference(order))
        raise CycleDetected(
            f"vertex {start} cannot reach the root (parent cycle)", vertex=start
        )
    return RootedTree(
        parents=tuple(parents),
        children=tuple(map(tuple, children)),
        root=root,
        order=tuple(order),
    )


def degrees(tree: RootedTree) -> DegreeView:
    """Unrooted degree and children count for each vertex."""
    outdeg = tuple(len(c) for c in tree.children)
    deg = tuple(
        d if v == tree.root else d + 1 for v, d in enumerate(outdeg)
    )
    return DegreeView(deg=deg, outdeg=outdeg)


def is_path(tree: RootedTree) -> bool:
    """True iff the underlying unrooted graph is a path (single vertex counts)."""
    return all(d <= 2 for d in degrees(tree).deg)


def line_flags(tree: RootedTree) -> list[bool]:
    """Per-vertex flag: is the hanging subtree a line (single vertex counts)."""
    flags = [False] * tree.n
    children = tree.children
    for v in reversed(tree.order):
        kids = children[v]
        flags[v] = not kids or (len(kids) == 1 and flags[kids[0]])
    return flags


def serialize(tree: RootedTree) -> str:
    """Encode a tree in the line-oriented text format.

    First line is the vertex count, then one line per vertex holding the
    parent index, or ``R`` for the root.  UTF-8, LF line endings.
    """
    lines = [str(tree.n)]
    for p in tree.parents:
        lines.append(ROOT_TOKEN if p is None else str(p))
    return "\n".join(lines) + "\n"


def parse(text: str) -> RootedTree:
    """Decode the text format produced by :func:`serialize`, validating fully."""
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows:
        raise TreeFormatError("empty tree file")
    try:
        n = int(rows[0])
    except ValueError:
        raise TreeFormatError(f"first line must be the vertex count, got {rows[0]!r}")
    if len(rows) - 1 != n:
        raise TreeFormatError(f"expected {n} vertex lines, found {len(rows) - 1}")
    parents: list[int | None] = []
    for line in rows[1:]:
        if line == ROOT_TOKEN:
            parents.append(None)
        else:
            try:
                parents.append(int(line))
            except ValueError:
                raise TreeFormatError(f"bad parent entry {line!r}")
    return build_from_parents(parents)


def write_tree(tree: RootedTree, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(tree))


def read_tree(path) -> RootedTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TreeFormatError(f"{path} is not UTF-8 text: {exc}") from None
    return parse(text)


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
