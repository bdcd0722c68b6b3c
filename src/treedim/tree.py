"""Rooted trees on dense integer vertices, plus the on-disk text format.

Vertices are ``0..n-1``.  Exactly one vertex (the root) has no parent.  A
tree is its validated parent array; outdegrees, each vertex's climb up the
only-child chains, the leaves' leg tops, the line-subtree flags and
children lists are derived from it on first use.  A leaf's leg is the leaf
and the non-root only children above it, so its top is the leaf's climb:
the climb is the one pass that follows only-child chains, and every
Slater term comes from it.  Children lists are in ascending vertex index,
which for every generator in this package is insertion order, so
ordered-tree distributions are represented faithfully.  Trees are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CycleDetected,
    IndexOutOfRange,
    MultipleRoots,
    NoRoot,
    TreeFormatError,
    VertexOutOfRange,
)

ROOT_TOKEN = "R"


@dataclass(frozen=True, eq=False)
class RootedTree:
    """A validated rooted tree.

    ``parents[v]`` is the parent of ``v``, or -1 for the root, in a read-only
    int64 array.  Derived on first use and cached: ``outdeg[v]`` counts the
    children of ``v``; ``climb[v]`` is where ``v`` stops climbing through
    non-root only children; ``legs`` is the climb of each non-root leaf, the
    top of its leg; ``pk_flags[v]`` marks a branch vertex with a line child,
    which is a leg top's parent; ``line[v]`` flags a line subtree below
    ``v``; ``children[v]`` lists the children in ascending index order.
    Use :func:`build_from_parents`; only ``sample_uniform_tree``, which
    relabels a validated tree, constructs one directly.
    """

    parents: np.ndarray
    root: int

    @property
    def n(self) -> int:
        return len(self.parents)

    def __eq__(self, other):
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self.root == other.root and np.array_equal(self.parents, other.parents)

    def __hash__(self):
        return hash((self.root, self.parents.tobytes()))

    @cached_property
    def outdeg(self) -> np.ndarray:
        """Read-only; a -1 (the root's parent) counts for no vertex."""
        counts = np.bincount(self.parents + 1, minlength=self.n + 1)[1:]
        counts.flags.writeable = False
        return counts

    @cached_property
    def climb(self) -> np.ndarray:
        """For each vertex, the top of its climb: the vertex reached by
        moving to the parent while the parent is a non-root vertex with one
        child; the one pass here that follows only-child chains.  The movers'
        first step is selected by ``nonzero`` (they are sparse and scattered);
        pointer doubling then keeps those whose top still moves by a boolean
        mask (on tall chains most do).  Read-only."""
        parents = self.parents
        link = self.outdeg == 1
        link[self.root] = False
        moves = link[parents]
        moves[self.root] = False  # its -1 would read vertex n - 1
        steps = moves.nonzero()[0]
        top = np.arange(self.n)
        up = parents.take(steps)
        top[steps] = up
        steps = steps.take(moves.take(up).nonzero()[0])
        while steps.size:
            jump = top[top[steps]]
            top[steps] = jump
            steps = steps[moves[jump]]
        top.flags.writeable = False
        return top

    @cached_property
    def legs(self) -> np.ndarray:
        """The top of each non-root leaf's leg, its ``climb``, in ascending
        leaf order (read-only).  A leg top is a line child of a branch vertex
        or of the root, and the line vertices are those that climb to one."""
        leaf = self.outdeg == 0
        leaf[self.root] = False  # a single vertex has no leg
        tops = self.climb.take(leaf.nonzero()[0])
        tops.flags.writeable = False
        return tops

    @cached_property
    def pk_flags(self) -> np.ndarray:
        """Does the vertex have at least two children, at least one of
        which heads a line subtree?  Such a child is a leg top.  Read-only."""
        flags = np.zeros(self.n, dtype=bool)
        flags[self.parents.take(self.legs)] = True
        flags &= self.outdeg >= 2
        flags.flags.writeable = False
        return flags

    @cached_property
    def line(self) -> np.ndarray:
        """Is the hanging subtree a line (a single vertex counts)?  It is for
        the vertices that climb to a leg top, and for the root when no
        vertex has two children.  Read-only."""
        ends = np.zeros(self.n, dtype=bool)
        ends[self.legs] = True
        line = ends[self.climb]
        line[self.root] = self.outdeg.max() <= 1
        line.flags.writeable = False
        return line

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parents.tolist()):
            if p >= 0:
                kids[p].append(v)
        return tuple(map(tuple, kids))


def _is_int(x) -> bool:
    """The one integer rule: a Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def build_from_parents(parents) -> RootedTree:
    """Validate a parent array and return the tree it describes.

    ``parents`` is either a sequence holding ``None`` at the root and an
    integer elsewhere, or a one-dimensional signed-integer ndarray holding
    -1 at the root (any other negative entry is out of range).  Raises
    :class:`NoRoot`, :class:`MultipleRoots`, :class:`IndexOutOfRange` or
    :class:`CycleDetected` rather than returning a malformed tree: first
    for the smallest vertex whose own entry is bad (a second root, a
    non-integer or out-of-range parent, itself as parent), then for a
    missing root, then for the smallest vertex that cannot reach the root.
    """
    if isinstance(parents, np.ndarray):
        if parents.ndim != 1 or parents.dtype.kind != "i":
            raise IndexOutOfRange(
                "parent array must be one-dimensional with a signed integer "
                f"dtype, got {parents.ndim}-D {parents.dtype}"
            )
        arr = parents.astype(np.int64)
    else:
        n = len(parents)
        # Entries the sequence rules reject become n, which is out of range.
        arr = np.array(
            [-1 if p is None else p if _is_int(p) and 0 <= p < n else n for p in parents],
            dtype=np.int64,
        )
    arr.flags.writeable = False
    n = arr.size
    if n == 0:
        raise NoRoot("empty parent list")
    # Root 0 and 0 <= parent[v] < v for v >= 1: every chain descends to 0.
    # Negative parents wrap to huge unsigned values and fail the comparison.
    if arr[0] == -1 and (arr[1:].view(np.uint64) < np.arange(1, n, dtype=np.uint64)).all():
        return RootedTree(parents=arr, root=0)

    roots = (arr == -1).nonzero()[0]
    bad = (arr < -1) | (arr >= n) | (arr == np.arange(n))
    bad[roots[1:]] = True
    if bad.any():
        v = int(bad.argmax())
        if not isinstance(parents, np.ndarray):
            p = parents[v]
        else:
            p = None if arr[v] == -1 else int(arr[v])
        if p is None:
            raise MultipleRoots(
                f"vertex {v} has no parent but vertex {roots[0]} is already the root",
                vertex=v,
            )
        if not _is_int(p):
            raise IndexOutOfRange(f"vertex {v} has non-integer parent {p!r}", vertex=v)
        if not 0 <= p < n:
            raise IndexOutOfRange(
                f"vertex {v} has parent {p}, outside 0..{n - 1}", vertex=v
            )
        raise CycleDetected(f"vertex {v} is its own parent", vertex=v)
    if not roots.size:
        raise NoRoot("every vertex has a parent; no root")

    # Pointer doubling: after k rounds anc[v] is the 2^k-th ancestor of v
    # or the root, and every chain to the root is shorter than n.
    root = int(roots[0])
    anc = arr.copy()
    anc[root] = root
    for _ in range(n.bit_length()):
        anc = anc[anc]
        if (anc == root).all():
            return RootedTree(parents=arr, root=root)
    start = int((anc != root).argmax())
    raise CycleDetected(
        f"vertex {start} cannot reach the root (parent cycle)", vertex=start
    )


def check_vertex(tree: RootedTree, v: int) -> None:
    """Refuse anything but an integer (:func:`_is_int`) in range."""
    if not _is_int(v) or not 0 <= v < tree.n:
        raise VertexOutOfRange(f"vertex {v!r} outside 0..{tree.n - 1}")


def serialize(tree: RootedTree) -> str:
    """Encode a tree in the line-oriented text format.

    First line is the vertex count, then one line per vertex holding the
    parent index, or ``R`` for the root.  UTF-8, LF line endings.  The text
    is an (n + 1, width + 1) matrix of right-aligned digit bytes and LFs,
    read row by row with the leading zeros masked out.
    """
    vals = np.concatenate(([tree.n], tree.parents))
    vals[1 + tree.root] = 0
    width = len(str(int(vals.max())))
    # Filled a column at a time, so stored column-major; .T is the matrix.
    digits = np.empty((width + 1, vals.size), dtype=np.uint8)
    keep = np.empty(digits.shape, dtype=bool)
    digits[width] = ord("\n")
    keep[width] = True
    rest = vals
    for col in range(width - 1, -1, -1):
        keep[col] = rest > 0
        rest, digits[col] = np.divmod(rest, 10)
    keep[width - 1] = True
    digits[:width] += ord("0")
    digits[width - 1, 1 + tree.root] = ord(ROOT_TOKEN)
    return digits.T[keep.T].tobytes().decode("ascii")


def _parse_exact(text: str) -> np.ndarray | None:
    """The parent array (-1 at the root) of a text in :func:`serialize`'s
    exact form, or None for any other text.

    The exact form is ASCII digits, one row that is just ``R``, an LF after
    every row, rows of 1 to 18 bytes (so no value overflows int64) and a
    count row equal to the number of vertex rows.  Values are built one
    digit column at a time over the right-aligned rows.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = (buf == ord("\n")).nonzero()[0]
    if ends.size < 2 or ends[-1] != buf.size - 1:
        return None
    before = np.concatenate(([-1], ends[:-1]))  # the LF ahead of each row
    lens = ends - before - 1
    width = int(lens.max())
    if lens.min() < 1 or width > 18:
        return None
    r = text.find(ROOT_TOKEN)
    # R must fill a vertex row, with an LF on both sides; a second R fails
    # the digit check below.
    if r < 1 or buf[r - 1] != ord("\n") or buf[r + 1] != ord("\n"):
        return None
    digit = buf - ord("0")
    digit[r] = 0
    digit[ends] = 0
    if (digit > 9).any():
        return None
    # Offsets past a row's start are clipped to the LF ahead of it (the
    # final LF for the count row), whose digit is 0.
    at = np.empty_like(ends)
    vals = np.zeros(ends.size, dtype=np.int64)
    for col in range(width, 0, -1):
        np.maximum(ends - col, before, out=at)
        vals *= 10
        vals += digit[at]
    if vals[0] != ends.size - 1:
        return None
    parents = vals[1:]
    parents[np.searchsorted(ends, r) - 1] = -1
    return parents


def parse(text: str) -> RootedTree:
    """Decode the text format produced by :func:`serialize`, validating fully.

    Text in the exact form :func:`serialize` writes takes a byte-level digit
    pass; any other text is read token by token from its stripped lines.
    """
    parents = _parse_exact(text)
    if parents is not None:
        return build_from_parents(parents)
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
    entries: list[int | None] = []
    for line in body:
        if line == ROOT_TOKEN:
            entries.append(None)
        else:
            try:
                entries.append(int(line))
            except ValueError:
                raise TreeFormatError(f"bad parent entry {line!r}")
    return build_from_parents(entries)


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
