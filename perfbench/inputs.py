"""Seeded tree texts for the measure-1e5 workload.

The texts are made with numpy alone, never with ``treedim.generators``, so
a change to a sampler leaves them byte-identical.  Two shapes, each written
twice:

* ``recursive``: ``parent[v] = floor(U * v)``, a random recursive tree
  (shallow, about half the vertices are leaves);
* ``prufer``: the tree of a uniform Pruefer sequence, rooted at vertex 0
  (deep, with long chains of degree-2 vertices).

``increasing`` labels every vertex after its parent (``parent[v] < v``);
``shuffled`` applies a uniform random relabelling to the same tree, so a
fast path for increasing labels is used on one and bypassed on the other.
"""

from __future__ import annotations

import numpy as np

SHAPES = ("recursive", "prufer")
LABELLINGS = ("increasing", "shuffled")
ROOT_TOKEN = "R"  # the text format's marker for the root's missing parent
_TAG = 0x7E3D  # keeps these streams apart from any other use of the same seed


def recursive_parents(rng: np.random.Generator, n: int) -> np.ndarray:
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    parents[1:] = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    return parents


def _prufer_edges(seq: list[int], n: int) -> tuple[list[int], list[int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    us, vs = [], []
    ptr = degree.index(1)
    leaf = ptr
    for v in seq:
        us.append(leaf)
        vs.append(v)
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    us.append(leaf)
    vs.append(n - 1)
    return us, vs


def prufer_parents(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform labelled tree rooted at 0, relabelled in breadth-first order."""
    us, vs = _prufer_edges(rng.integers(0, n, size=n - 2).tolist(), n)
    ends = np.concatenate([us, vs])
    nbrs = np.concatenate([vs, us])
    order = np.argsort(ends, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))]).tolist()
    nbrs = nbrs[order].tolist()
    parent = [-1] * n
    bfs = [0]
    seen = [False] * n
    seen[0] = True
    for v in bfs:
        for w in nbrs[offsets[v] : offsets[v + 1]]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                bfs.append(w)
    rank = np.empty(n, dtype=np.int64)
    rank[bfs] = np.arange(n)
    old_parent = np.asarray(parent, dtype=np.int64)[bfs]
    return np.where(old_parent < 0, -1, rank[old_parent])


def relabel(parents: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The same tree with vertex ``u`` renamed ``perm[u]``."""
    out = np.empty_like(parents)
    out[perm] = np.where(parents < 0, -1, perm[parents])
    return out


def to_text(parents: np.ndarray) -> str:
    """The ``treedim.tree.serialize`` format: count, then one parent per line."""
    lines = [str(p) for p in parents.tolist()]
    lines[int(np.flatnonzero(parents < 0)[0])] = ROOT_TOKEN
    return f"{len(lines)}\n" + "\n".join(lines) + "\n"


def tree_texts(seed: int, n: int) -> dict[tuple[str, str], str]:
    """``(shape, labelling) -> text``, a pure function of ``(seed, n)``."""
    rng = np.random.default_rng([_TAG, seed])
    texts = {}
    for shape in SHAPES:
        parents = recursive_parents(rng, n) if shape == "recursive" else prufer_parents(rng, n)
        texts[shape, "increasing"] = to_text(parents)
        texts[shape, "shuffled"] = to_text(relabel(parents, rng.permutation(n)))
    return texts
