"""In-memory spans around calls into treedim's layers, and their self times.

A traced run records one span per call at each layer boundary: the
benchmark's own call sites (``Tracer.call``) and the module-level names
that treedim's modules look up at call time (``Tracer.installed``
rebinds them and restores them afterwards).  Nothing in ``src/`` changes.
Spans stay in memory until the run ends; ``self_times`` then charges each
span its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name) rebound while a traced pass runs.  These
# are the names the calling modules resolve at call time, so the wrappers
# see every call that runs through them.
REBOUND = (
    ("treedim.experiments", "generate_tree", "generators"),
    ("treedim.experiments", "md_report", "metric_dimension.md_report"),
    ("treedim.experiments", "default_reference", "constants.default_reference"),
    ("treedim.generators", "build_from_parents", "tree.build"),
    ("treedim.tree", "build_from_parents", "tree.build"),
    ("treedim.constants", "adaptive_simpson", "quadrature.simpson"),
    ("treedim.constants", "lower_incomplete_gamma", "constants.lower_incomplete_gamma"),
)


class Tracer:
    """Span recorder for one single-threaded traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.family = "unknown"  # label of the sampler family the current op uses
        self.vertices: Counter[str] = Counter()  # vertices sampled, by family
        self.integrand_evals = 0
        self.first_tree = None  # first tree built inside a traced op

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.names)
        self.calls[name] += 1
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, span: str, fn):
        if span == "generators":
            def generate(*a, **k):
                tree = self.call(f"generators.{self.family}", fn, *a, **k)
                self.vertices[self.family] += tree.n
                return tree
            return generate
        if span == "tree.build":
            def build(*a, **k):
                tree = self.call(span, fn, *a, **k)
                if self.first_tree is None:
                    self.first_tree = tree
                return tree
            return build
        if span == "quadrature.simpson":
            def simpson(f, *a, **k):
                def counted(x):
                    self.integrand_evals += 1
                    return f(x)
                return self.call(span, fn, counted, *a, **k)
            return simpson
        return lambda *a, **k: self.call(span, fn, *a, **k)

    @contextmanager
    def installed(self, modules):
        """Rebind every name in ``REBOUND`` to a span-recording wrapper."""
        saved = []
        try:
            for mod_name, attr, span in REBOUND:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrapper(span, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so the result stays
    correct for spans whose children overlap or outlast them.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    result = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        result.append((hi - lo) - covered)
    return result


def summarize(tracer: Tracer) -> dict[str, tuple[int, float, float]]:
    """``span name -> (calls, total seconds, self seconds)``."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    table: dict[str, list] = {}
    for name, a, b, s in zip(tracer.names, tracer.starts, tracer.ends, selfs):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += b - a
        row[2] += s
    return {k: (v[0], v[1], v[2]) for k, v in table.items()}


def root_total(tracer: Tracer) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(
        b - a for a, b, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0
    )
