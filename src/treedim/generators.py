"""Seeded samplers for every random tree family in scope.

All samplers take a ``numpy.random.Generator`` and are bit-reproducible:
:class:`RngSpec` derives one independent stream per trial index as a pure
function of ``(master_seed, trial)``.

Families:

* critical branching trees conditioned on their size (exact, via the
  cycle-lemma rotation of the offspring walk, Devroye 2012; the tree is read
  off its depth-first outdegree sequence in O(n) array passes);
* uniform labeled trees (the Poisson(1) case with no rejection: n - 1 balls
  in n boxes give the outdegrees of the depth-first shape, and uniform
  labels, drawn last, name its vertices, Aldous 1991; O(n) array passes);
* linear-attachment growth trees with weight ``rho + chi * children(v)``
  (uniform picks, edge-endpoint copying or free-slot lists, O(n) array
  passes);
* the continuous-time embedding of the same growth rule (event queue),
  stopped at a size cap or at a time horizon (such as an independent
  exponential "doomsday" time drawn by the caller);
* the increasing-rate exponential clock H used in line-survival analysis.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, InvalidPmf, UnreachableSize
from .tree import RootedTree, _adopt, _follow, _is_int, build_from_parents

_MASK64 = (1 << 64) - 1
MAX_TREE_SIZE = 2**53  # float64 picks and subtree-size sums are exact up to here


def check_count(x: int, name: str, least: int, error: type[Exception] = InvalidParams) -> None:
    """Raise ``error`` unless x is an integer (``tree._is_int``) >= ``least``."""
    if not _is_int(x):
        raise error(f"{name} must be an integer, got {x!r}")
    if x < least:
        raise error(f"{name} must be >= {least}, got {x}")


def check_size(n: int) -> None:
    """Raise :class:`InvalidParams` unless n is an integer with 1 <= n <=
    ``MAX_TREE_SIZE``; every sampler calls it before its first draw."""
    check_count(n, "tree size", 1)
    if n > MAX_TREE_SIZE:
        raise InvalidParams(f"tree size must be <= 2^53, got {n}")


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the per-trial stream derivation rule.

    Trial ``i`` uses ``SeedSequence((master_seed, i))``, so streams are a
    pure function of ``(master_seed, i)`` and statistically independent.
    """

    master_seed: int

    def __post_init__(self):
        check_count(self.master_seed, "master_seed", 0)
        if self.master_seed > _MASK64:
            raise InvalidParams("master_seed must fit in 64 unsigned bits")

    def stream(self, trial: int = 0) -> np.random.Generator:
        check_count(trial, "trial index", 0)
        seq = np.random.SeedSequence((self.master_seed, trial))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class OffspringPmf:
    """Critical (mean 1) finite offspring distribution p_0..p_K with derived moments."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) == 0:
            raise InvalidPmf("empty probability vector")
        bad = [p for p in self.probs if not p >= 0]  # also catches NaN
        if bad:
            raise InvalidPmf(f"probability {bad[0]!r} is not a number >= 0")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise InvalidPmf(f"probabilities sum to {total!r}, not 1")
        if self.probs[0] <= 0.0:
            raise InvalidPmf("p_0 must be positive (the tree must be able to die out)")
        if abs(self.mean - 1.0) > 1e-9:
            raise InvalidPmf(f"offspring mean {self.mean!r} is not 1 within 1e-09")

    @classmethod
    def from_probs(cls, probs) -> "OffspringPmf":
        return cls(tuple(float(p) for p in probs))

    @classmethod
    def poisson(cls, mean: float = 1.0) -> "OffspringPmf":
        """Poisson(mean) truncated at k = 30 and renormalized.  Only mean 1
        passes the pmf's mean-1 rule (within 1e-9); there the discarded tail
        mass is below 1e-32."""
        if mean <= 0:
            raise InvalidPmf("poisson needs mean > 0")
        weights = [math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1)) for k in range(31)]
        total = math.fsum(weights)
        if total == 0:  # every weight underflows from a mean of about 875
            raise InvalidPmf(f"poisson({mean}) weights underflow to zero")
        return cls(tuple(w / total for w in weights))

    @classmethod
    def geometric(cls, ratio: float = 0.5) -> "OffspringPmf":
        """p_k proportional to ratio^k, truncated at k = 60 and renormalized.
        Only ratio 1/2 passes the pmf's mean-1 rule (within 1e-9)."""
        if not 0 < ratio < 1:
            raise InvalidPmf("geometric needs 0 < ratio < 1")
        total = math.fsum(ratio**k for k in range(61))
        return cls(tuple(ratio**k / total for k in range(61)))

    @property
    def p0(self) -> float:
        return self.probs[0]

    @property
    def p1(self) -> float:
        return self.probs[1] if len(self.probs) > 1 else 0.0

    @property
    def mean(self) -> float:
        return math.fsum(k * p for k, p in enumerate(self.probs))

    def pgf(self, x: float) -> float:
        acc = 0.0
        for p in reversed(self.probs):
            acc = acc * x + p
        return acc


CHI_VALUES = (-1, 0, 1)  # the slopes chi of a growth rule rho + chi * children(v)


def check_pa(rho: float, chi: int, error: type[Exception] = InvalidParams) -> None:
    """Raise ``error`` unless weight rho + chi * children(v) is a growth rule:
    chi in ``CHI_VALUES``, finite rho > 0 (not a bool), and integer rho when chi = -1."""
    if not _is_int(chi) or chi not in CHI_VALUES:
        raise error(f"chi must be -1, 0 or +1, got {chi}")
    if isinstance(rho, bool):
        raise error(f"rho must be a number, not a bool, got {rho}")
    if not rho > 0:
        raise error(f"rho must be positive, got {rho}")
    if not math.isfinite(rho):
        raise error(f"rho must be finite, got {rho}")
    if chi == -1 and float(rho) != int(rho):
        raise error(f"chi = -1 requires integer rho, got {rho}")


@dataclass(frozen=True)
class PAParams:
    """Attachment-rule parameters: weight(v) = rho + chi * children(v)."""

    rho: float
    chi: int

    def __post_init__(self):
        check_pa(self.rho, self.chi)


@dataclass(frozen=True)
class CMJTree:
    """A growth tree together with per-vertex birth times (root at 0)."""

    tree: RootedTree
    birth_times: tuple[float, ...]


# ---------------------------------------------------------------------------
# Conditioned critical branching trees
# ---------------------------------------------------------------------------

REJECTION_BUDGET = 1_000_000


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for nonnegative integer keys.

    Sorts stably by one 16-bit digit at a time, least significant first;
    numpy sorts 16-bit keys by radix sort, so each pass is O(n).
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    top = int(keys.max()) if keys.size else 0
    for shift in range(16, top.bit_length(), 16):
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def _lukasiewicz_parents(degs: np.ndarray) -> np.ndarray:
    """Parent array (-1 at the root) of the ordered tree whose depth-first
    outdegrees are a cyclic shift of ``degs`` (n int64 values summing to
    n - 1), vertices numbered depth-first from the root 0.  ``degs`` is
    used as scratch space and left overwritten.

    Rotates to the unique shift whose walk x_v = sum_{u<v} (d_u - 1) stays
    nonnegative (the cycle lemma), then reads the tree off the walk: vertex
    u pushes stack slots at heights x_u .. x_u + d_u - 1 and vertex v >= 1
    pops the slot at height x_v.  At each height pushes and pops alternate
    in time, so the k-th pop in (height, time) order is a child of the
    vertex behind the k-th push in that order.
    """
    n = degs.size
    # One new buffer holds the walk, then the rotated outdegrees, then the
    # parents; the buffer of degs holds sort keys and the pushers.
    buf = np.subtract(degs, 1)
    pivot = int(np.cumsum(buf, out=buf).argmin())  # first minimum
    buf[: n - pivot - 1] = degs[pivot + 1 :]
    buf[n - pivot - 1 :] = degs[: pivot + 1]
    owner = np.repeat(np.arange(n), buf)  # who pushes each slot, in time order
    # x_u + j for the j-th slot of u is (slot index) - u, and x_v for v >= 1
    # is (slots pushed before v) - v.
    pushes = _stable_order(np.subtract(np.arange(n - 1), owner, out=degs[:-1]))
    # Unlike mode="raise", mode="clip" writes to ``out`` without a buffer.
    pushers = np.take(owner, pushes, out=degs[:-1], mode="clip")
    del owner, pushes
    before = np.cumsum(buf[:-1], out=buf[:-1])
    before -= np.arange(1, n)
    pops = _stable_order(before)
    buf[0] = -1
    buf[1:][pops] = pushers
    return buf


def sample_conditioned_gw(
    pmf: OffspringPmf,
    n: int,
    rng: np.random.Generator,
) -> RootedTree:
    """Critical branching tree conditioned to have exactly ``n`` vertices.

    Draws count vectors of n offspring draws, O(K) each for K offspring
    values, until the counts add up to n - 1 children; shuffles the counts
    into a sequence, applies the unique cyclic rotation whose walk stays
    nonnegative until the final step and builds the ordered tree in
    depth-first order (Devroye, SIAM J. Comput. 41(1), 2012), in O(n) array
    passes.  Exact: given its counts, an i.i.d. sequence is a uniform
    arrangement of them.  Acceptance is Theta(n^-1/2) for finite-variance
    critical offspring.  Gives up after ``REJECTION_BUDGET`` attempts.
    """
    check_size(n)
    probs = np.asarray(pmf.probs)
    g = math.gcd(*probs.nonzero()[0].tolist())
    if (n - 1) % g != 0:
        raise UnreachableSize(
            f"no length-{n} offspring sequence sums to {n - 1}: support lattice "
            f"has span {g}"
        )
    values = np.arange(probs.size)
    # Acceptance is about (2 pi sigma^2 n)^-1/2, so a batch of sqrt(n)
    # attempts often holds a hit.
    batch = max(16, math.isqrt(n))
    attempts = 0
    while attempts < REJECTION_BUDGET:
        size = min(batch, REJECTION_BUDGET - attempts)
        counts = rng.multinomial(n, probs, size=size)
        attempts += size
        hits = np.flatnonzero(counts @ values == n - 1)
        if hits.size:
            degs = np.repeat(values, counts[hits[0]])
            rng.shuffle(degs)
            return _adopt(_lukasiewicz_parents(degs))
    raise UnreachableSize(
        f"no size-{n} tree found within {REJECTION_BUDGET} attempts"
    )


# ---------------------------------------------------------------------------
# Uniform labeled trees
# ---------------------------------------------------------------------------


def sample_uniform_shape(n: int, rng: np.random.Generator) -> RootedTree:
    """The shape of a uniform labeled tree on n vertices: its vertices
    numbered depth-first from the root 0.

    Throws n - 1 balls into n boxes: the box counts are n Poisson(1) draws
    conditioned on summing to n - 1, so their cycle-lemma rotation is the
    depth-first outdegree sequence of a Poisson(1) branching tree of size n
    (Devroye, SIAM J. Comput. 41(1), 2012).  Exact, with no rejection, in
    O(n) array passes.
    """
    check_size(n)
    return _adopt(_lukasiewicz_parents(np.bincount(rng.integers(0, n, n - 1), minlength=n)))


def sample_uniform_tree(n: int, rng: np.random.Generator) -> RootedTree:
    """Uniform labeled tree on n vertices, rooted at a uniform vertex.

    :func:`sample_uniform_shape` with uniform labels drawn after it, which
    make the Poisson(1) branching tree a uniform rooted labeled tree
    (Aldous, The continuum random tree II, 1991).  Relabelling a validated
    tree keeps it valid, so the labelled one is not validated again.
    """
    parents = sample_uniform_shape(n, rng).parents
    label = rng.permutation(n)
    labeled = np.empty(n, dtype=np.int64)
    labeled[label[0]] = -1
    labeled[label[1:]] = label[parents[1:]]
    labeled.flags.writeable = False
    return RootedTree(parents=labeled, root=int(label[0]))


# ---------------------------------------------------------------------------
# Discrete linear-attachment growth
# ---------------------------------------------------------------------------


def _copy_attach(rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Parent array (-1 at the root) under weight rho + children(u), whose
    total is rho v + v - 1 when v vertices are present: v picks a uniform
    earlier vertex with probability rho v / (rho v + v - 1), else the parent
    of a uniform earlier non-root vertex, which is u with probability
    children(u) / (v - 1) (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005).
    So v's parent is the pick at the end of its copy chain (``_follow``).
    Where rho v overflows to inf, v copies with probability below 2^-53,
    which no first uniform resolves, so v picks directly.
    """
    v = np.arange(1, n, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        w = v * float(rho)
        u = w + v
        u -= 1
        u *= rng.random(n - 1)
        direct = (u < w) | (w == math.inf)
    del u, w
    copy = np.zeros(n, dtype=bool)
    copies = np.logical_not(direct, out=copy[1:])
    # src[v] is the parent v picks directly, floor(u v), else the vertex v
    # copies, 1 + floor(u (v - 1)), for the next uniform u.
    np.subtract(v, 1, out=v, where=copies)
    v *= rng.random(n - 1)
    np.add(v, 1, out=v, where=copies)
    src = np.concatenate(([-1], v), dtype=np.int64, casting="unsafe")
    del v
    return src.take(_follow(src, copy))


def _slot_attach(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Parent array (-1 at the root) under weight m - children(u): each
    vertex owns m slots, and v fills a uniform one of the (m - 1) v + 1 free
    slots, which it overwrites with one of its own m slots before appending
    the rest.

    Slots 0..m-1 belong to the root and slots m + (m - 1)(v - 1) onwards to
    v, so a pick's parent is the previous pick of the same slot, or else
    the slot's creator; one stable sort by slot lines the picks up.
    """
    # Allocated before the temporaries, so that the heap can shrink past
    # them once they are freed.
    parents = np.empty(n, dtype=np.int64)
    picks = rng.random(n - 1)
    if m == 1:
        return np.arange(-1, n - 1)  # the root's one slot passes down a path
    picks *= (m - 1) * np.arange(1, n) + 1  # the free slots
    picks = picks.astype(np.int64)
    by_slot = _stable_order(picks)
    slot = picks.take(by_slot)
    del picks
    again = np.flatnonzero(slot[1:] == slot[:-1]) + 1
    # In place, each slot's creator: the root below m, else vertex
    # (slot - m) // (m - 1) + 1; then a repeated slot's previous pick.
    parent = slot
    parent -= m
    parent //= m - 1
    parent += 1
    np.maximum(parent, 0, out=parent)
    by_slot += 1  # the vertex behind each pick
    parent[again] = by_slot[again - 1]
    parents[0] = -1
    parents[by_slot] = parent
    return parents


def sample_pa_tree(params: PAParams, n: int, rng: np.random.Generator) -> RootedTree:
    """Grow a tree by attaching vertex i to v with probability proportional
    to rho + chi * children(v).

    Exact, in O(n) array passes: chi = 0 attaches to a uniform earlier
    vertex, chi = +1 mixes that with copying the parent end of a uniform
    edge (plus O(log n) pointer-jumping rounds), and chi = -1 fills a
    uniform free slot; it refuses more than 2^53 slots, (rho - 1)(n - 1) + 1,
    where float64 picks stop being exact.
    """
    check_size(n)
    if params.chi == -1 and (int(params.rho) - 1) * (int(n) - 1) + 1 > MAX_TREE_SIZE:
        raise InvalidParams(f"chi = -1 at rho = {params.rho:g}, n = {n} needs over 2^53 slots")
    if params.chi == 0:
        picks = rng.random(n - 1)
        picks *= np.arange(1, n)
        parents = np.concatenate(([-1], picks), dtype=np.int64, casting="unsafe")
    elif params.chi == 1:
        parents = _copy_attach(params.rho, n, rng)
    else:
        parents = _slot_attach(int(params.rho), n, rng)
    return _adopt(parents)


# ---------------------------------------------------------------------------
# Continuous-time embedding
# ---------------------------------------------------------------------------


def simulate_cmj(
    params: PAParams,
    n: int,
    rng: np.random.Generator,
    horizon: float = math.inf,
) -> CMJTree:
    """Event-driven simulation of the continuous-time growth process.

    Each vertex bears children at exponential gaps; the gap before a
    vertex's (j+1)-st child has rate rho + chi * j (for chi = -1 the vertex
    stops after rho children).  The run stops at the birth of the n-th
    vertex or at time ``horizon``, whichever comes first, and returns the
    exact state then.  With no horizon and stripped of birth times, the
    tree is distributed exactly as ``sample_pa_tree(params, n)``.
    """
    check_size(n)
    if not horizon >= 0:  # also catches NaN
        raise InvalidParams(f"horizon must be >= 0, got {horizon}")
    rho, chi = params.rho, params.chi

    parents = [-1]
    births = [0.0]
    outdeg = [0]
    # Each vertex has at most one pending birth, so (time, parent) never ties.
    pending: list[tuple[float, int]] = []

    def schedule(parent: int, now: float) -> None:
        rate = rho + chi * outdeg[parent]
        if rate <= 0:
            return
        heapq.heappush(pending, (now + rng.exponential(1.0 / rate), parent))

    if n > 1:
        schedule(0, 0.0)
    while pending:
        t, parent = heapq.heappop(pending)
        if t > horizon:
            break
        child = len(parents)
        parents.append(parent)
        births.append(t)
        outdeg[parent] += 1
        outdeg.append(0)
        if child + 1 >= n:
            break
        schedule(parent, t)
        schedule(child, t)
    return CMJTree(tree=build_from_parents(np.array(parents)), birth_times=tuple(births))


def sample_H(lam: float, nu: float, rng: np.random.Generator) -> float:
    """Exponential clock whose rate starts at 0 and jumps by ``nu`` at each
    point of an independent rate-``lam`` Poisson stream.

    Simulates the race directly: after the j-th stream point, an Exp(j nu)
    alarm competes with the next stream gap; the first alarm that fires
    before its gap ends the race.  That takes about sqrt(pi lam / (2 nu))
    rounds, so lam / nu is capped at 1e12 (about 1.3e6 rounds).
    """
    if not (0 < lam < math.inf and 0 < nu < math.inf):
        raise InvalidParams(f"sample_H requires finite positive rates, got ({lam}, {nu})")
    if lam > 1e12 * nu:
        raise InvalidParams(f"sample_H requires lam <= 1e12 nu, got ({lam}, {nu})")
    pi = rng.exponential(1.0 / lam)
    j = 1
    while True:
        gap = rng.exponential(1.0 / lam)
        alarm = rng.exponential(1.0 / (j * nu))
        if alarm <= gap:
            return pi + alarm
        pi += gap
        j += 1
