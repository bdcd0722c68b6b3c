"""Adaptive Simpson quadrature with Richardson extrapolation.

Good to near machine precision for smooth integrands on compact intervals;
mild endpoint (Holder-type) singularities are handled by the depth cap
``MAX_DEPTH``, whose forced-accept cells contribute provably negligible
error because the integrand stays bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

MAX_DEPTH = 60


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < math.inf):
            raise DomainError("quadrature tolerances must be finite, positive, rel_tol < 1")


DEFAULT_SPEC = QuadratureSpec()


def adaptive_simpson(
    f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]``; returns (value, error estimate).

    Raises :class:`DomainError` for a bound that is not finite, or for a cell
    to refine whose estimates are not (a NaN or unbounded integrand)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"adaptive_simpson needs finite bounds, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    if a > b:
        value, err = adaptive_simpson(f, b, a, spec)
        return -value, err

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        delta = left + right - whole
        # |delta|/15 estimates the error of the refined rule.
        local_tol = max(tol, spec.rel_tol * abs(left + right))
        if depth >= MAX_DEPTH or abs(delta) <= 15.0 * local_tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        if not math.isfinite(delta):
            raise DomainError(f"integrand is not finite on [{lo}, {hi}]")
        lval, lerr = recurse(lo, mid, flo, flm, fmid, left, tol / 2.0, depth + 1)
        rval, rerr = recurse(mid, hi, fmid, frm, fhi, right, tol / 2.0, depth + 1)
        return lval + rval, lerr + rerr

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(fa, fm, fb, b - a)
    return recurse(a, b, fa, fm, fb, whole, spec.abs_tol, 0)
