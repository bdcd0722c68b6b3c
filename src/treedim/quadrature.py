"""Adaptive Simpson quadrature with Richardson extrapolation (Lyness 1969).

Good to near machine precision for smooth integrands on compact intervals.
A mild endpoint (Holder-type) singularity, such as the constants' cusps at
u = 1, ends the refinement near depth 53: a cell there spans two adjacent
floats, so its midpoints round onto its ends, ``delta`` is exactly 0 and
the cell is accepted.  ``c_general(0.1, 1)`` accepts 144 such cells (220 at
rel_tol = 1e-13) and ``c_general(5, -1)`` 12 (44).  No point of the figure
grid reaches ``MAX_DEPTH`` at either tolerance; the cap is only a backstop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

MAX_DEPTH = 60


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive integrator.  A ``rel_tol`` below float64's
    epsilon, 2^-52, is refused: below about 1.5e-17 only a cell whose
    ``delta`` is exactly 0 passes, and the refinement heads for ``MAX_DEPTH``."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < math.inf):
            raise DomainError("quadrature tolerances must be finite, positive, rel_tol < 1")
        if self.rel_tol < sys.float_info.epsilon:
            raise DomainError(f"rel_tol must be >= 2^-52 (float64 epsilon), got {self.rel_tol!r}")


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

    rel_tol = spec.rel_tol

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        flm = f(0.5 * (lo + mid))
        frm = f(0.5 * (mid + hi))
        # Simpson's rule on each half
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        both = left + right
        delta = both - whole
        # |delta|/15 estimates the error of the refined rule.
        local_tol = rel_tol * abs(both)
        if depth >= MAX_DEPTH or abs(delta) <= 15.0 * (local_tol if local_tol > tol else tol):
            return both + delta / 15.0, abs(delta) / 15.0
        if not math.isfinite(delta):
            raise DomainError(f"integrand is not finite on [{lo}, {hi}]")
        tol /= 2.0
        lval, lerr = recurse(lo, mid, flo, flm, fmid, left, tol, depth + 1)
        rval, rerr = recurse(mid, hi, fmid, frm, fhi, right, tol, depth + 1)
        return lval + rval, lerr + rerr

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, spec.abs_tol, 0)
