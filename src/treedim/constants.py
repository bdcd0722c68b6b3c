"""Limiting constants of the normalized metric dimension, and the analytic
helper functions they are assembled from.

Every evaluator returns a :class:`ConstantResult` carrying the value, a
conservative absolute error estimate, and the method used.  The supported
growth models are parameterized by an attachment weight ``rho + chi * c``
(``c`` = current children count) with ``chi`` in ``{-1, 0, +1}``:

* ``chi = -1`` with integer ``rho = m >= 2``: m-slot increasing trees
  (``m = 2`` is the random binary search tree);
* ``chi = 0``, ``rho = 1``: random recursive trees;
* ``chi = +1``: rich-get-richer (preferential attachment) trees.

Critical branching trees conditioned on their size are covered separately
by :func:`c_gw`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidPmf, Unsupported
from .generators import OffspringPmf, check_pa
from .quadrature import DEFAULT_SPEC, QuadratureSpec, adaptive_simpson

# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def lower_incomplete_gamma(s: float, t: float) -> float:
    """gamma(s, t) = integral of x^(s-1) e^(-x) over [0, t].

    Series representation for t < s + 1, continued-fraction complement
    (modified Lentz) otherwise; relative accuracy about 1e-14 in the
    argument range used here.  Standard split following Numerical Recipes.
    """
    if s <= 0:
        raise DomainError(f"lower_incomplete_gamma requires s > 0, got {s}")
    if t < 0:
        raise DomainError(f"lower_incomplete_gamma requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    try:
        return _lower_incomplete_gamma(s, t)
    except OverflowError:
        raise DomainError(
            f"lower_incomplete_gamma({s}, {t}) overflows double precision"
        ) from None


# Iteration cap of both branches of ``_lower_incomplete_gamma``; reaching it
# raises rather than return an unconverged value.
GAMMA_MAX_ITER = 500


def _unconverged(s: float, t: float) -> DomainError:
    return DomainError(
        f"lower_incomplete_gamma({s}, {t}) did not converge in {GAMMA_MAX_ITER} iterations"
    )


def _lower_incomplete_gamma(s: float, t: float) -> float:
    lgam = math.lgamma(s)
    if t < s + 1.0:
        # gamma(s,t) = t^s e^-t sum_k t^k / (s (s+1) ... (s+k))
        term = 1.0 / s
        total = term
        k = s
        for _ in range(GAMMA_MAX_ITER):
            k += 1.0
            term *= t / k
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        else:
            raise _unconverged(s, t)
        return total * math.exp(-t + s * math.log(t))
    # Upper tail Q(s,t) by Lentz continued fraction, then gamma = (1-Q)Gamma.
    tiny = 1e-300
    b = t + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, GAMMA_MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise _unconverged(s, t)
    upper = math.exp(-t + s * math.log(t) - lgam) * h
    return math.exp(lgam) * (1.0 - upper)


def trinomial(m: int, i: int, j: int) -> int:
    """m! / (i! j! (m-i-j)!), exact."""
    if i < 0 or j < 0 or i + j > m:
        raise DomainError(f"trinomial requires 0 <= i, j and i+j <= m, got ({m},{i},{j})")
    return math.comb(m, i) * math.comb(m - i, j)


# ---------------------------------------------------------------------------
# Results and parameter checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantResult:
    value: float
    abs_error_estimate: float
    method: str  # closed_form | series | quadrature


def _check_evaluable(rho: float, chi: int) -> None:
    """The evaluators' domain: any growth rule but the rho = 1, chi = -1
    path, with chi = 0 only as random recursive trees (rho = 1)."""
    if chi == 0:
        if rho != 1:
            raise Unsupported(f"chi = 0 is evaluated at rho = 1 only, got rho = {rho}")
        return
    check_pa(rho, chi, DomainError)
    if chi == -1 and rho == 1:
        raise DomainError(
            "rho = 1, chi = -1 grows a deterministic path; the non-path "
            "formula does not apply"
        )


def p_leaf(rho: float, chi: int) -> float:
    """Probability that the limiting fringe tree is a single vertex.

    Defined for every chi = 0 rule, not only rho = 1.
    """
    if chi == 0:
        check_pa(rho, chi, DomainError)
    else:
        _check_evaluable(rho, chi)
    return (rho + chi) / (2.0 * rho + chi)


# ---------------------------------------------------------------------------
# Conditioned critical branching trees
# ---------------------------------------------------------------------------


def gw_line_prob(pmf: OffspringPmf) -> float:
    """Probability that an unconditioned branching subtree is a line."""
    p0, p1 = pmf.p0, pmf.p1
    if p1 >= 1.0:
        raise InvalidPmf("line probability needs p_1 < 1")
    # A subtree is a line iff it dies out (p0) or continues as a line (p1):
    # q = p0 + q p1.
    return p0 / (1.0 - p1)


def gw_pk_prob(pmf: OffspringPmf) -> float:
    """Probability that the unconditioned branching tree has >= 2 root
    children at least one of which heads a line subtree."""
    q = gw_line_prob(pmf)
    return 1.0 - pmf.pgf(1.0 - q) - q * pmf.p1


def c_gw(pmf: OffspringPmf) -> ConstantResult:
    """Limit of (metric dimension / size) for critical conditioned
    branching trees with offspring distribution ``pmf``.

    Closed form: the single-vertex probability p0 minus :func:`gw_pk_prob`.
    """
    value = pmf.p0 - gw_pk_prob(pmf)
    return ConstantResult(value=value, abs_error_estimate=1e-14, method="closed_form")


# ---------------------------------------------------------------------------
# m-slot increasing trees (chi = -1) via the incomplete-gamma double sum
# ---------------------------------------------------------------------------


def _mary_coefficient(m: int, i: int, j: int) -> float:
    """Coefficient of gamma((i+j)/(m-1)+1, i*m/(m-1)) in the m-slot sum.

    The pair (i, j) = (1, m-1) absorbs an extra exponential integral and
    carries its own coefficient.
    """
    s = (i + j) / (m - 1) + 1.0
    if (i, j) == (1, m - 1):
        return (1.0 - m / m**m) * math.exp(m / (m - 1)) * ((m - 1) / m) ** s
    return (
        ((-1.0) ** i / m ** (i + j))
        * trinomial(m, i, j)
        * math.exp(i * m / (m - 1))
        * ((m - 1) / (i * m)) ** s
    )


def c_mary(m: int) -> ConstantResult:
    """Limit constant for m-slot increasing trees, m >= 2 (m = 2: BSTs)."""
    if int(m) != m or m < 2:
        raise DomainError(f"c_mary requires an integer m >= 2, got {m}")
    try:
        return _mary_series(int(m))
    except OverflowError:
        raise Unsupported(f"c_mary({m}) overflows double precision") from None


def _mary_series(m: int) -> ConstantResult:
    first = sum(
        (m - 1) / ((m - 1 + j) * m**j) * math.comb(m, j) for j in range(1, m + 1)
    )
    second = 0.0
    magnitude = abs(first)
    for i in range(1, m + 1):
        for j in range(0, m - i + 1):
            s = (i + j) / (m - 1) + 1.0
            t = i * m / (m - 1)
            term = _mary_coefficient(m, i, j) * lower_incomplete_gamma(s, t)
            second += term
            magnitude += abs(term)
    # Terms cancel heavily; bound rounding by the summed magnitudes.
    est = max(1e-14, magnitude * 1e-13)
    return ConstantResult(value=first + second, abs_error_estimate=est, method="series")


# ---------------------------------------------------------------------------
# The doomsday-clock integrals (chi = +1 and the general two-integral form)
# ---------------------------------------------------------------------------


def _general_integrals(
    rho: float, chi: int, spec: QuadratureSpec
) -> tuple[float, float, float]:
    """The two semi-infinite integrals of the general constant formula.

    Both are mapped to [0, 1) by u = 1 - exp(-(rho+chi) x), under which the
    stopping-time density integrates to du exactly.
    """
    a = rho + chi
    r = rho / a

    def f1(u: float) -> float:
        if u >= 1.0:
            return 0.0 if chi > 0 else 1.0
        w = 1.0 - u
        # e^{chi x} (e^{r u} - 1) / rho, with e^{chi x} = w^{-chi/a}
        t = w ** (-chi / a) * math.expm1(r * u) / rho
        # (1 + chi t)^(-rho/chi); log1p keeps what 1 + chi t rounds off at huge rho
        return math.exp(-(rho / chi) * math.log1p(chi * t))

    def f2(u: float) -> float:
        if u >= 1.0:
            return 0.0
        return (1.0 - u) ** r * math.exp(r * u)

    i1, e1 = adaptive_simpson(f1, 0.0, 1.0, spec)
    i2, e2 = adaptive_simpson(f2, 0.0, 1.0, spec)
    return i1, i2, e1 + e2


def c_rrt(spec: QuadratureSpec = DEFAULT_SPEC) -> ConstantResult:
    """Limit constant for random recursive trees.

    e * (integral of e^-x / x over [1, e] + gamma(2, 1)) - 1.
    """
    integral, err = adaptive_simpson(lambda x: math.exp(-x) / x, 1.0, math.e, spec)
    value = math.e * (integral + lower_incomplete_gamma(2.0, 1.0)) - 1.0
    return ConstantResult(
        value=value,
        abs_error_estimate=max(math.e * err, 1e-12),
        method="quadrature",
    )


def c_general(
    rho: float, chi: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> ConstantResult:
    """Limit constant for any supported (rho, chi) attachment rule.

    chi = 0 supports rho = 1 only (random recursive trees).  For chi = -1
    the value comes from the two-integral quadrature; the independent
    incomplete-gamma evaluation :func:`c_mary` is folded into the error
    estimate as a cross-check wherever it fits in double precision.
    """
    _check_evaluable(rho, chi)
    if chi == 0:
        return c_rrt(spec)
    i1, i2, err = _general_integrals(rho, chi, spec)
    value = -1.0 + i1 + i2
    est = max(err, 1e-12)
    if chi == -1:
        try:
            est = max(est, abs(value - c_mary(int(rho)).value))
        except Unsupported:
            pass  # c_mary overflows from m = 144; the quadrature does not
    return ConstantResult(value=value, abs_error_estimate=est, method="quadrature")


# ---------------------------------------------------------------------------
# Conditional pieces: line probability, root-degree law, branch probability
# ---------------------------------------------------------------------------


def q_line_prob(rho: float, chi: int, x: float) -> float:
    """Probability that a root-child subtree is still a line at horizon x.

    The child's own birth time is averaged over (it is distributed with
    density proportional to e^{chi y} on [0, x]); the line survives while
    no vertex on its spine has produced a second child.
    """
    if not 0 < x < math.inf:  # also catches NaN
        raise DomainError(f"q_line_prob requires 0 < x < inf, got {x}")
    _check_evaluable(rho, chi)
    if chi == 0:
        return math.expm1(-math.expm1(-x)) / x
    # e^{chi x} / (expm1(chi x) / chi) is e^{-x} / -expm1(-x) at chi = -1 and
    # 1 / -expm1(-x) at chi = +1: decaying exponentials, finite for every x.
    a = rho + chi
    tilt = math.exp(-x) if chi == -1 else 1.0
    return tilt * math.expm1(-(rho / a) * math.expm1(-a * x)) / (rho * -math.expm1(-x))


def h_tail(lam: float, nu: float, t: float) -> float:
    """Tail P(H > t) of the exponential clock whose rate jumps by ``nu``
    at each point of a rate-``lam`` Poisson stream.

    Closed form exp(-lam t + (lam/nu)(1 - e^{-nu t})), written as
    exp(-lam t phi(nu t)) with phi(u) = (u + expm1(-u)) / u so that lam/nu
    never appears; phi is read from its Taylor series below u = 1e-2.
    """
    if not (0 < lam < math.inf and 0 < nu < math.inf):
        raise DomainError(f"h_tail requires finite positive rates, got ({lam}, {nu})")
    if not t >= 0:  # also catches NaN
        raise DomainError(f"h_tail requires t >= 0, got {t}")
    u = nu * t
    if u < 1e-2:
        phi = u * (1 / 2 - u * (1 / 6 - u * (1 / 24 - u * (1 / 120 - u / 720))))
    else:
        phi = 1.0 + math.expm1(-u) / u
    return math.exp(-lam * (t * phi))  # lam * t alone may overflow


def pk_given_x(rho: float, chi: int, x: float) -> float:
    """P(the tree at horizon x has >= 2 root children with a line subtree).

    Assembled as 1 - G(1 - q) - q P(one child), with q the per-child line
    probability and G the generating function of the root's children count:
    negative binomial for chi = +1, Poisson for chi = 0 (rho = 1), binomial
    for chi = -1.  Valid because the children's subtrees evolve
    independently given the horizon.
    """
    q = q_line_prob(rho, chi, x)  # refuses x outside (0, inf)
    z = 1.0 - q
    if chi == 0:
        g = math.exp(-x * (1.0 - z))
        p1 = x * math.exp(-x)
    elif chi == 1:  # in decaying exponentials, finite for every x
        g = math.exp(-rho * (x + math.log(q + (1.0 - q) * math.exp(-x))))
        p1 = rho * -math.expm1(-x) * math.exp(-rho * x)
    else:
        ecx = math.exp(-x)
        g = (ecx + (1.0 - ecx) * z) ** rho
        p1 = rho * -math.expm1(-x) * math.exp(-x * (rho - 1))
    return 1.0 - g - q * p1


def _pk_at_infinity(rho: float, chi: int) -> float:
    if chi == 1:
        return 1.0
    if chi == -1:
        return 0.0
    return 1.0 - math.exp(1.0 - math.e)  # chi = 0, rho = 1


def c_from_pk_integral(
    rho: float, chi: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[float, float]:
    """Re-derive the limit constant without merging any integrals.

    Integrates :func:`pk_given_x` against the exponential stopping-time
    density (rate rho + chi) and subtracts from the single-vertex
    probability.  Returns (value, error estimate).  This retraces the
    construction that the closed forms compress, so it cross-checks the
    conditional pieces against :func:`c_general`.
    """
    _check_evaluable(rho, chi)
    a = rho + chi
    limit = _pk_at_infinity(rho, chi)

    def integrand(u: float) -> float:
        if u >= 1.0:
            return limit
        if u <= 0.0:
            return 0.0
        x = -math.log1p(-u) / a
        return pk_given_x(rho, chi, x)

    pk, err = adaptive_simpson(integrand, 0.0, 1.0, spec)
    return p_leaf(rho, chi) - pk, max(err, 1e-12)
