import inspect
import math
import sys

import pytest
import scipy.integrate
import scipy.special

from treedim import (
    ConstantResult,
    OffspringPmf,
    QuadratureSpec,
    adaptive_simpson,
    c_from_pk_integral,
    c_general,
    c_gw,
    c_mary,
    c_rrt,
    gw_pk_prob,
    h_tail,
    lower_incomplete_gamma,
    p_leaf,
    pk_given_x,
    q_line_prob,
    trinomial,
)
from treedim import constants
from treedim.constants import _general_integrals
from treedim.errors import DomainError, InvalidPmf, Unsupported

E2 = math.exp(2.0)
E4 = math.exp(4.0)
BST_LITERAL = (3 * E4 - 48 * E2 + 233) / 384.0


class TestIncompleteGamma:
    def test_closed_forms(self):
        assert lower_incomplete_gamma(1, 1) == pytest.approx(1 - 1 / math.e, abs=1e-14)
        assert lower_incomplete_gamma(2, 1) == pytest.approx(1 - 2 / math.e, abs=1e-14)
        assert lower_incomplete_gamma(3, 2) == pytest.approx(
            2 * (1 - 5 * math.exp(-2)), abs=1e-13
        )

    def test_against_scipy(self):
        for s in (0.3, 0.9, 1.5, 2.25, 3.0, 5.5, 8.0):
            for t in (0.0, 0.2, 1.0, 2.5, 6.25, 15.0):
                reference = scipy.special.gammainc(s, t) * math.gamma(s)
                assert lower_incomplete_gamma(s, t) == pytest.approx(
                    reference, rel=1e-12, abs=1e-15
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_incomplete_gamma(0, 1)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(1, -0.5)

    def test_overflow_is_a_domain_error(self):
        # Gamma(171) is the last factorial below the largest double.
        reference = scipy.special.gammainc(171, 300) * math.gamma(171)
        assert lower_incomplete_gamma(171, 300) == pytest.approx(reference, rel=1e-12)
        with pytest.raises(DomainError, match=r"\(172, 300\)"):
            lower_incomplete_gamma(172, 300)

    @pytest.mark.parametrize(
        "s, t, name",
        [(1, math.nan, "t"), (math.nan, 1, "s"), (1, math.inf, "t"), (math.inf, 1, "s")],
        ids=repr,
    )
    def test_non_finite_refused_up_front(self, monkeypatch, s, t, name):
        monkeypatch.setattr(constants, "GAMMA_MAX_ITER", 0)  # no iteration is needed
        with pytest.raises(DomainError, match=rf"requires finite {name} "):
            lower_incomplete_gamma(s, t)

    @pytest.mark.parametrize("s, t", [(5.5, 2.5), (1.5, 6.25)], ids=["series", "lentz"])
    def test_unconverged_is_a_domain_error(self, monkeypatch, s, t):
        lower_incomplete_gamma(s, t)  # converges within the shipped cap
        monkeypatch.setattr(constants, "GAMMA_MAX_ITER", 3)
        with pytest.raises(DomainError, match=rf"\({s}, {t}\) did not converge in 3 iterations"):
            lower_incomplete_gamma(s, t)


class TestTrinomial:
    def test_values(self):
        assert trinomial(2, 1, 1) == 2
        assert trinomial(3, 1, 1) == 6
        assert trinomial(5, 2, 2) == 30

    def test_large_is_exact(self):
        assert trinomial(60, 20, 20) == math.factorial(60) // (
            math.factorial(20) ** 2 * math.factorial(20)
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            trinomial(3, 2, 2)
        with pytest.raises(DomainError):
            trinomial(3, -1, 1)

    @pytest.mark.parametrize(
        "args", [(3, 1.5, 0), (3.0, 1, 1), (3, 1, True), (math.nan, 0, 0), (math.inf, 1, 1)], ids=repr
    )
    def test_non_integers_refused(self, args):
        with pytest.raises(DomainError, match=r"^trinomial requires integers"):
            trinomial(*args)


class TestQuadrature:
    def test_polynomial(self):
        value, err = adaptive_simpson(lambda x: x * x, 0.0, 1.0)
        assert value == pytest.approx(1 / 3, abs=1e-13)
        assert err >= 0

    def test_oscillatory_vs_scipy(self):
        value, _ = adaptive_simpson(lambda x: math.sin(3 * x) * math.exp(-x), 0.0, 4.0)
        reference = scipy.integrate.quad(
            lambda x: math.sin(3 * x) * math.exp(-x), 0, 4, epsabs=1e-14
        )[0]
        assert value == pytest.approx(reference, abs=1e-11)

    def test_reversed_bounds(self):
        forward, _ = adaptive_simpson(math.exp, 0.0, 1.0)
        backward, _ = adaptive_simpson(math.exp, 1.0, 0.0)
        assert backward == -forward

    def test_empty_interval(self):
        def never(x):
            raise AssertionError("integrand evaluated")

        assert adaptive_simpson(never, 0.5, 0.5) == (0.0, 0.0)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
            {"rel_tol": 1.0},
            {"rel_tol": 1e-18},
            {"rel_tol": 5e-324},
        ],
    )
    def test_spec_rejects_useless_tolerances(self, kwargs):
        # The first three would accept the first Simpson cell whatever its
        # error; the last two accept only a cell whose delta is exactly 0.
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)

    def test_rel_tol_floor_is_float64_epsilon(self):
        QuadratureSpec(rel_tol=sys.float_info.epsilon)
        with pytest.raises(DomainError, match=r"2\^-52"):
            QuadratureSpec(rel_tol=sys.float_info.epsilon / 2)

    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: math.nan, 0.0, 1.0),
            (lambda x: 1.0, 0.0, math.inf),
            (lambda x: 1.0, -math.inf, 0.0),
            (lambda x: 1.0 / x if x else math.inf, 0.0, 1.0),
        ],
        ids=["nan", "inf-upper", "inf-lower", "pole"],
    )
    def test_refuses_what_no_depth_resolves(self, f, a, b):
        # A NaN or unbounded integrand never passes the accept test; without
        # the refusal every cell splits to MAX_DEPTH (about 2^60 calls).
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            if calls > 100_000:
                raise RuntimeError("adaptive_simpson did not stop")
            return f(x)

        with pytest.raises(DomainError, match="finite"):
            adaptive_simpson(counted, a, b)


class TestGWConstant:
    def test_poisson(self):
        result = c_gw(OffspringPmf.poisson(1.0))
        exact = 1 / math.e - 1 + math.exp(-1 / (math.e - 1)) + (1 / math.e) / (math.e - 1)
        assert result.value == pytest.approx(exact, abs=1e-14)
        assert result.value == pytest.approx(0.14076941, abs=1e-7)
        assert result.method == "closed_form"

    def test_half_half(self):
        pmf = OffspringPmf.from_probs([0.5, 0.0, 0.5])
        assert c_gw(pmf).value == pytest.approx(0.125, abs=1e-15)

    def test_geometric(self):
        pmf = OffspringPmf.geometric(0.5)
        assert c_gw(pmf).value == pytest.approx(4 / 15, abs=1e-12)

    def test_non_critical_rejected(self):
        with pytest.raises(InvalidPmf, match="not 1"):
            c_gw(OffspringPmf.from_probs([0.6, 0.4]))

    def test_p1_one_rejected(self):
        # Within the pmf's sum and mean tolerances, yet every vertex has one
        # child: the line probability p0 / (1 - p1) is undefined.
        pmf = OffspringPmf((1e-13, 1.0))
        with pytest.raises(InvalidPmf, match="p_1 < 1"):
            c_gw(pmf)

    def test_pk_probability(self):
        pmf = OffspringPmf.poisson(1.0)
        q = 1 / (math.e - 1)
        expected = 1 - math.exp(-q) - q / math.e
        assert gw_pk_prob(pmf) == pytest.approx(expected, abs=1e-12)
        # leaves minus branching vertices reproduces the constant
        assert pmf.p0 - gw_pk_prob(pmf) == pytest.approx(c_gw(pmf).value, abs=1e-12)


class TestMaryConstant:
    def test_m2_closed_form(self):
        result = c_mary(2)
        assert abs(result.value - BST_LITERAL) <= 1e-12
        assert result.abs_error_estimate <= 1e-8

    def test_table_values(self):
        assert c_mary(3).value == pytest.approx(0.15812, abs=5e-5)
        assert c_mary(4).value == pytest.approx(0.18377, abs=5e-5)
        assert c_mary(5).value == pytest.approx(0.19953, abs=5e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_mary(1)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, 2.0, True, "3"], ids=repr)
    def test_m_follows_the_integer_rule(self, m):
        with pytest.raises(DomainError, match=rf"^m must be an integer, got {m!r}$"):
            c_mary(m)

    def test_overflow_is_unsupported(self):
        assert 0.0 < c_mary(143).value < 1.0
        for m in (144, 200):
            with pytest.raises(Unsupported, match=rf"c_mary\({m}\)"):
                c_mary(m)


class TestRRTConstant:
    def test_value(self):
        assert c_rrt().value == pytest.approx(0.263709059, abs=1e-8)

    def test_against_scipy(self):
        integral = scipy.integrate.quad(
            lambda x: math.exp(-x) / x, 1, math.e, epsabs=1e-14, epsrel=1e-14
        )[0]
        reference = math.e * (integral + (1 - 2 / math.e)) - 1
        assert c_rrt().value == pytest.approx(reference, abs=1e-11)

    def test_matches_general_dispatch(self):
        assert c_general(1.0, 0).value == c_rrt().value


class TestRichConstant:
    def test_table(self):
        assert c_general(1.0, 1).value == pytest.approx(0.50120, abs=5e-5)
        assert c_general(2.0, 1).value == pytest.approx(0.40304, abs=5e-5)
        assert c_general(0.1, 1).value == pytest.approx(0.87501, abs=5e-5)

    def test_integral_split_published_values(self):
        i1, i2, _ = _general_integrals(1.0, 1, QuadratureSpec())
        assert i1 == pytest.approx(0.679824, abs=1e-6)
        assert i2 == pytest.approx(0.821372, abs=1e-6)

    def test_second_integral_gamma_identity(self):
        # I2 = e^r r^-(1+r) gamma(1+r, r) with r = rho/(rho+chi)
        for rho, chi in ((1.0, 1), (2.0, 1), (0.1, 1), (2.0, -1), (5.0, -1)):
            r = rho / (rho + chi)
            closed = math.exp(r) * r ** (-(1 + r)) * lower_incomplete_gamma(1 + r, r)
            _, i2, _ = _general_integrals(rho, chi, QuadratureSpec())
            assert i2 == pytest.approx(closed, abs=2e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_general(0.0, 1)


class TestGeneralConstant:
    def test_matches_mary(self):
        for m in (2, 3, 4, 5):
            assert abs(c_general(float(m), -1).value - c_mary(m).value) <= 1e-9

    @pytest.mark.parametrize("rho", [0.1, 0.5, 1.0, 2.0])
    def test_rich_matches_pk_integral(self, rho):
        # independent route: the unmerged conditional pieces
        value = c_from_pk_integral(rho, 1).value
        assert abs(c_general(rho, 1).value - value) <= 1e-12

    def test_chi_zero_requires_unit_rho(self):
        with pytest.raises(Unsupported):
            c_general(2.0, 0)

    @pytest.mark.parametrize(
        "rho,chi", [(2.0, True), (2.0, 1.0), (1.0, 0.0), (1.0, False), (2.0, -1.0)], ids=repr
    )
    def test_chi_must_be_an_integer(self, rho, chi):
        with pytest.raises(DomainError, match=rf"^chi must be -1, 0 or \+1, got {chi}$"):
            c_general(rho, chi)

    def test_large_rho_keeps_quadrature_when_mary_overflows(self):
        # c_mary(200) is Unsupported; the quadrature still holds there.
        value = c_from_pk_integral(200.0, -1).value
        assert abs(c_general(200.0, -1).value - value) <= 1e-9

    @pytest.mark.parametrize("rho", [1e16, 1e300])
    @pytest.mark.parametrize("chi", [-1, 1])
    def test_huge_rho_tends_to_recursive_tree(self, rho, chi):
        # As rho grows the attachment weights flatten to uniform.
        assert abs(c_general(rho, chi).value - c_rrt().value) <= 1e-9

    def test_degenerate_path_model_rejected(self):
        with pytest.raises(DomainError):
            c_general(1.0, -1)

    def test_non_integer_rho_with_negative_chi_rejected(self):
        with pytest.raises(DomainError):
            c_general(2.5, -1)

    def test_infinite_rho_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            c_general(math.inf, -1)

    @pytest.mark.parametrize("chi", [-1, 0, 1])
    def test_bool_rho_refused(self, chi):
        message = r"^rho must be a number, not a bool, got True$"
        for evaluate in (c_general, p_leaf, c_from_pk_integral):
            with pytest.raises(DomainError, match=message):
                evaluate(True, chi)
        with pytest.raises(DomainError, match=message):
            q_line_prob(True, chi, 1.0)

    def test_all_constants_in_unit_interval(self):
        values = [
            c_mary(2).value,
            c_rrt().value,
            c_gw(OffspringPmf.poisson(1.0)).value,
            c_general(0.1, 1).value,
            c_general(10.0, 1).value,
            c_general(5.0, -1).value,
        ]
        assert all(0.0 < v < 1.0 for v in values)

    def test_rich_monotone_on_grid(self):
        # observed on the evaluation grid; logged rather than a theorem
        grid = [0.1, 0.5, 1.0, 2.0]
        values = [c_general(r, 1).value for r in grid]
        print("rich-get-richer constants over rho grid:", list(zip(grid, values)))
        assert values == sorted(values, reverse=True)

    def test_halving_tolerances_stays_within_reported_error(self):
        tight = QuadratureSpec(rel_tol=5e-11, abs_tol=5e-13)
        for make in (
            lambda spec: c_rrt(spec),
            lambda spec: c_general(1.0, 1, spec),
            lambda spec: c_general(5.0, -1, spec),
            lambda spec: c_general(0.1, 1, spec),
        ):
            default = make(QuadratureSpec())
            refined = make(tight)
            assert abs(default.value - refined.value) <= default.abs_error_estimate
            assert default.abs_error_estimate <= 1e-8


class TestConditionalPieces:
    def test_q_limits_to_one_at_small_x(self):
        for rho, chi in ((1.0, 0), (1.0, 1), (2.0, -1)):
            assert q_line_prob(rho, chi, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_q_recursive_model(self):
        expected = math.exp(1 - math.exp(-1)) - 1
        assert q_line_prob(1.0, 0, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_q_decreases_in_x(self):
        values = [q_line_prob(1.0, 1, x) for x in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    def test_q_domain(self):
        for x in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="0 < x < inf"):
                q_line_prob(1.0, 1, x)
        with pytest.raises(Unsupported):
            q_line_prob(2.0, 0, 1.0)

    def test_h_tail_values(self):
        assert h_tail(1, 1, 0) == 1.0
        assert h_tail(1, 1, 1) == pytest.approx(math.exp(-1 / math.e), abs=1e-14)
        assert h_tail(1, 2, 2) == pytest.approx(
            math.exp(-2 + 0.5 * (1 - math.exp(-4))), abs=1e-14
        )

    def test_h_tail_asymptote(self):
        # for large t the tail behaves like e^(-lam t + lam/nu)
        assert h_tail(1, 1, 40) / math.exp(-40 + 1) == pytest.approx(1.0, rel=1e-12)

    def test_h_tail_domain(self):
        with pytest.raises(DomainError):
            h_tail(0, 1, 1)
        with pytest.raises(DomainError):
            h_tail(1, 1, -1)
        for lam, nu in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match="finite positive rates"):
                h_tail(lam, nu, 1.0)
        with pytest.raises(DomainError, match="t >= 0"):
            h_tail(1.0, 1.0, math.nan)

    @pytest.mark.parametrize(
        "lam,nu,t,expected",
        [
            (1.0, 1e-320, 1.0, 1.0),
            (1e300, 1e-300, 1.0, math.exp(-0.5)),
            (1e200, 1e-200, 1e-3, math.exp(-5e-7)),
            (1e300, 1e-300, 1e300, 0.0),
            (1e300, 1e-320, 1e10, math.exp(-(1e300 * 1e-320) * 1e10 * 1e10 / 2)),
        ],
    )
    def test_h_tail_when_lam_over_nu_overflows_or_nu_t_is_tiny(self, lam, nu, t, expected):
        # For small nu t the tail is about exp(-lam nu t^2 / 2).
        assert h_tail(lam, nu, t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_h_tail_series_meets_closed_form(self):
        # phi(nu t) meets the closed form at the shipped rates, and its
        # series meets it on both sides of nu t = 1e-2.
        for lam, nu, t in ((1.0, 1.0, 1.0), (1.0, 2.0, 2.0), (2.0, 1.0, 0.5)):
            closed = math.exp(-lam * t - (lam / nu) * math.expm1(-nu * t))
            assert h_tail(lam, nu, t) == pytest.approx(closed, rel=1e-13)
        for t in (0.0099, 0.0101):
            closed = math.exp(-3.0 * t - 3.0 * math.expm1(-t))
            assert h_tail(3.0, 1.0, t) == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("rho", [0.001, 0.1, 1.0, 5.0, 10.0])
    def test_rich_pieces_at_large_x(self, rho):
        # e^x overflows past x = 709.78, but the pieces stay probabilities,
        # and q tends to expm1(rho / (rho + 1)) / rho, not to 0.
        for x in (1.0, 50.0, 700.0, 709.0, 710.0, 800.0, 1e6):
            for value in (q_line_prob(rho, 1, x), pk_given_x(rho, 1, x)):
                assert math.isfinite(value) and 0.0 <= value <= 1.0
        assert q_line_prob(rho, 1, 800.0) == math.expm1(rho / (rho + 1)) / rho

    def test_rich_pieces_match_growing_exponential_forms(self):
        for rho, x in ((1.0, 1.0), (0.5, 3.0), (5.0, 20.0)):
            a = rho + 1
            q = math.exp(x) * math.expm1(-(rho / a) * math.expm1(-a * x)) / (rho * math.expm1(x))
            g = (math.exp(x) + (1 - math.exp(x)) * (1 - q)) ** -rho
            p1 = rho * math.expm1(x) * math.exp(-x * a)
            assert q_line_prob(rho, 1, x) == pytest.approx(q, rel=1e-13)
            assert pk_given_x(rho, 1, x) == pytest.approx(1 - g - q * p1, rel=1e-12)
        assert q_line_prob(5.0, 1, 709.0) == pytest.approx(0.260195, abs=5e-7)
        assert pk_given_x(0.001, 1, 800.0) == pytest.approx(0.5502, abs=5e-5)

    def test_pk_domain(self):
        for x in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="0 < x < inf"):
                pk_given_x(1.0, 0, x)
        with pytest.raises(Unsupported):
            pk_given_x(2.0, 0, 1.0)

    def test_pk_limits_to_zero_at_small_x(self):
        for rho, chi in ((1.0, 0), (1.0, 1), (2.0, -1)):
            assert pk_given_x(rho, chi, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_pk_recursive_model_hand_value(self):
        expected = (
            1
            - math.exp(1 - math.exp(1 - 1 / math.e))
            - math.exp(-1 / math.e)
            + math.exp(-1)
        )
        assert pk_given_x(1.0, 0, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_p_leaf(self):
        assert p_leaf(2.0, -1) == pytest.approx(1 / 3, abs=1e-15)
        assert p_leaf(1.0, 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_unmerged_integral_reproduces_constants(self):
        value = c_from_pk_integral(1.0, 0).value
        assert value == pytest.approx(c_rrt().value, abs=1e-8)
        value = c_from_pk_integral(1.0, 1).value
        assert value == pytest.approx(c_general(1.0, 1).value, abs=1e-8)
        value = c_from_pk_integral(2.0, -1).value
        assert value == pytest.approx(c_mary(2).value, abs=1e-8)

    def test_pk_integral_returns_a_constant_result(self):
        result = c_from_pk_integral(1.0, 1)
        assert isinstance(result, ConstantResult)
        assert result.method == "quadrature"
        assert "spec" not in inspect.signature(c_from_pk_integral).parameters


class TestPinnedBits:
    """``float.hex`` of the value and error estimate of every constant the
    benchmark's exact side evaluates: a speed-up of the quadrature or of
    the integrands must leave every bit in place."""

    TIGHT = QuadratureSpec(rel_tol=1e-13)
    GENERAL = {
        # (rho, chi, at rel_tol 1e-13): (value, abs_error_estimate)
        (2.0, -1, False): ("0x1.c1470474b5c70p-4", "0x1.39b0ca63de311p-35"),
        (2.0, -1, True): ("0x1.c1470474b5148p-4", "0x1.19799812dea11p-40"),
        (3.0, -1, False): ("0x1.43d5c1fa28a20p-3", "0x1.6d23e2b4927d9p-35"),
        (3.0, -1, True): ("0x1.43d5c1fa25b00p-3", "0x1.19799812dea11p-40"),
        (4.0, -1, False): ("0x1.785dd03271280p-3", "0x1.32b5b8a08bfebp-35"),
        (4.0, -1, True): ("0x1.785dd03270208p-3", "0x1.19799812dea11p-40"),
        (5.0, -1, False): ("0x1.98a1585afaeecp-3", "0x1.61f919d4ca156p-35"),
        (5.0, -1, True): ("0x1.98a1585af79e4p-3", "0x1.19799812dea11p-40"),
        (1.0, 0, False): ("0x1.0e09bf62a4994p-2", "0x1.10d95177ae318p-36"),
        (1.0, 0, True): ("0x1.0e09bf62a4978p-2", "0x1.19799812dea11p-40"),
        (2.0, 1, False): ("0x1.9cb6b7b427268p-2", "0x1.acbb29da5178cp-35"),
        (2.0, 1, True): ("0x1.9cb6b7b4275d0p-2", "0x1.19799812dea11p-40"),
        (1.0, 1, False): ("0x1.009cdae137ee4p-1", "0x1.e31b399f9f19dp-35"),
        (1.0, 1, True): ("0x1.009cdae137ff8p-1", "0x1.19799812dea11p-40"),
        (0.5, 1, False): ("0x1.402d405b9492ep-1", "0x1.f5e9fbab26cf8p-35"),
        (0.5, 1, True): ("0x1.402d405b94a5cp-1", "0x1.19799812dea11p-40"),
        (0.1, 1, False): ("0x1.c000f2889de60p-1", "0x1.fb492f0614524p-35"),
        (0.1, 1, True): ("0x1.c000f2889e04cp-1", "0x1.19799812dea11p-40"),
    }
    MARY = {
        2: ("0x1.c1470474b5164p-4", "0x1.036e79266ad24p-42"),
        3: ("0x1.43d5c1fa259c0p-3", "0x1.d2e587e701e60p-42"),
        4: ("0x1.785dd032701dcp-3", "0x1.2dd0f54dd9aaap-41"),
        5: ("0x1.98a1585af79b4p-3", "0x1.61b63408d671ep-41"),
        6: ("0x1.ae612a2b7d1acp-3", "0x1.8cec97b9dbdb4p-41"),
        7: ("0x1.be00fdba03cd0p-3", "0x1.b20d1b3f258c2p-41"),
        8: ("0x1.c9c21556d6b28p-3", "0x1.d267166a2d914p-41"),
    }
    RRT = ("0x1.0e09bf62a4994p-2", "0x1.10d95177ae318p-36")
    PK_INTEGRAL = {
        (2.0, -1): ("0x1.c1470474b51e4p-4", "0x1.115e0f7feeeefp-37"),
        (5.0, -1): ("0x1.98a1585af7b24p-3", "0x1.2b43b053965fcp-37"),
        (1.0, 0): ("0x1.0e09bf62a497dp-2", "0x1.1d4adc0684444p-37"),
        (1.0, 1): ("0x1.009cdae137fe0p-1", "0x1.86a4f936517c0p-38"),
        (0.1, 1): ("0x1.c000f2889e049p-1", "0x1.b6f80f5cbef14p-40"),
    }

    @pytest.mark.parametrize("key", list(GENERAL), ids=lambda k: f"{k[0]}/{k[1]}/{'tight' if k[2] else 'default'}")
    def test_general(self, key):
        rho, chi, tight = key
        result = c_general(rho, chi, self.TIGHT) if tight else c_general(rho, chi)
        assert (result.value.hex(), result.abs_error_estimate.hex()) == self.GENERAL[key]

    @pytest.mark.parametrize("m", list(MARY))
    def test_mary(self, m):
        result = c_mary(m)
        assert (result.value.hex(), result.abs_error_estimate.hex()) == self.MARY[m]

    def test_rrt(self):
        result = c_rrt()
        assert (result.value.hex(), result.abs_error_estimate.hex()) == self.RRT

    @pytest.mark.parametrize("key", list(PK_INTEGRAL), ids=lambda k: "{}/{}".format(*k))
    def test_pk_integral(self, key):
        result = c_from_pk_integral(*key)
        assert (result.value.hex(), result.abs_error_estimate.hex()) == self.PK_INTEGRAL[key]
