import hashlib
import math
import tracemalloc
import warnings
from collections import Counter
from itertools import product

import numpy as np
import pytest
import scipy.stats
import tuple_core
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treedim import (
    CMJTree,
    GWModel,
    OffspringPmf,
    PAModel,
    PAParams,
    RngSpec,
    UniformModel,
    count_subtree_property,
    fringe_size_counts,
    gw_pk_prob,
    h_tail,
    is_pk,
    is_pl,
    md_report,
    sample_H,
    sample_conditioned_gw,
    sample_pa_tree,
    sample_uniform_tree,
    serialize,
    simulate_cmj,
)
from treedim import generators
from treedim.errors import InvalidParams, InvalidPmf, TreeStructureError, UnreachableSize
from treedim.generators import (
    _lukasiewicz_parents,
    _stable_order,
    check_count,
    sample_uniform_shape,
)
from treedim.tree import build_from_parents
from treedim.verify import EMBEDDING_PARAMS, FIGURE_GRID


def shape_key(tree):
    key = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        kids = tree.children[v]
        key.append(len(kids))
        stack.extend(reversed(kids))
    return tuple(key)


def ordered_shapes(n):
    """All preorder outdegree sequences of ordered rooted trees on n vertices."""
    out = []

    def rec(seq, pending):
        used = len(seq)
        if used == n:
            if pending == 0:
                out.append(tuple(seq))
            return
        if used > 0 and pending == 0:
            return
        slot = 1 if used > 0 else 0
        for d in range(n - used):
            rec(seq + [d], pending - slot + d)

    rec([], 0)
    return out


def gw_shape_distribution(pmf, n):
    """Exact ordered-shape law of the size-conditioned branching tree."""
    weights = {}
    for shape in ordered_shapes(n):
        w = 1.0
        for d in shape:
            w *= pmf.probs[d] if d < len(pmf.probs) else 0.0
        if w > 0:
            weights[shape] = w
    total = sum(weights.values())
    return {shape: w / total for shape, w in weights.items()}


def increasing_tree_law(rho, chi, n):
    """Exact law of the parent tuple (of vertices 1..n-1) of the growth tree.

    Each step multiplies by weight / total weight, weight(u) being
    rho + chi * children(u) at the time of the attachment.
    """
    law = {(): 1.0}
    for v in range(1, n):
        grown = {}
        for parents, p in law.items():
            kids = Counter(parents)
            weights = [rho + chi * kids[u] for u in range(v)]
            total = sum(weights)
            for u, w in enumerate(weights):
                if w > 0:
                    grown[parents + (u,)] = p * w / total
        law = grown
    return law


def chi2_pvalue(counts, law, trials):
    """Chi-square p-value of observed keys against an exact law.

    Cells are taken in increasing probability and pooled into groups of
    expected count >= 5.  A key outside the law's support fails outright.
    """
    assert set(counts) <= set(law), set(counts) - set(law)
    groups = []
    obs = exp = 0.0
    for key in sorted(law, key=law.get):
        obs += counts[key]
        exp += trials * law[key]
        if exp >= 5:
            groups.append((obs, exp))
            obs = exp = 0.0
    if exp:
        last_obs, last_exp = groups.pop()
        groups.append((last_obs + obs, last_exp + exp))
    stat = sum((o - e) ** 2 / e for o, e in groups)
    return scipy.stats.chi2.sf(stat, len(groups) - 1)


POISSON = OffspringPmf.poisson(1.0)
GEOMETRIC = OffspringPmf.geometric(0.5)


def _pa_sampler(rho, chi):
    params = PAParams(rho, chi)
    return lambda n, rng: sample_pa_tree(params, n, rng)


def _cmj_sampler(rho, chi):
    params = PAParams(rho, chi)
    return lambda n, rng: simulate_cmj(params, n, rng).tree


# Every sampler, as (n, rng) -> RootedTree.
SAMPLERS = {
    "gw-poisson": lambda n, rng: sample_conditioned_gw(POISSON, n, rng),
    "gw-geometric": lambda n, rng: sample_conditioned_gw(GEOMETRIC, n, rng),
    "uniform": sample_uniform_tree,
    "uniform-shape": sample_uniform_shape,
    **{f"pa({rho},{chi})": _pa_sampler(rho, chi) for rho, chi, _, _ in FIGURE_GRID},
    **{f"cmj({rho},{chi})": _cmj_sampler(rho, chi) for rho, chi in EMBEDDING_PARAMS},
}


class TestRngSpec:
    def test_streams_are_pure_functions(self):
        a = RngSpec(123).stream(5).random(4)
        b = RngSpec(123).stream(5).random(4)
        assert np.array_equal(a, b)
        c = RngSpec(np.int64(123)).stream(np.int64(5)).random(4)
        assert np.array_equal(a, c)

    def test_distinct_trials_differ(self):
        a = RngSpec(123).stream(0).random(4)
        b = RngSpec(123).stream(1).random(4)
        assert not np.array_equal(a, b)

    def test_seed_range_validated(self):
        with pytest.raises(InvalidParams):
            RngSpec(-1)
        with pytest.raises(InvalidParams):
            RngSpec(1 << 64)
        with pytest.raises(InvalidParams):
            RngSpec(7).stream(-1)
        for value in (1.5, True):
            with pytest.raises(InvalidParams, match=rf"^master_seed must be an integer, got {value}$"):
                RngSpec(value)
            with pytest.raises(InvalidParams, match=rf"^trial index must be an integer, got {value}$"):
                RngSpec(7).stream(value)


class TestOffspringPmf:
    def test_validation(self):
        with pytest.raises(InvalidPmf):
            OffspringPmf(())
        with pytest.raises(InvalidPmf):
            OffspringPmf((0.5, 0.6))
        with pytest.raises(InvalidPmf):
            OffspringPmf((0.0, 1.0))
        with pytest.raises(InvalidPmf):
            OffspringPmf((1.5, -0.5))
        with pytest.raises(InvalidPmf, match="nan"):
            OffspringPmf((0.5, math.nan, 0.5))
        with pytest.raises(InvalidPmf, match="nan"):
            OffspringPmf.from_probs([0.5, math.nan, 0.5])
        with pytest.raises(InvalidPmf, match="poisson needs mean > 0"):
            OffspringPmf.poisson(0.0)
        with pytest.raises(InvalidPmf, match="underflow"):
            OffspringPmf.poisson(1000.0)
        with pytest.raises(InvalidPmf, match="geometric needs 0 < ratio < 1"):
            OffspringPmf.geometric(1.0)

    def test_poisson_is_critical(self):
        pmf = OffspringPmf.poisson(1.0)
        assert pmf.p0 == pytest.approx(math.exp(-1), abs=1e-12)
        second_moment = math.fsum(k * k * p for k, p in enumerate(pmf.probs))
        assert second_moment == pytest.approx(2.0, abs=1e-9)

    def test_geometric_is_critical(self):
        pmf = OffspringPmf.geometric(0.5)
        assert pmf.p0 == pytest.approx(0.5, abs=1e-12)

    def test_named_laws_normalise_their_weights_by_fsum(self):
        poisson = [math.exp(-1.0 - math.lgamma(k + 1)) for k in range(31)]
        geometric = [0.5**k for k in range(61)]
        for pmf, w in ((POISSON, poisson), (GEOMETRIC, geometric)):
            assert pmf.probs == tuple(p / math.fsum(w) for p in w)

    def test_subcritical_rejected(self):
        with pytest.raises(InvalidPmf, match="mean 0.4"):
            OffspringPmf.from_probs([0.6, 0.4])

    def test_pgf(self):
        pmf = OffspringPmf.from_probs([0.5, 0.0, 0.5])
        assert pmf.pgf(0.5) == pytest.approx((1 + 0.25) / 2, abs=1e-15)


class TestConditionedGW:
    pmf = OffspringPmf.poisson(1.0)

    def test_size_one(self):
        t = sample_conditioned_gw(self.pmf, 1, RngSpec(1).stream(0))
        assert t.n == 1

    def test_forced_cherry(self):
        pmf = OffspringPmf.from_probs([0.5, 0.0, 0.5])
        rng = RngSpec(2).stream(0)
        for _ in range(50):
            t = sample_conditioned_gw(pmf, 3, rng)
            assert t.children[t.root] != () and len(t.children[t.root]) == 2

    def test_size_three_law(self):
        # exactly two ordered shapes: the chain (2/3) and the cherry (1/3)
        dist = gw_shape_distribution(self.pmf, 3)
        assert dist[(1, 1, 0)] == pytest.approx(2 / 3, abs=1e-12)
        assert dist[(2, 0, 0)] == pytest.approx(1 / 3, abs=1e-12)
        rng = RngSpec(3).stream(0)
        trials = 30_000
        chains = sum(
            1
            for _ in range(trials)
            if shape_key(sample_conditioned_gw(self.pmf, 3, rng)) == (1, 1, 0)
        )
        se = math.sqrt((2 / 3) * (1 / 3) / trials)
        assert abs(chains / trials - 2 / 3) <= 3 * se

    def test_size_four_shape_frequencies(self):
        dist = gw_shape_distribution(self.pmf, 4)
        assert len(dist) == 5
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        rng = RngSpec(4).stream(0)
        trials = 100_000
        counts = Counter(
            shape_key(sample_conditioned_gw(self.pmf, 4, rng)) for _ in range(trials)
        )
        assert set(counts) == set(dist)
        for shape, p in dist.items():
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[shape] / trials - p) <= 3 * se, shape

    def test_unreachable_parity(self):
        pmf = OffspringPmf.from_probs([0.5, 0.0, 0.5])
        with pytest.raises(UnreachableSize):
            sample_conditioned_gw(pmf, 4, RngSpec(5).stream(0))
        sample_conditioned_gw(pmf, 5, RngSpec(5).stream(0))

    def test_unreachable_budget(self, monkeypatch):
        # support {0,2,3} cannot sum to 1 over two draws, but passes the
        # lattice pre-check; the rejection budget must catch it
        monkeypatch.setattr(generators, "REJECTION_BUDGET", 4000)
        pmf = OffspringPmf.from_probs([0.6, 0.0, 0.2, 0.2])
        with pytest.raises(UnreachableSize, match="within 4000 attempts"):
            sample_conditioned_gw(pmf, 2, RngSpec(6).stream(0))

    def test_invalid_sizes(self):
        with pytest.raises(InvalidParams):
            sample_conditioned_gw(self.pmf, 0, RngSpec(7).stream(0))

    def test_support_zero_refused_as_subcritical(self):
        # Offspring support {0} has mean 0, so the pmf is refused when it is
        # built, before the lattice span (gcd of the support) is taken.
        with pytest.raises(InvalidPmf, match="not 1"):
            sample_conditioned_gw(OffspringPmf((1.0,)), 1, RngSpec(7).stream(0))


class TestUniformTree:
    def test_small_sizes(self):
        assert sample_uniform_tree(1, RngSpec(8).stream(0)).n == 1
        t = sample_uniform_tree(2, RngSpec(8).stream(1))
        assert t.n == 2

    def test_three_vertex_centers_uniform(self):
        # the 3 labeled paths are distinguished by their middle vertex
        rng = RngSpec(9).stream(0)
        trials = 30_000
        centers = Counter()
        for _ in range(trials):
            t = sample_uniform_tree(3, rng)
            deg = (t.outdeg + (t.parents >= 0)).tolist()
            centers[deg.index(2)] += 1
        se = math.sqrt((1 / 3) * (2 / 3) / trials)
        for v in range(3):
            assert abs(centers[v] / trials - 1 / 3) <= 3 * se

    def test_four_vertex_star_fraction(self):
        # 4 labeled stars among 4^2 = 16 labeled trees
        rng = RngSpec(10).stream(0)
        trials = 30_000
        stars = 0
        for _ in range(trials):
            t = sample_uniform_tree(4, rng)
            stars += max(len(c) + (v != t.root) for v, c in enumerate(t.children)) == 3
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(stars / trials - 0.25) <= 3 * se

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 1000])
    def test_labelled_tree_is_valid_without_revalidation(self, n):
        # The relabelled shape is built directly, not validated again.
        spec = RngSpec(12)
        for i in range(500):
            t = sample_uniform_tree(n, spec.stream(i))
            assert t == build_from_parents(t.parents.copy())
            assert t.parents.dtype == np.int64 and not t.parents.flags.writeable

    @pytest.mark.parametrize("n", [2, 5, 40, 1000])
    def test_labels_are_drawn_last_and_change_no_statistic(self, n):
        # From one stream, the labelled tree is the shape under the next
        # draw, a uniform permutation, and measures the same.
        spec = RngSpec(11)
        for i in range(200):
            rng = spec.stream(i)
            shape = sample_uniform_shape(n, rng)
            label = rng.permutation(n)
            tree = sample_uniform_tree(n, spec.stream(i))
            assert tree.root == label[0]
            assert tree.parents[label[1:]].tolist() == label[shape.parents[1:]].tolist()
            assert md_report(tree).beta == md_report(shape).beta
            for prop in (is_pl, is_pk):
                assert count_subtree_property(tree, prop) == count_subtree_property(shape, prop)
            assert fringe_size_counts(tree) == fringe_size_counts(shape)


class TestPATree:
    def test_two_vertices_forced(self):
        t = sample_pa_tree(PAParams(0.5, 1), 2, RngSpec(11).stream(0))
        assert t.parents.tolist() == [-1, 0]

    def test_recursive_attachment_uniform(self):
        rng = RngSpec(12).stream(0)
        trials = 30_000
        to_first = 0
        for _ in range(trials):
            t = sample_pa_tree(PAParams(1.0, 0), 3, rng)
            to_first += t.parents[2] == 0
        se = math.sqrt(0.25 / trials)
        assert abs(to_first / trials - 0.5) <= 3 * se

    def test_bst_chain_probability(self):
        # after the first edge the child holds 2 of 3 open slots
        rng = RngSpec(13).stream(0)
        trials = 30_000
        chains = 0
        for _ in range(trials):
            t = sample_pa_tree(PAParams(2.0, -1), 3, rng)
            chains += shape_key(t) == (1, 1, 0)
        p = 2 / 3
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(chains / trials - p) <= 3 * se

    def test_full_vertices_stop_accepting(self):
        rng = RngSpec(14).stream(0)
        for _ in range(40):
            t = sample_pa_tree(PAParams(2.0, -1), 40, rng)
            assert all(len(kids) <= 2 for kids in t.children)

    def test_slot_indices_beyond_float64_refused(self):
        # (m - 1)(n - 1) + 1 free-slot indices must stay below 2^53.
        rng = RngSpec(15).stream(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParams, match="2\\^53"):
            sample_pa_tree(PAParams(1e15, -1), 10**5, rng)
        with pytest.raises(InvalidParams, match="2\\^53"):
            sample_pa_tree(PAParams(1e300, -1), np.int64(5), rng)  # no int64 overflow
        assert rng.bit_generator.state == state
        edge = PAParams(2.0**52 + 1, -1)
        assert sample_pa_tree(edge, 2, rng).parents.tolist() == [-1, 0]
        with pytest.raises(InvalidParams):
            sample_pa_tree(edge, 3, rng)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            PAParams(2.5, -1)
        with pytest.raises(InvalidParams):
            PAParams(0.0, 1)
        with pytest.raises(InvalidParams):
            PAParams(1.0, 2)
        for chi in (-1, 0, 1):
            with pytest.raises(InvalidParams, match="finite"):
                PAParams(math.inf, chi)

    @pytest.mark.parametrize("chi", [True, False, 1.0, 0.0, -1.0, np.float64(1.0)], ids=repr)
    def test_chi_must_be_an_integer(self, chi):
        with pytest.raises(InvalidParams, match=rf"^chi must be -1, 0 or \+1, got {chi}$"):
            PAParams(2.0, chi)

    @pytest.mark.parametrize("chi", [-1, 0, 1])
    def test_bool_rho_refused(self, chi):
        with pytest.raises(InvalidParams, match=r"^rho must be a number, not a bool, got True$"):
            PAParams(True, chi)

    @pytest.mark.parametrize("rho", [1e17, 1e305, 1e308, 10**30], ids=repr)
    def test_huge_rho_picks_directly(self, rho):
        # Copying has probability below 1/rho: every vertex takes its direct
        # pick, also where rho v overflows and for a Python int rho.
        n = 2000
        u = np.random.default_rng(1).random((2, n - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = sample_pa_tree(PAParams(rho, 1), n, np.random.default_rng(1))
        assert t.parents[1:].tolist() == (u[1] * np.arange(1, n)).astype(np.int64).tolist()

    def test_m_one_slot_rule_is_a_path(self):
        # rho = 1, chi = -1: the root's one slot passes down, so vertex v
        # attaches to v - 1; the n - 1 uniforms are still drawn.
        n = 50
        rng, twin = RngSpec(3).stream(0), RngSpec(3).stream(0)
        t = sample_pa_tree(PAParams(1, -1), n, rng)
        assert t.parents.tolist() == [-1, *range(n - 1)]
        twin.random(n - 1)
        assert rng.random() == twin.random()

    def test_left_size_uniform_after_random_orientation(self):
        # In a binary search tree the left-subtree size is uniform on
        # 0..k-1; the growth chain does not carry left/right labels, so a
        # fair coin assigns the first child's subtree to one side.
        k = 10
        trials = 30_000
        rng = RngSpec(15).stream(0)
        counts = np.zeros(k, dtype=int)
        for _ in range(trials):
            t = sample_pa_tree(PAParams(2.0, -1), k, rng)
            sizes = t.sizes.tolist()
            first = sizes[t.children[t.root][0]]
            other = (k - 1) - first
            s = first if rng.random() < 0.5 else other
            counts[s] += 1
        expected = trials / k
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        p_value = scipy.stats.chi2.sf(chi2, k - 1)
        assert p_value > 0.001, (counts.tolist(), p_value)

    def test_line_probability_at_four(self):
        # a fresh 4-vertex tree is a chain with probability 2^3 / 4! = 1/3
        rng = RngSpec(16).stream(0)
        trials = 30_000
        lines = 0
        for _ in range(trials):
            t = sample_pa_tree(PAParams(2.0, -1), 4, rng)
            lines += shape_key(t) == (1, 1, 1, 0)
        p = 1 / 3
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(lines / trials - p) <= 3 * se

    @pytest.mark.parametrize("n", [2, 3, 1000, 20000])
    @pytest.mark.parametrize("rho", [0.01, 1.0, 10.0])
    def test_copy_chains_match_sequential_resolution(self, rho, n):
        # The same draws resolved one vertex at a time: a direct pick takes
        # floor(u1 v), a copy the resolved parent of 1 + floor(u1 (v - 1)).
        u0, u1 = RngSpec(22).stream(n).random((2, n - 1)).tolist()
        parents = [-1]
        for v in range(1, n):
            a, b = u0[v - 1], u1[v - 1]
            direct = a * (rho * v + v - 1) < rho * v
            parents.append(int(b * v) if direct else parents[int(1 + b * (v - 1))])
        assert generators._copy_attach(rho, n, RngSpec(22).stream(n)).tolist() == parents


class TestCMJ:
    def test_fixed_size_one(self):
        ct = simulate_cmj(PAParams(1.0, 1), 1, RngSpec(17).stream(0))
        assert ct.tree.n == 1 and ct.birth_times == (0.0,)

    def test_birth_time_invariants(self):
        ct = simulate_cmj(PAParams(1.0, 1), 300, RngSpec(18).stream(0))
        births = ct.birth_times
        tree = ct.tree
        for v in range(1, tree.n):
            assert births[v] > births[tree.parents[v]]
        for kids in tree.children:
            times = [births[c] for c in kids]
            assert times == sorted(times)

    def test_root_degree_race(self):
        # at size 3 the root's second-child clock (rate 2) races the
        # child's first-child clock (rate 1)
        rng = RngSpec(19).stream(0)
        trials = 30_000
        two = 0
        for _ in range(trials):
            ct = simulate_cmj(PAParams(1.0, 1), 3, rng)
            two += len(ct.tree.children[0]) == 2
        p = 2 / 3
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(two / trials - p) <= 3 * se

    def test_doomsday_single_vertex_probability(self):
        rng = RngSpec(20).stream(0)
        trials = 30_000
        ones = 0
        for _ in range(trials):
            # A single vertex unless the root's first child beats the doomsday.
            ct = simulate_cmj(PAParams(2.0, -1), 2, rng, horizon=rng.exponential(1.0))
            ones += ct.tree.n == 1
        p = 1 / 3
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(ones / trials - p) <= 3 * se

    @pytest.mark.parametrize(
        "n,horizon,message",
        [(0, math.inf, "tree size must be >= 1, got 0"), (5, math.nan, "horizon"), (5, -1.0, "horizon")],
    )
    def test_bad_size_or_horizon_refused_before_any_draw(self, n, horizon, message):
        rng = RngSpec(21).stream(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParams, match=message):
            simulate_cmj(PAParams(1.0, 1), n, rng, horizon)
        assert rng.bit_generator.state == state

    def test_fixed_size_matches_discrete_chain(self):
        # size-4 ordered shapes from both generators, small-sample check
        params = PAParams(1.0, 1)
        rng = RngSpec(22).stream(0)
        trials = 20_000
        cmj_counts = Counter(
            shape_key(simulate_cmj(params, 4, rng).tree)
            for _ in range(trials)
        )
        pa_counts = Counter(
            shape_key(sample_pa_tree(params, 4, rng)) for _ in range(trials)
        )
        keys = set(cmj_counts) | set(pa_counts)
        tv = 0.5 * sum(abs(cmj_counts[k] - pa_counts[k]) / trials for k in keys)
        assert tv <= 0.025


class TestSampleH:
    def test_positive(self):
        rng = RngSpec(23).stream(0)
        assert all(sample_H(1.0, 1.0, rng) > 0 for _ in range(5000))

    @pytest.mark.parametrize(
        "lam,nu,t", [(1.0, 1.0, 1.0), (1.0, 2.0, 2.0), (2.0, 1.0, 0.5)]
    )
    def test_tail_matches_formula(self, lam, nu, t):
        rng = RngSpec(24).stream(int(10 * lam + nu))
        trials = 30_000
        hits = sum(1 for _ in range(trials) if sample_H(lam, nu, rng) > t)
        p = h_tail(lam, nu, t)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * se

    def test_invalid(self):
        class Bounded:
            # A stand-in generator: at lam = inf every gap is 0, so an
            # unrefused rate would loop forever.
            def __init__(self):
                self.rng, self.calls = RngSpec(25).stream(0), 0

            def exponential(self, scale):
                self.calls += 1
                if self.calls > 10_000:
                    raise RuntimeError("sample_H did not stop")
                return self.rng.exponential(scale)

        bad = [(0.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)]
        for lam, nu in bad:
            with pytest.raises(InvalidParams, match="finite positive rates"):
                sample_H(lam, nu, Bounded())

    @pytest.mark.parametrize("lam, nu", [(1e30, 1.0), (1.0, 1e-300)])
    def test_long_race_refused_before_any_draw(self, lam, nu):
        # Each would take about sqrt(pi lam / (2 nu)) rounds of the race.
        rng = RngSpec(26).stream(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParams, match="lam <= 1e12 nu"):
            sample_H(lam, nu, rng)
        assert rng.bit_generator.state == state

    def test_ratio_below_the_cap_returns(self):
        assert sample_H(1e6, 1.0, RngSpec(27).stream(0)) > 0


class TestDeterminism:
    def test_every_sampler_is_reproducible(self):
        spec = RngSpec(321)
        pmf = OffspringPmf.poisson(1.0)
        samplers = [
            lambda rng: sample_conditioned_gw(pmf, 40, rng),
            lambda rng: sample_uniform_tree(40, rng),
            lambda rng: sample_pa_tree(PAParams(2.0, -1), 40, rng),
            lambda rng: simulate_cmj(PAParams(1.0, 1), 40, rng).tree,
        ]
        for i, sampler in enumerate(samplers):
            first = serialize(sampler(spec.stream(i)))
            second = serialize(sampler(spec.stream(i)))
            assert first == second

    def test_cmj_birth_times_reproducible(self):
        spec = RngSpec(322)
        a = simulate_cmj(PAParams(1.0, 0), 30, spec.stream(0))
        b = simulate_cmj(PAParams(1.0, 0), 30, spec.stream(0))
        assert a == b and isinstance(a, CMJTree)


class TestFringeLLN:
    def test_gw_poisson_fractions_at_large_n(self):
        pmf = OffspringPmf.poisson(1.0)
        tree = sample_conditioned_gw(pmf, 10_000, RngSpec(26).stream(0))
        pl = count_subtree_property(tree, is_pl) / tree.n
        pk = count_subtree_property(tree, is_pk) / tree.n
        assert abs(pl - math.exp(-1)) <= 0.01
        assert abs(pk - gw_pk_prob(pmf)) <= 0.01


class TestSizeRule:
    @pytest.mark.parametrize(
        "n,message",
        [
            (0, "must be >= 1, got 0"),
            (2**53 + 1, "must be <= 2\\^53, got 9007199254740993"),
            (2**61, "must be <= 2\\^53"),
            (10.5, "must be an integer, got 10.5"),
            (3.0, "must be an integer, got 3.0"),
            (True, "must be an integer, got True"),
        ],
    )
    def test_out_of_range_refused_before_any_draw(self, n, message):
        # Refused before numpy is asked for an array of n entries.
        for name, sampler in SAMPLERS.items():
            rng = RngSpec(12).stream(0)
            state = rng.bit_generator.state
            with pytest.raises(InvalidParams, match=message):
                sampler(n, rng)
            assert rng.bit_generator.state == state, name

    def test_numpy_integer_size_accepted(self):
        for name, sampler in SAMPLERS.items():
            tree = sampler(np.int64(5), RngSpec(12).stream(0))
            assert tree == sampler(5, RngSpec(12).stream(0)), name


class TestCheckCount:
    @pytest.mark.parametrize(
        "x, message",
        [
            (2, "^k must be >= 3, got 2$"),
            (3.0, "^k must be an integer, got 3.0$"),
            (math.nan, "^k must be an integer, got nan$"),
            (True, "^k must be an integer, got True$"),
        ],
        ids=repr,
    )
    def test_integer_then_lower_bound(self, x, message):
        check_count(np.int64(3), "k", 3)
        with pytest.raises(InvalidParams, match=message):
            check_count(x, "k", 3)

    def test_error_type_is_the_callers(self):
        with pytest.raises(UnreachableSize, match="^k must be >= 0, got -1$"):
            check_count(-1, "k", 0, UnreachableSize)


class TestGoldenStreams:
    """sha256 of the serialized trees drawn from ``RngSpec(SEED).stream(n)``
    for each n in SIZES.  A changed digest is a changed stream: update it
    only on purpose, and record the change in CHANGES.md."""

    SEED = 20260
    SIZES = (1, 2, 40, 1000)
    DIGESTS = {
        "gw-poisson": "5ffd39bd1b5e890e63993f6d24ace4a34659c48f55557acc81f86dbf397d56c1",
        "gw-geometric": "816e7abbda4f7fc9f5ad64ebd02c373ff532bffc2c459181d6f44213395f0e6d",
        "uniform": "6c5951f0c27bc1d61fb31cfe93e06ad275e6d20da57fed8ccedf1c547e0c8cf8",
        "uniform-shape": "2424c8dc73d3b4aa31791111b5c1a01836e80e3cf2b98d5702289cf20876e28f",
        "pa(2.0,-1)": "6297f039791585b4f69e627e08e0ad1a3cb126827ec10259c48d9d8414cc7901",
        "pa(3.0,-1)": "7022795b444f0eb11ad245f337a98d49621ba2ecf18a6643777c3bd1bc9a1a2c",
        "pa(4.0,-1)": "a41053cf3ecfa75d30b9324b738100cba7dde39365716a30fe56f5c6367b8893",
        "pa(5.0,-1)": "b3a6ba7fa00918103c8107b14884cb4c52b1c331bf48d92f06a08e254ba6a819",
        "pa(1.0,0)": "0b01eb1ea3d114a1d3d674b21998b062c13428a8a254f0c27cffdc841ba9c985",
        "pa(2.0,1)": "741668e1522dcc0cf9ab4f2b566e2b2c8b8c72ea453b9cc8ff35a6dfc92bacff",
        "pa(1.0,1)": "693bb936ba17b8813a4de85022df22579c0971fbd64be97b3c20d7227ad91eff",
        "pa(0.5,1)": "ff4b3481ebd79e932746a6c35024b708adedcc8273aac0a251bc0bd90e93076c",
        "pa(0.1,1)": "823ef891754472099dd3768116564d9ec89999c145f8781511fb806bb1b7cab1",
        "cmj(2.0,-1)": "5772d6cb6a64ba9d9802f450f82eef1179f31040b8cb874dc90db7397b6482fc",
        "cmj(1.0,0)": "2d9844a2d10558be09092929e7a7a4b8f90ac1d68ca80259ff06121f9b09e81e",
        "cmj(1.0,1)": "26ed5952c2ddb7667f16b8aa0cd69eff4f74fe62bac1d41c34ec41b0ba16182b",
    }

    # At n = 2^17 the slot sort takes a second 16-bit pass and the copy
    # chains run long.  The event-queue sampler cmj is not pinned there.
    LARGE = 2**17
    LARGE_DIGESTS = {
        "gw-geometric": "fd1dee44a95153e477d96bdefa484f2da8e56591c2bceed7d867de4e060c3e68",
        "gw-poisson": "3ac46b244a42b974f583f277e9034db451c507ef3c3883314a061c853fb1e0a7",
        "pa(0.1,1)": "3cea2eb30736e6cafbd2dcc0c233ffbc42bef68d545ed7e738941c05e588becb",
        "pa(0.5,1)": "7f7315223e2f0a10a1bed44e6f98548388202bb9b1c22ed4864d32648e3d2bd1",
        "pa(1.0,0)": "6682f7c10d8c1c8899d0e2de8a0fd70fb0f1726efd3e0c4ad0f882ac5ace0174",
        "pa(1.0,1)": "716fe0bdfd1ee80ca80e9ba9ecfb2d181df0df7e1199ccf36c6cfbe69c8b02d1",
        "pa(2.0,-1)": "ff32982d5a4d13025a5c80537aae698280fc8231890a170884c06fa0e4401abb",
        "pa(2.0,1)": "ece32543ef56d3420ed0c28d9f843b2545221edf1385b8d00b71d4f88a582c85",
        "pa(3.0,-1)": "b90666be5bdb5d1b8390b880ea2070b95ad5be939beedb4369428fcb8a7ea39e",
        "pa(4.0,-1)": "d59c75c3b3c4cccb1893a958f1015966aebd451cd2cf67d34fe5df9d576c3f96",
        "pa(5.0,-1)": "fde9d44fbca92707d520f55c59330155058f577f31c685b241422a7882d6cb6c",
        "uniform": "641b1ea092efa1371b3af7ed262915a01b20969fcbf9ef0d51c7c036fa2702c9",
        "uniform-shape": "921f138ca15a7e87f264dff13126d839e7646eb73858c8a4df4e775c386fe69c",
    }

    def test_every_sampler_is_pinned(self):
        assert set(self.DIGESTS) == set(SAMPLERS)
        assert set(self.LARGE_DIGESTS) == {k for k in SAMPLERS if not k.startswith("cmj")}

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        digest = hashlib.sha256()
        for n in self.SIZES:
            tree = SAMPLERS[name](n, RngSpec(self.SEED).stream(n))
            digest.update(serialize(tree).encode())
        assert digest.hexdigest() == self.DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(LARGE_DIGESTS))
    def test_large_digest(self, name):
        tree = SAMPLERS[name](self.LARGE, RngSpec(self.SEED).stream(self.LARGE))
        assert hashlib.sha256(serialize(tree).encode()).hexdigest() == self.LARGE_DIGESTS[name]


class TestMemory:
    """The traced peak (numpy's allocations under ``tracemalloc``) of a
    trial's shape and its ``md_report``, in bytes per vertex.  The samplers
    build their parent arrays in place; when they copied them, the peaks
    were 38-73 bytes per vertex."""

    N = 2**16
    BUDGET = 44  # bytes per vertex

    @pytest.mark.parametrize(
        "model",
        [
            GWModel(POISSON),
            UniformModel(),
            PAModel(PAParams(2.0, -1)),
            PAModel(PAParams(1.0, 0)),
            PAModel(PAParams(1.0, 1)),
        ],
        ids=["gw-poisson", "uniform", "bst", "rrt", "pa-1-1"],
    )
    def test_shape_and_report_peak_per_vertex(self, model):
        rng = RngSpec(33).stream(0)
        tracemalloc.start()
        try:
            md_report(model.shape(self.N, rng))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / self.N <= self.BUDGET


class TestExactLaws:
    """Samples at n = 4 and 5 against the exact enumerated laws."""

    TRIALS = 40_000

    @pytest.mark.parametrize("rho,chi", [(rho, chi) for rho, chi, _, _ in FIGURE_GRID])
    def test_growth_tree_law(self, rho, chi):
        law = increasing_tree_law(rho, chi, 5)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        params = PAParams(rho, chi)
        rng = RngSpec(27).stream(int(10 * rho) + chi)
        counts = Counter(
            tuple(sample_pa_tree(params, 5, rng).parents[1:].tolist())
            for _ in range(self.TRIALS)
        )
        p_value = chi2_pvalue(counts, law, self.TRIALS)
        assert p_value > 1e-3, (rho, chi, p_value)

    @pytest.mark.parametrize("n", [4, 5])
    def test_uniform_rooted_labelled_law(self, n):
        # Every one of the n^(n-1) rooted labelled trees is equally likely.
        def is_tree(parents):
            try:
                build_from_parents(np.array(parents))
            except TreeStructureError:
                return False
            return True

        trees = [p for p in product(range(-1, n), repeat=n) if is_tree(p)]
        assert len(trees) == n ** (n - 1)
        law = dict.fromkeys(trees, 1 / len(trees))
        rng = RngSpec(32).stream(n)
        counts = Counter(
            tuple(sample_uniform_tree(n, rng).parents.tolist()) for _ in range(self.TRIALS)
        )
        p_value = chi2_pvalue(counts, law, self.TRIALS)
        assert p_value > 1e-3, (n, p_value)

    def test_geometric_gw_shape_law(self):
        law = gw_shape_distribution(GEOMETRIC, 5)
        assert len(law) == 14
        rng = RngSpec(28).stream(0)
        counts = Counter(
            shape_key(sample_conditioned_gw(GEOMETRIC, 5, rng))
            for _ in range(self.TRIALS)
        )
        p_value = chi2_pvalue(counts, law, self.TRIALS)
        assert p_value > 1e-3, p_value


@pytest.fixture
def nx():
    return pytest.importorskip("networkx")


def edge_set(tree):
    return {frozenset((v, p)) for v, p in enumerate(tree.parents.tolist()) if p >= 0}


class TestNetworkxOracle:
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_every_sampler_outputs_a_tree(self, nx, name):
        for n in (1, 2, 3, 10, 500):
            tree = SAMPLERS[name](n, RngSpec(29).stream(n))
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(edge_set(tree))
            assert tree.n == n and nx.is_tree(graph), (name, n)

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_order_lists_parents_before_children(self, name):
        # A breadth-first walk of the children lists from the root.
        for n in (1, 2, 3, 10, 500):
            tree = SAMPLERS[name](n, RngSpec(31).stream(n))
            order = [tree.root]
            for v in order:
                order.extend(tree.children[v])
            assert sorted(order) == list(range(n)), (name, n)
            position = {v: i for i, v in enumerate(order)}
            for v, p in enumerate(tree.parents.tolist()):
                assert p < 0 or position[p] < position[v], (name, n, v)


class TestLukasiewiczOracle:
    """The radix-order tree build against the stack walk it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(tuple_core.lukasiewicz_words(), st.integers(0, 10**6))
    @example([0], 0)
    @example([1, 0], 1)
    def test_build_matches_stack_walk(self, word, shift):
        expected = tuple_core.preorder_parents(word)
        assert _lukasiewicz_parents(np.array(word)).tolist() == expected
        # The cycle lemma maps every cyclic shift back to the word itself.
        shifted = np.roll(np.array(word), shift % len(word))
        assert _lukasiewicz_parents(shifted).tolist() == expected

    @pytest.mark.parametrize(
        "word",
        [
            [1] * 999 + [0],
            [70_000] + [0] * 70_000,
            [2] * 70_000 + [0] * 70_001,
            [2] + [1] * 40_000 + [0] * 2,
        ],
        ids=["path", "wide-star", "comb", "two-long-legs"],
    )
    def test_extreme_shapes(self, word):
        # The star's and the comb's stack heights run past 2^16, which takes
        # a second 16-bit pass.
        expected = tuple_core.preorder_parents(word)
        assert _lukasiewicz_parents(np.array(word)).tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2**16 - 1, 2**32 - 1, 5 * 10**9, 2**62]).flatmap(
            lambda top: st.lists(
                st.one_of(
                    st.integers(0, top),
                    st.integers(0, 3).map(lambda k: k << 16),
                    st.integers(0, 3).map(lambda k: k << 32),
                ),
                max_size=60,
            )
        )
    )
    @example([])
    @example([7] * 20)
    @example([2**40] * 5)
    def test_stable_order_matches_argsort(self, keys):
        keys = np.array(keys, dtype=np.int64)
        expected = np.argsort(keys, kind="stable")
        assert _stable_order(keys).tolist() == expected.tolist()
