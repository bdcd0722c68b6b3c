from collections import Counter

import numpy as np
import pytest
import tuple_core
from hypothesis import given, settings

from treedim import (
    RngSpec,
    build_from_parents,
    count_subtree_property,
    epsilon_audit,
    fringe_size_counts,
    is_line,
    is_pk,
    is_pl,
    md_report,
    sample_uniform_tree,
)
from treedim.errors import IsPath
from treedim.fringe import _MIN_LEVEL_WIDTH, subtree_sizes
from treedim.tree import line_flags


def chain(n):
    return build_from_parents([None] + list(range(n - 1)))


def star(leaves):
    return build_from_parents([None] + [0] * leaves)


def complete_binary_depth2():
    return build_from_parents([None, 0, 0, 1, 1, 2, 2])


class TestPredicates:
    def test_leaf_is_line_and_pl(self):
        t = chain(3)
        assert is_line(t, 2)
        assert is_pl(t, 2)
        assert not is_pk(t, 2)

    def test_chain_head_is_line(self):
        assert is_line(chain(4), 0)

    def test_branching_vertex_is_not_line(self):
        assert not is_line(star(2), 0)

    def test_two_leaf_children_is_pk(self):
        assert is_pk(star(2), 0)

    def test_no_line_child_is_not_pk(self):
        # root's children both have two children of their own
        t = build_from_parents([None, 0, 0, 1, 1, 2, 2])
        assert not is_pk(t, 0)

    def test_pl_is_single_vertex_only(self):
        t = chain(3)
        assert not is_pl(t, 0) and not is_pl(t, 1)


class TestCounts:
    def test_chain_pl(self):
        assert count_subtree_property(chain(3), is_pl) == 1

    def test_cherry_pk(self):
        assert count_subtree_property(star(2), is_pk) == 1

    def test_complete_binary_pk(self):
        # both internal vertices qualify (leaf children are lines); the root
        # does not, since a cherry has a branching root and is not a line
        t = complete_binary_depth2()
        assert not is_line(t, 1)
        assert count_subtree_property(t, is_pk) == 2

    def test_fast_path_matches_generic(self):
        rng = RngSpec(77).stream(0)
        for _ in range(25):
            t = sample_uniform_tree(int(rng.integers(2, 60)), rng)
            for pred in (is_pl, is_pk, is_line):
                fast = count_subtree_property(t, pred)
                slow = sum(1 for v in range(t.n) if pred(t, v))
                assert fast == slow

    def test_pl_equals_childless_count(self):
        rng = RngSpec(78).stream(0)
        for _ in range(25):
            t = sample_uniform_tree(int(rng.integers(2, 60)), rng)
            childless = sum(1 for kids in t.children if not kids)
            assert count_subtree_property(t, is_pl) == childless


class TestHistogram:
    def test_chain(self):
        assert fringe_size_counts(chain(3)) == {1: 1, 2: 1, 3: 1}

    def test_star(self):
        assert fringe_size_counts(star(3)) == {1: 3, 4: 1}

    def test_complete_binary(self):
        assert fringe_size_counts(complete_binary_depth2()) == {1: 4, 3: 2, 7: 1}

    def test_counts_sum_to_n(self):
        rng = RngSpec(79).stream(0)
        t = sample_uniform_tree(200, rng)
        assert sum(fringe_size_counts(t).values()) == 200


class TestEpsilonAudit:
    def test_star_center(self):
        audit = epsilon_audit(star(3))
        assert audit.n_pl == 3 and audit.n_pk == 1
        assert audit.beta == 2 and audit.epsilon == 0

    def test_path_rejected(self):
        with pytest.raises(IsPath):
            epsilon_audit(chain(4))

    def test_root_degree_two_with_leaf_line_overcounts(self):
        # root has a leaf child and a branching child: the root satisfies
        # the branch property but is not an exterior major vertex.
        t = build_from_parents([None, 0, 0, 2, 2])
        audit = epsilon_audit(t)
        assert audit.n_pk - audit.exterior == 1

    def test_degree_one_root_above_lone_major_undercounts(self):
        # root -> v; v has two children, each with two leaf children; the
        # first major vertex v reaches a leaf only through the root side.
        t = build_from_parents([None, 0, 1, 1, 2, 2, 3, 3])
        audit = epsilon_audit(t)
        assert audit.n_pk - audit.exterior == -1
        # the degree-1 root is an unrooted leaf but not a single-vertex subtree
        assert audit.leaves - audit.n_pl == 1

    def test_epsilon_bound_and_beta_consistency(self):
        spec = RngSpec(80)
        for i in range(120):
            rng = spec.stream(i)
            t = sample_uniform_tree(int(rng.integers(5, 120)), rng)
            try:
                audit = epsilon_audit(t)
            except IsPath:
                continue
            assert abs(audit.epsilon) <= 2
            assert abs(audit.n_pl - audit.leaves) <= 1
            assert abs(audit.n_pk - audit.exterior) <= 1
            report = md_report(t)
            assert audit.beta == report.beta


class TestTupleCoreOracle:
    @settings(max_examples=300, deadline=None)
    @given(tuple_core.tree_lists())
    def test_counts_and_sizes_match_tuple_core(self, parents):
        t = build_from_parents(parents)
        ref = tuple_core.build_from_parents(parents)
        flags = tuple_core.line_flags(ref)
        sizes = tuple_core.subtree_sizes(ref)
        assert line_flags(t).tolist() == flags
        assert [is_line(t, v) for v in range(t.n)] == flags
        assert subtree_sizes(t) == sizes
        assert count_subtree_property(t, is_line) == sum(flags)
        assert count_subtree_property(t, is_pl) == sum(not kids for kids in ref.children)
        assert count_subtree_property(t, is_pk) == sum(
            len(kids) >= 2 and any(flags[c] for c in kids) for kids in ref.children
        )
        # Key order too: the histogram lists sizes by first vertex.
        assert list(fringe_size_counts(t).items()) == list(Counter(sizes).items())


def height(ref) -> int:
    depth = [0] * ref.n
    for v in ref.order[1:]:
        depth[v] = depth[ref.parents[v]] + 1
    return max(depth)


def broom(rng, n: int, h: int) -> list[int | None]:
    """A handle 0 - 1 - ... - h with the other vertices hung as leaves
    from handle vertices above h, so the height is exactly h."""
    picks = np.concatenate([np.arange(h), rng.integers(0, h, n - 1 - h)])
    return [None, *picks.tolist()]


def assert_sizes_match(parents):
    t = build_from_parents(parents)
    sizes = tuple_core.subtree_sizes(tuple_core.build_from_parents(parents))
    assert subtree_sizes(t) == sizes
    assert list(fringe_size_counts(t).items()) == list(Counter(sizes).items())


class TestLevelPass:
    """Sizes and the histogram's key order on trees wide enough for the
    level pass, on both sides of its height threshold, and at the edges."""

    @pytest.mark.parametrize("n", [2_000, 7_000, 20_000])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_random_recursive(self, n, shuffled):
        rng = np.random.default_rng([n, shuffled])
        for root in (0, int(rng.integers(n))):
            parents = tuple_core.random_tree(rng, n, "random", shuffled, root)
            assert height(tuple_core.build_from_parents(parents)) * _MIN_LEVEL_WIDTH <= n
            assert_sizes_match(parents)

    @pytest.mark.parametrize("n", [2_000, 20_000])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_uniform(self, n, shuffled):
        # Uniform trees this small sit near the height threshold, so both
        # passes run: n = 2,000 is mostly taller, n = 20,000 mostly wider.
        rng = RngSpec(81).stream(n)
        labelled = [None if p < 0 else p for p in sample_uniform_tree(n, rng).parents.tolist()]
        if not shuffled:  # relabel breadth-first, so parents precede children
            rank = [0] * n
            for i, v in enumerate(tuple_core.build_from_parents(labelled).order):
                rank[v] = i
            labelled = tuple_core.relabel(labelled, rank)
        for root in (0, int(rng.integers(n))):
            assert_sizes_match(tuple_core.reroot(labelled, root))

    @pytest.mark.parametrize("shape", ["path", "caterpillar"])
    def test_tall_shapes(self, shape):
        rng = np.random.default_rng(82)
        assert_sizes_match(tuple_core.random_tree(rng, 5_000, shape, True, 17))

    @pytest.mark.parametrize("step", [-1, 1])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_brooms_at_the_threshold(self, step, shuffled):
        n = 6_400
        h = n // _MIN_LEVEL_WIDTH + step
        rng = np.random.default_rng([h, shuffled])
        parents = broom(rng, n, h)
        if shuffled:
            parents = tuple_core.relabel(parents, rng.permutation(n).tolist())
        assert height(tuple_core.build_from_parents(parents)) == h
        assert_sizes_match(parents)

    def test_star_and_single_vertex(self):
        assert_sizes_match([None, *[0] * 999])
        assert_sizes_match([None])
        assert fringe_size_counts(build_from_parents([None])) == {1: 1}
