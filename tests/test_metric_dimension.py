from itertools import product

import pytest
import tuple_core
from hypothesis import given, settings

from treedim import (
    RngSpec,
    brute_force_md,
    build_from_parents,
    is_resolving,
    md_report,
    metric_dimension,
    resolving_witness,
    sample_uniform_tree,
)
from treedim.errors import TooLarge, VertexOutOfRange


def chain(n):
    return build_from_parents([None] + list(range(n - 1)))


def star(leaves):
    return build_from_parents([None] + [0] * leaves)


def spider_three_legs_of_two():
    # center 0, legs 0-1-2, 0-3-4, 0-5-6
    return build_from_parents([None, 0, 1, 0, 3, 0, 5])


class TestReport:
    def test_path(self):
        report = md_report(chain(5))
        assert report.is_path and report.beta == 1
        assert report.leaves == (0, 4)
        assert report.exterior_major == ()

    def test_single_vertex(self):
        report = md_report(build_from_parents([None]))
        assert report.is_path and report.beta == 0

    def test_star(self):
        report = md_report(star(3))
        assert not report.is_path
        assert set(report.leaves) == {1, 2, 3}
        assert report.exterior_major == (0,)
        assert report.beta == 2

    def test_spider(self):
        report = md_report(spider_three_legs_of_two())
        assert len(report.leaves) == 3
        assert report.exterior_major == (0,)
        assert report.beta == 2

    def test_major_vertex_counted_once(self):
        # two leaf-lines meeting the same degree-3 vertex
        t = build_from_parents([None, 0, 1, 1, 2, 3])
        report = md_report(t)
        assert report.exterior_major == (1,)

    def test_exterior_majors_have_degree_three(self):
        rng = RngSpec(21).stream(0)
        for _ in range(50):
            t = sample_uniform_tree(int(rng.integers(4, 40)), rng)
            report = md_report(t)
            if report.is_path:
                continue
            deg = (t.outdeg + (t.parents >= 0)).tolist()
            assert all(deg[v] >= 3 for v in report.exterior_major)
            assert len(report.leaves) > len(report.exterior_major)


class TestResolving:
    def test_path_end_vertex_resolves(self):
        assert is_resolving(chain(3), {0})

    def test_star_single_leaf_fails_by_symmetry(self):
        assert not is_resolving(star(3), {1})

    def test_star_two_leaves_resolve(self):
        assert is_resolving(star(3), {1, 2})

    def test_empty_set(self):
        assert is_resolving(build_from_parents([None]), set())
        assert not is_resolving(chain(2), set())

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            is_resolving(chain(3), {7})

    def test_witness_table_shape(self):
        witness = resolving_witness(chain(3), {0})
        assert witness.distance_table == ((0, 1, 2),)


class TestBruteForce:
    def test_single_vertex(self):
        assert brute_force_md(build_from_parents([None])) == (0, ())

    def test_edge(self):
        assert brute_force_md(build_from_parents([None, 0])) == (1, (0,))

    def test_star_witness_is_two_leaves(self):
        beta, witness = brute_force_md(star(3))
        assert beta == 2 and witness == (1, 2)

    def test_cap(self):
        for t in (chain(17), star(16)):
            with pytest.raises(TooLarge):
                brute_force_md(t)
            with pytest.raises(TooLarge):
                tuple_core.brute_force_md(t)

    def test_matches_combinations_search_on_every_small_tree(self):
        for n in range(1, 9):
            for choice in product(*[range(i) for i in range(1, n)]):
                t = build_from_parents([None, *choice])
                beta, witness = brute_force_md(t)
                assert (beta, witness) == tuple_core.brute_force_md(t), choice
                assert all(type(w) is int for w in witness)

    def test_matches_combinations_search_on_random_trees(self):
        spec = RngSpec(35)
        for i in range(300):
            rng = spec.stream(i)
            t = sample_uniform_tree(int(rng.integers(2, 15)), rng)
            assert brute_force_md(t) == tuple_core.brute_force_md(t), i

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_matches_combinations_search_across_block_edges(self, monkeypatch, rows):
        monkeypatch.setattr(metric_dimension, "_SCAN_ROWS", rows)
        for n in range(1, 7):
            for choice in product(*[range(i) for i in range(1, n)]):
                t = build_from_parents([None, *choice])
                assert brute_force_md(t) == tuple_core.brute_force_md(t), choice

    @pytest.mark.parametrize(
        "parents",
        [
            [None] + [0] * 15,
            [None] + list(range(15)),
            [None] + list(range(7)) + [7] * 8,
            [None] + list(range(7)) + list(range(8)),
        ],
        ids=["star", "path", "broom", "caterpillar"],
    )
    def test_matches_combinations_search_at_the_cap(self, parents):
        t = build_from_parents(parents)
        assert t.n == 16
        assert brute_force_md(t) == tuple_core.brute_force_md(t)

    def test_witness_resolves(self):
        rng = RngSpec(31).stream(0)
        for _ in range(30):
            t = sample_uniform_tree(int(rng.integers(2, 11)), rng)
            beta, witness = brute_force_md(t)
            assert is_resolving(t, witness)
            assert len(witness) == beta

    def test_monotone_under_additions(self):
        rng = RngSpec(32).stream(0)
        for _ in range(20):
            t = sample_uniform_tree(int(rng.integers(3, 11)), rng)
            _, witness = brute_force_md(t)
            extra = set(witness)
            for v in range(t.n):
                extra.add(v)
                assert is_resolving(t, extra)


class TestOracleEquivalence:
    def test_exhaustive_small_increasing_trees(self):
        # md_report reads legs as line subtrees of the rooted tree; the
        # report must not depend on which vertex is the root.
        for n in range(1, 8):
            for choice in product(*[range(i) for i in range(1, n)]):
                t = build_from_parents([None, *choice])
                expected = md_report(t)
                assert expected.beta == brute_force_md(t)[0]
                reference = tuple_core.build_from_parents([None, *choice])
                assert expected == tuple_core.md_report(reference)
                for root in range(1, n):
                    rerooted = tuple_core.reroot([None, *choice], root)
                    report = md_report(build_from_parents(rerooted))
                    assert report == expected, (choice, root)

    def test_root_leg_ends_at_vertex_without_line_child(self):
        # leaf 1 -> root 0 (degree 2) -> vertex 2, whose children 3 and 4
        # both branch: 2 is exterior major with no line child.  Needs n >= 8.
        parents = [None, 0, 0, 2, 2, 3, 3, 4, 4]
        t = build_from_parents(parents)
        report = md_report(t)
        assert report.exterior_major == (2, 3, 4)
        assert report.beta == brute_force_md(t)[0] == 2
        for root in range(t.n):
            assert md_report(build_from_parents(tuple_core.reroot(parents, root))) == report

    def test_every_root_on_larger_random_trees(self):
        spec = RngSpec(34)
        for i in range(60):
            rng = spec.stream(i)
            t = sample_uniform_tree(int(rng.integers(8, 41)), rng)
            parents = [None if p < 0 else p for p in t.parents.tolist()]
            expected = md_report(t)
            for root in range(t.n):
                assert md_report(build_from_parents(tuple_core.reroot(parents, root))) == expected

    def test_random_trees(self):
        spec = RngSpec(33)
        for i in range(200):
            rng = spec.stream(i)
            t = sample_uniform_tree(int(rng.integers(2, 13)), rng)
            assert md_report(t).beta == brute_force_md(t)[0]

    @settings(max_examples=300, deadline=None)
    @given(tuple_core.tree_lists())
    def test_matches_tuple_core(self, parents):
        expected = tuple_core.md_report(tuple_core.build_from_parents(parents))
        assert md_report(build_from_parents(parents)) == expected
