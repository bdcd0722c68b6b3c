from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
import tuple_core
from hypothesis import given, settings

from treedim import (
    PAParams,
    RngSpec,
    brute_force_md,
    build_from_parents,
    is_resolving,
    md_report,
    metric_dimension,
    sample_pa_tree,
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


class TestReportEquality:
    def test_equal_reports_hash_equal(self):
        a, b = md_report(chain(5)), md_report(build_from_parents([1, 2, 3, 4, None]))
        assert a == b and hash(a) == hash(b)
        assert a != md_report(chain(4))

    def test_other_types_not_implemented(self):
        report = md_report(chain(3))
        assert report.__eq__(report.beta) is NotImplemented
        assert report != (report.leaves, report.exterior_major, report.beta, report.is_path)


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
        # Checked before conversion: 1.5 is not vertex 1, "2" not vertex 2.
        for candidate in ({7}, {1.5}, {"2"}, {True, 2}):
            with pytest.raises(VertexOutOfRange):
                is_resolving(chain(3), candidate)

    def test_matches_distance_vectors_above_the_oracle_cap(self):
        # Random sets of 0 to 5 vertices and random nine-tenths of the
        # leaves against whether the reference search's distance vectors
        # are distinct; all leaves resolve every tree with n >= 2.
        spec = RngSpec(37)
        outcomes = Counter()
        for i in range(40):
            rng = spec.stream(i)
            n = int(rng.integers(metric_dimension.BRUTE_FORCE_CAP + 1, 301))
            if i % 2:
                t = sample_uniform_tree(n, rng)
            else:
                t = sample_pa_tree(PAParams(1.0, 1), n, rng)
            adj = tuple_core.adjacency([None if p < 0 else p for p in t.parents.tolist()])
            leaves = [v for v in range(n) if len(adj[v]) == 1]
            assert is_resolving(t, leaves)
            candidates = [rng.choice(n, int(rng.integers(6)), replace=False) for _ in range(10)]
            candidates += [np.compress(rng.random(len(leaves)) < 0.9, leaves) for _ in range(5)]
            for candidate in candidates:
                rows = [tuple_core.bfs_distances(adj, int(w)) for w in candidate]
                expected = len({tuple(row[v] for row in rows) for v in range(n)}) == n
                assert is_resolving(t, candidate) == expected, (i, candidate)
                outcomes[expected] += 1
        assert outcomes[True] and outcomes[False], outcomes


class TestBruteForce:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_subset_table_is_combinations_order(self, n):
        table = metric_dimension._search_tables(n)[0]
        expected = [
            sum(1 << (n - 1 - v) for v in subset)
            for k in range(1, n + 1)
            for subset in combinations(range(n), k)
        ]
        assert table.tolist() == expected
        assert not table.flags.writeable

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


class TestDistanceMatrix:
    """The oracle's byte-row distances against breadth-first search."""

    @staticmethod
    def check(t):
        matrix = metric_dimension._distance_matrix(t)
        assert matrix.shape == (t.n, t.n) and matrix.dtype == np.uint8
        adj = tuple_core.adjacency([None if p < 0 else p for p in t.parents.tolist()])
        for v in range(t.n):
            assert matrix[v].tolist() == tuple_core.bfs_distances(adj, v), v
        return matrix

    def test_every_small_increasing_tree(self):
        for n in range(1, 9):
            for choice in product(*[range(i) for i in range(1, n)]):
                self.check(build_from_parents([None, *choice]))

    def test_relabelled_random_trees_up_to_the_cap(self):
        rng = RngSpec(36).stream(0)
        for shape in ("random", "path", "caterpillar"):
            for _ in range(40):
                n = int(rng.integers(1, metric_dimension.BRUTE_FORCE_CAP + 1))
                root = int(rng.integers(n))
                self.check(build_from_parents(tuple_core.random_tree(rng, n, shape, True, root)))

    @pytest.mark.parametrize("root", [0, 7, 15])
    def test_path_and_star_at_the_cap(self, root):
        path = self.check(build_from_parents(tuple_core.reroot([None] + list(range(15)), root)))
        assert path.max() == 15  # the largest distance a byte must hold
        star = self.check(build_from_parents(tuple_core.reroot([None] + [0] * 15, root)))
        assert star.max() == 2


class TestOracleEquivalence:
    def test_exhaustive_small_increasing_trees(self):
        # md_report reads legs as line subtrees of the rooted tree; the
        # report must not depend on which vertex is the root.
        for n in range(1, 8):
            for choice in product(*[range(i) for i in range(1, n)]):
                t = build_from_parents([None, *choice])
                expected = md_report(t)
                assert type(expected.beta) is int  # printed in reports as is
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
