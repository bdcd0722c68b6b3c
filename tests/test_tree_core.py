import numpy as np
import pytest
import tuple_core
from hypothesis import given, settings
from hypothesis import strategies as st

from treedim import (
    RngSpec,
    build_from_parents,
    count_subtree_property,
    is_line,
    is_pk,
    is_pl,
    md_report,
    parse,
    read_tree,
    sample_uniform_tree,
    serialize,
)
from treedim.errors import (
    CycleDetected,
    IndexOutOfRange,
    MultipleRoots,
    NoRoot,
    TreeFormatError,
    TreeStructureError,
)
from treedim.tree import _parse_exact


def chain(n):
    return build_from_parents([None] + list(range(n - 1)))


def star(leaves):
    return build_from_parents([None] + [0] * leaves)


def unrooted_degrees(t):
    return (t.outdeg + (t.parents >= 0)).tolist()


class TestBuild:
    def test_single_vertex(self):
        t = build_from_parents([None])
        assert t.n == 1 and t.root == 0 and t.children == ((),)

    def test_chain(self):
        t = build_from_parents([None, 0, 1])
        assert t.root == 0
        assert t.children == ((1,), (2,), ())

    def test_root_not_first(self):
        t = build_from_parents([1, None])
        assert t.root == 1
        assert t.children[1] == (0,)

    def test_children_in_index_order(self):
        t = build_from_parents([None, 0, 0, 1, 0])
        assert t.children[0] == (1, 2, 4)

    def test_no_root(self):
        with pytest.raises(NoRoot):
            build_from_parents([1, 0])
        with pytest.raises(NoRoot):
            build_from_parents([])

    def test_multiple_roots_names_first_offender(self):
        with pytest.raises(MultipleRoots) as err:
            build_from_parents([None, None, 0])
        assert err.value.vertex == 1

    def test_out_of_range_names_vertex(self):
        with pytest.raises(IndexOutOfRange) as err:
            build_from_parents([None, 5])
        assert err.value.vertex == 1
        with pytest.raises(IndexOutOfRange):
            build_from_parents([None, -1])

    def test_self_parent_is_cycle(self):
        with pytest.raises(CycleDetected) as err:
            build_from_parents([None, 1])
        assert err.value.vertex == 1

    def test_two_cycle(self):
        with pytest.raises(CycleDetected) as err:
            build_from_parents([None, 2, 1])
        assert err.value.vertex == 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cycle_names_smallest_stranded_vertex(self, data):
        n = data.draw(st.integers(2, 12))
        root = data.draw(st.integers(0, n - 1))
        parents = [
            None if v == root else data.draw(st.integers(0, n - 1).filter(lambda p, v=v: p != v))
            for v in range(n)
        ]

        def reaches_root(v):
            for _ in range(n):
                if v == root:
                    return True
                v = parents[v]
            return v == root

        stranded = [v for v in range(n) if not reaches_root(v)]
        if not stranded:
            assert build_from_parents(parents).n == n
            return
        with pytest.raises(CycleDetected) as err:
            build_from_parents(parents)
        assert err.value.vertex == stranded[0]
        assert str(err.value) == f"vertex {stranded[0]} cannot reach the root (parent cycle)"


def assert_same_build(arg, reference_input):
    """``build_from_parents(arg)`` agrees with the tuple core on
    ``reference_input``: the same tree, or the same error and vertex."""
    try:
        expected = tuple_core.build_from_parents(reference_input)
    except TreeStructureError as exc:
        with pytest.raises(TreeStructureError) as err:
            build_from_parents(arg)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc) and err.value.vertex == exc.vertex
        return
    t = build_from_parents(arg)
    assert [None if p < 0 else p for p in t.parents.tolist()] == list(expected.parents)
    assert t.root == expected.root
    assert t.children == expected.children
    assert t.outdeg.tolist() == [len(kids) for kids in expected.children]


ENTRIES = st.one_of(
    st.none(),
    st.integers(-2, 10),
    st.integers(-2, 10).map(np.int64),
    st.integers(-2, 10).map(np.int32),
    st.sampled_from([1.0, True, "0", 2**70]),
)


class TestTupleCoreOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(ENTRIES, max_size=9))
    def test_sequence_form_matches_reference(self, parents):
        assert_same_build(parents, parents)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-3, 9), max_size=9),
        st.sampled_from([np.int64, np.int32, np.int8]),
    )
    def test_ndarray_form_matches_reference(self, entries, dtype):
        # -1 marks the root; a second -1 is a second root, other negatives
        # are out of range.
        expected = [None if p == -1 else p for p in entries]
        assert_same_build(np.array(entries, dtype=dtype), expected)

    @settings(max_examples=200, deadline=None)
    @given(tuple_core.tree_lists())
    def test_valid_trees_match_reference(self, parents):
        assert_same_build(parents, parents)
        array = np.array([-1 if p is None else p for p in parents])
        assert build_from_parents(array) == build_from_parents(parents)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-2, 9).map(str),
                st.sampled_from(["R", "R", "-01", "x", "99999999999999999999"]),
            ),
            min_size=1,
            max_size=9,
        )
    )
    def test_parse_matches_reference(self, tokens):
        # A literal -1 (or -01) is out of range, never a second root.
        text = f"{len(tokens)}\n" + "\n".join(tokens) + "\n"
        try:
            entries = [None if t == "R" else int(t) for t in tokens]
        except ValueError:
            bad = next(t for t in tokens if t == "x")
            with pytest.raises(TreeFormatError, match=f"bad parent entry '{bad}'"):
                parse(text)
            return
        try:
            expected = tuple_core.build_from_parents(entries)
        except TreeStructureError as exc:
            with pytest.raises(type(exc)) as err:
                parse(text)
            assert str(err.value) == str(exc) and err.value.vertex == exc.vertex
            return
        assert parse(text).parents.tolist() == [-1 if p is None else p for p in expected.parents]

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", "", "", " ", "\t", "\x0c", "\x1f", "\xa0"]),
                st.one_of(st.integers(-2, 9).map(str), st.sampled_from(["R", "R", "x", "1 2"])),
                st.sampled_from(["", "", "", " ", "\t", "\x1f", "\xa0"]),
                st.sampled_from(
                    ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028", "\n\n", "\n \n"]
                ),
            ),
            max_size=9,
        ),
        st.integers(-1, 1),
        st.sampled_from(["plain", "blank", "mixed"]),
        st.sampled_from(["", "", "\n", "\n\n", " "]),
        st.booleans(),
    )
    def test_parse_matches_line_comprehension(self, rows, miscount, style, lead, trailing):
        # ``plain`` keeps LF rows without padding, the text a serializer
        # writes; ``blank`` adds blank lines; ``mixed`` rows also carry CR,
        # VT, NEL and padding.
        if style != "mixed":
            rows = [
                ("", token, "", "\n" if style == "plain" or sep != "\n\n" else sep)
                for _, token, _, sep in rows
            ]
        text = lead + f"{len(rows) + miscount}\n" + "".join(map("".join, rows))
        if not trailing:
            text = text.rstrip("\n")

        def outcome(parser):
            try:
                return parser(text).parents.tolist()
            except (TreeFormatError, TreeStructureError) as exc:
                return type(exc), str(exc), getattr(exc, "vertex", None)

        assert outcome(parse) == outcome(tuple_core.parse)

    @pytest.mark.parametrize(
        "array",
        [
            np.array([-1.0, 0.0]),
            np.array([True, False]),
            np.array([[-1, 0]]),
            np.array([255, 0], dtype=np.uint8),
        ],
        ids=["float", "bool", "2-D", "unsigned"],
    )
    def test_ndarray_needs_signed_integer_vector(self, array):
        with pytest.raises(IndexOutOfRange, match="signed integer"):
            build_from_parents(array)

    def test_ndarray_is_copied_and_read_only(self):
        source = np.array([-1, 0, 0])
        t = build_from_parents(source)
        source[1] = 2
        assert t.parents.tolist() == [-1, 0, 0]
        with pytest.raises(ValueError):
            t.parents[1] = 2


class TestDegrees:
    def test_single(self):
        t = build_from_parents([None])
        assert unrooted_degrees(t) == [0] and t.outdeg.tolist() == [0]

    def test_chain(self):
        assert unrooted_degrees(chain(3)) == [1, 2, 1]

    def test_star(self):
        t = star(3)
        assert unrooted_degrees(t) == [3, 1, 1, 1]
        assert t.outdeg.tolist() == [3, 0, 0, 0]

    def test_degree_sum_is_twice_edges(self):
        rng = RngSpec(5).stream(0)
        for _ in range(25):
            t = sample_uniform_tree(int(rng.integers(1, 40)), rng)
            assert sum(unrooted_degrees(t)) == 2 * (t.n - 1)
            assert sum(1 for d in t.outdeg.tolist() if d == 0) >= 1


class TestIsPath:
    def test_chain_is_path(self):
        assert md_report(chain(5)).is_path

    def test_star_is_not(self):
        assert not md_report(star(3)).is_path

    def test_single_vertex_counts(self):
        assert md_report(build_from_parents([None])).is_path

    def test_midpoint_rooted_path(self):
        # root in the middle, two hanging chains: still an unrooted path
        t = build_from_parents([None, 0, 0, 1, 2])
        assert md_report(t).is_path


def tall(shape: str, length: int) -> list[int | None]:
    """A chain of ``length`` only-child steps below vertex 0; a broom also
    hangs three leaves from its end."""
    return [None, *range(length)] + ([length] * 3 if shape == "broom" else [])


class TestChainEnds:
    """The climb, the line and pk flags and ``md_report`` on chains at the
    edges of the doubling rounds: 2^k - 1 steps resolve in k rounds, 2^k
    and 2^k + 1 in k + 1."""

    @pytest.mark.parametrize("k", [6, 12])
    @pytest.mark.parametrize("shape", ["path", "broom"])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_tall_trees_match_tuple_core(self, k, shape, step, shuffled):
        length = 2**k + step
        parents = tall(shape, length)
        n = len(parents)
        perm = np.random.default_rng([k, n]).permutation(n) if shuffled else np.arange(n)
        parents = tuple_core.relabel(parents, perm.tolist())
        # Every root of the small trees; the chain's ends and middle and a
        # last vertex (a bristle of the broom) for the large ones.
        roots = range(n) if k == 6 else perm[[0, length // 2, length, n - 1]].tolist()
        for root in roots:
            rerooted = tuple_core.reroot(parents, root)
            t = build_from_parents(rerooted)
            ref = tuple_core.build_from_parents(rerooted)
            flags = tuple_core.line_flags(ref)
            assert t.climb.tolist() == tuple_core.climb(ref), root
            assert t.line.tolist() == flags, root
            assert t.pk_flags.tolist() == tuple_core.pk_flags(ref), root
            assert md_report(t) == tuple_core.md_report(ref), root


def spider(legs) -> list[int | None]:
    """Legs of the given numbers of only-child steps below centre vertex 0."""
    parents: list[int | None] = [None]
    for length in legs:
        parents += [0, *range(len(parents), len(parents) + length - 1)]
    return parents


def assert_legs_match(parents, root: int) -> None:
    """``md_report``, the leg tops, the flags and the counts on a fresh
    tree rooted at ``root``, against tuple_core."""
    rerooted = tuple_core.reroot(parents, root)
    t = build_from_parents(rerooted)
    ref = tuple_core.build_from_parents(rerooted)
    flags = tuple_core.line_flags(ref)
    pk = tuple_core.pk_flags(ref)
    assert md_report(t) == tuple_core.md_report(ref), root
    assert count_subtree_property(t, is_pl) == sum(not kids for kids in ref.children)
    assert count_subtree_property(t, is_pk) == sum(pk), root
    assert count_subtree_property(t, is_line) == sum(flags), root
    leaves = [v for v, kids in enumerate(ref.children) if not kids and v != ref.root]
    assert t.legs.tolist() == t.climb[leaves].tolist() == tuple_core.legs(ref), root
    assert t.pk_flags.tolist() == pk, root
    assert t.line.tolist() == flags, root


class TestLegs:
    """The leg tops (each non-root leaf's ``climb``), the flags, the counts
    and ``md_report`` on spiders whose legs stop on either side of the
    doubling rounds' edges.  The switch in a test name is the seventh round,
    where an earlier climb moved from single steps to doubling."""

    @pytest.mark.parametrize("k", [6, 12])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_tall_spiders_match_tuple_core(self, k, shuffled):
        # Legs of 2^k - 1, 2^k and 2^k + 1 steps: k, k + 1 and k + 1
        # doubling rounds once rerooted at the centre.
        lengths = [2**k - 1, 2**k, 2**k + 1]
        parents = spider(lengths)
        n = len(parents)
        perm = np.random.default_rng([k, n]).permutation(n) if shuffled else np.arange(n)
        parents = tuple_core.relabel(parents, perm.tolist())
        # Every root at k = 6; at k = 12 the centre, the last leg's end and
        # the first leg's middle.
        roots = range(n) if k == 6 else perm[[0, n - 1, lengths[0] // 2]].tolist()
        for root in roots:
            assert_legs_match(parents, root)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_every_leg_length_around_the_switch(self, shuffled):
        # Legs of 1..12 vertices, n = 79: from the centre the leaves climb
        # 0..11 steps, so they stop without a step, at the first step and
        # in each of four doubling rounds.
        parents = spider(range(1, 13))
        n = len(parents)
        if shuffled:
            parents = tuple_core.relabel(parents, np.random.default_rng(n).permutation(n).tolist())
        for root in range(n):
            assert_legs_match(parents, root)


class TestSerialization:
    def test_format(self):
        assert serialize(chain(3)) == "3\nR\n0\n1\n"

    def test_parse_round_trip(self):
        t = build_from_parents([2, 2, None, 0, 0])
        assert parse(serialize(t)) == t

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse("")
        with pytest.raises(ValueError):
            parse("2\nR\n")
        with pytest.raises(ValueError):
            parse("1\nx\n")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(min_value=0, max_value=max(0, n - 1)),
                    min_size=max(0, n - 1),
                    max_size=max(0, n - 1),
                ),
            )
        )
    )
    def test_round_trip_random_increasing_trees(self, case):
        n, raw = case
        parents = [None] + [raw[i - 1] % i for i in range(1, n)]
        t = build_from_parents(parents)
        assert parse(serialize(t)) == t

    def test_read_rejects_non_utf8(self, tmp_path):
        target = tmp_path / "bad.tree"
        target.write_bytes(b"2\nR\n\xff\n")
        with pytest.raises(TreeFormatError, match="bad.tree"):
            read_tree(target)

    def test_round_trip_generated(self, tmp_path):
        from treedim import read_tree, write_tree

        rng = RngSpec(11).stream(3)
        t = sample_uniform_tree(60, rng)
        path = tmp_path / "t.tree"
        write_tree(t, path)
        assert read_tree(path) == t


def parse_outcome(parser, text):
    """The parents ``parser`` reads from ``text``, or its error."""
    try:
        return parser(text).parents.tolist()
    except (TreeFormatError, TreeStructureError) as exc:
        return type(exc), str(exc), getattr(exc, "vertex", None)


# One-byte edits: the bytes of the exact form plus what it excludes.
EDIT_BYTES = ["0", "7", "R", "\n", "-", "+", " ", "\r", "\x00", "٣"]


class TestByteLevelParse:
    """``parse`` against ``tuple_core.parse`` and ``serialize`` against
    ``tuple_core.serialize``: texts in the exact form take the byte-level
    pass, any other text the line comprehension, with the same outcome."""

    @settings(max_examples=300, deadline=None)
    @given(tuple_core.tree_lists())
    def test_exact_form_round_trip(self, parents):
        t = build_from_parents(parents)
        text = tuple_core.serialize(t)
        assert serialize(t) == text
        assert _parse_exact(text) is not None
        assert parse(text) == t == tuple_core.parse(text)

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 101])
    def test_serialize_at_digit_width_edges(self, n):
        for root in sorted({0, n // 2, n - 1}):
            parents = tuple_core.reroot([None, *range(n - 1)], root)
            t = build_from_parents(parents)
            assert serialize(t) == tuple_core.serialize(t)
            assert parse(serialize(t)) == t

    @settings(max_examples=500, deadline=None)
    @given(
        tuple_core.tree_lists(max_n=30),
        st.sampled_from(["insert", "replace", "delete"]),
        st.sampled_from(EDIT_BYTES),
        st.integers(0, 10**6),
    )
    def test_one_byte_edits_match_line_comprehension(self, parents, edit, byte, where):
        text = tuple_core.serialize(build_from_parents(parents))
        at = where % (len(text) + (edit == "insert"))
        tail = text[at:] if edit == "insert" else text[at + 1 :]
        text = text[:at] + ("" if edit == "delete" else byte) + tail
        assert parse_outcome(parse, text) == parse_outcome(tuple_core.parse, text)

    @pytest.mark.parametrize(
        "rows",
        [
            ["4", "R", "0", "0", "1"],  # the exact form itself
            ["04", "R", "0", "0", "1"],  # leading zeros
            ["4", "R", "00", "0", "001"],
            ["4", "R", "0", "0", "0000000000000000001"],  # 19 digits
            ["4", "R", "0", "0", "9999999999999999999"],
            ["4", "R", "0", "0", "999999999999999999"],  # 18 digits, out of range
            ["4", "R", "0", "0", "-1"],
            ["4", "R", "0", "-0", "1"],
            ["4", "R", "0", "+3", "1"],
            ["3", "R", "0", "0", "1"],  # count off by one
            ["5", "R", "0", "0", "1"],
            ["4", "R", "0", "R", "1"],  # two roots
            ["4", " R", "0", "0", "1"],  # padded root
            ["4", "R ", "0", "0", "1"],
            ["4", "R", "0", "0", "١"],  # an Arabic-Indic digit
            ["4", "R", "0", "0\x00", "1"],  # a NUL byte
            ["4", "R", "0", "", "0", "1"],  # a blank row
            ["R", "4", "0", "0", "1"],
            ["1", "R"],
            ["0"],
        ],
    )
    @pytest.mark.parametrize("final_lf", [True, False])
    def test_named_edits_match_line_comprehension(self, rows, final_lf):
        text = "\n".join(rows) + "\n" * final_lf
        assert parse_outcome(parse, text) == parse_outcome(tuple_core.parse, text)
