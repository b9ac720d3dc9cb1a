"""The vectorized local join must agree with the reference evaluator."""

from __future__ import annotations

import random

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.localjoin import (
    _factorize_keys,
    _join_pairs_sparse,
    _pack_segmented_keys,
    _radices,
    evaluate_query_table,
)
from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import parse_query
from repro.oracle import evaluate_query


def as_columns(rows):
    if not rows:
        return (numpy.zeros(0, dtype=numpy.int64),)
    return tuple(
        numpy.asarray(column, dtype=numpy.int64) for column in zip(*rows)
    )


def table_rows(query, fragments, assume_unique=False):
    """:func:`evaluate_query_table`'s answers as row tuples, comparable
    with :func:`evaluate_query`'s."""
    table = evaluate_query_table(query, fragments, assume_unique)
    return tuple(map(tuple, table.tolist()))


def _join_pairs(key_left, key_right, assume_sorted=False):
    """``_join_pairs_sparse`` with the implicit identity made explicit."""
    left_index, right_index = _join_pairs_sparse(
        key_left, key_right, assume_sorted
    )
    if left_index is None:
        left_index = numpy.arange(len(key_left), dtype=numpy.int64)
    return left_index, right_index


def random_instance(query, n, rows_per_atom, rng):
    return {
        atom.name: [
            tuple(rng.randint(1, n) for _ in range(atom.arity))
            for _ in range(rows_per_atom)
        ]
        for atom in query.atoms
    }


QUERIES = [
    cycle_query(3),
    cycle_query(4),
    line_query(2),
    line_query(4),
    star_query(3),
    parse_query("R(x,y,z), S(z,w)"),
    parse_query("q(x,y) = S(x, x), T(x, y)"),  # repeated variable
    parse_query("q(x,y) = A(x), B(y)"),  # cartesian (no shared vars)
]


class TestAgreesWithReference:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: str(q))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances(self, query, seed):
        rng = random.Random(seed)
        instance = random_instance(query, n=12, rows_per_atom=40, rng=rng)
        expected = evaluate_query(query, instance)
        actual = table_rows(
            query,
            {name: as_columns(rows) for name, rows in instance.items()},
        )
        assert actual == expected

    def test_duplicate_rows_are_deduplicated(self):
        query = line_query(2)
        rows = [(1, 2), (1, 2), (2, 3)]
        instance = {"S1": rows, "S2": rows}
        assert table_rows(
            query, {name: as_columns(r) for name, r in instance.items()}
        ) == evaluate_query(query, instance)

    def test_assume_unique_same_answer_set(self):
        query = cycle_query(3)
        rng = random.Random(7)
        instance = random_instance(query, n=10, rows_per_atom=60, rng=rng)
        # Inputs are made duplicate-free so the fast path is valid.
        instance = {
            name: sorted(set(rows)) for name, rows in instance.items()
        }
        fragments = {
            name: as_columns(rows) for name, rows in instance.items()
        }
        fast = table_rows(query, fragments, assume_unique=True)
        assert tuple(sorted(fast)) == evaluate_query(query, instance)
        assert len(fast) == len(set(fast))


class TestEdgeCases:
    def test_missing_relation_is_empty(self):
        query = line_query(2)
        assert table_rows(
            query, {"S1": as_columns([(1, 2)])}
        ) == ()

    def test_empty_relation_is_empty(self):
        query = line_query(2)
        assert table_rows(
            query, {"S1": as_columns([(1, 2)]), "S2": as_columns([])}
        ) == ()

    def test_repeated_variable_filters_rows(self):
        query = parse_query("q(x) = S(x, x)")
        fragments = {"S": as_columns([(1, 1), (1, 2), (3, 3)])}
        assert table_rows(query, fragments) == ((1,), (3,))

    def test_large_domain_multicolumn_key_falls_back(self):
        """Keys too wide to radix-pack go through the factorize path."""
        big = 1 << 22
        query = parse_query("q(x,y,z) = A(x,y,z), B(x,y,z)")
        rows = [(big - i, big - i, big - i) for i in range(1, 20)]
        fragments = {"A": as_columns(rows), "B": as_columns(rows[::2])}
        expected = evaluate_query(
            query, {"A": rows, "B": rows[::2]}
        )
        assert table_rows(query, fragments) == expected


class TestJoinPairsSorted:
    """The sort-free branch of ``_join_pairs_sparse`` agrees with the
    sorting one."""

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_sets_identical(self, seed):
        rng = numpy.random.default_rng(seed)
        key_right = numpy.sort(rng.integers(0, 50, size=200))
        key_left = rng.integers(-5, 60, size=120)  # incl. out-of-range
        with_sort = _join_pairs(key_left, key_right)
        sort_free = _join_pairs(
            key_left, key_right, assume_sorted=True
        )
        expected = set(zip(with_sort[0].tolist(), with_sort[1].tolist()))
        actual = set(zip(sort_free[0].tolist(), sort_free[1].tolist()))
        assert actual == expected
        # Every pair really matches.
        for left, right in actual:
            assert key_left[left] == key_right[right]

    def test_wide_span_falls_back_to_searchsorted(self):
        """Keys spanning ~2e15 join at the cost of their rows: no
        table over the key span is built."""
        key_right = numpy.asarray([0, 10**15, 2 * 10**15])
        key_left = numpy.asarray([10**15, 5])
        left_index, right_index = _join_pairs(
            key_left, key_right, assume_sorted=True
        )
        assert left_index.tolist() == [0]
        assert right_index.tolist() == [1]

    def test_empty_sides(self):
        empty = numpy.zeros(0, dtype=numpy.int64)
        some = numpy.asarray([1, 2, 3])
        for assume_sorted in (False, True):
            left_index, right_index = _join_pairs(
                empty, some, assume_sorted=assume_sorted
            )
            assert len(left_index) == len(right_index) == 0
            left_index, right_index = _join_pairs(
                some, empty, assume_sorted=assume_sorted
            )
            assert len(left_index) == len(right_index) == 0


def _nested_loop_pairs(key_left, key_right):
    """Every matching ``(i, j)``, ``i`` then ``j`` ascending."""
    return [
        (i, j)
        for i, left in enumerate(key_left)
        for j, right in enumerate(key_right)
        if left == right
    ]


class TestJoinPairsOrder:
    """``_join_pairs_sparse`` returns exactly the nested-loop pair
    sequence: retained per-worker tables inherit this row order."""

    @settings(max_examples=300, deadline=None)
    @given(
        key_left=st.lists(st.integers(-3, 11), max_size=30),
        key_right=st.lists(st.integers(-2, 8), max_size=30),
        assume_sorted=st.booleans(),
    )
    def test_pairs_in_nested_loop_order(
        self, key_left, key_right, assume_sorted
    ):
        if assume_sorted:
            key_right = sorted(key_right)
        expected = _nested_loop_pairs(key_left, key_right)
        left_index, right_index = _join_pairs_sparse(
            numpy.asarray(key_left, dtype=numpy.int64),
            numpy.asarray(key_right, dtype=numpy.int64),
            assume_sorted,
        )
        # None signals the identity: every left row matched once.
        identity = [i for i, _ in expected] == list(range(len(key_left)))
        assert (left_index is None) == identity
        if left_index is None:
            left_index = numpy.arange(len(key_left))
        actual = list(zip(left_index.tolist(), right_index.tolist()))
        assert actual == expected


def _int64(values):
    return numpy.asarray(values, dtype=numpy.int64)


def _key_rows(columns):
    return list(zip(*(column.tolist() for column in columns)))


def _assert_keys_encode_rows(
    left_rows, right_rows, key_left, key_right, ordered
):
    """Keys are equal exactly when their rows are; ``ordered`` keys also
    sort like the rows (lexicographically)."""
    rows = left_rows + right_rows
    keys = key_left.tolist() + key_right.tolist()
    assert len(keys) == len(rows)
    for (row_a, key_a) in zip(rows, keys):
        for (row_b, key_b) in zip(rows, keys):
            assert (key_a == key_b) == (row_a == row_b)
            if ordered:
                assert (key_a < key_b) == (row_a < row_b)


_key_columns = st.integers(1, 3).flatmap(
    lambda width: st.tuples(
        st.lists(
            st.tuples(*[st.integers(0, 9)] * width), max_size=12
        ),
        st.lists(
            st.tuples(*[st.integers(0, 9)] * width), max_size=12
        ),
    )
)


class TestKeyPacking:
    """Mixed-radix packing of multi-column join keys into one int64,
    and the ``unique`` fallback when the span would overflow."""

    def test_radices_are_the_max_plus_one_over_both_sides(self):
        left = [_int64([1, 4]), _int64([7, 0])]
        right = [_int64([9]), _int64([2])]
        assert _radices(left, right) == [10, 8]

    def test_empty_columns_take_radix_one(self):
        empty = _int64([])
        assert _radices([empty, empty], [empty, empty]) == [1, 1]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_negative_value_on_either_side_is_unpackable(self, side):
        negative, plain = [_int64([3, -1])], [_int64([2])]
        if side == "left":
            assert _radices(negative, plain) is None
        else:
            assert _radices(plain, negative) is None

    def test_span_just_below_two_to_the_62_packs(self):
        column = [_int64([(1 << 62) - 2])]
        assert _radices(column, [_int64([])]) == [(1 << 62) - 1]
        assert _radices([_int64([(1 << 62) - 1])], [_int64([])]) is None

    def test_the_starting_span_counts_toward_overflow(self):
        # One column of radix 2**31 packs alone, but not below a
        # segment id spanning another 2**31 values.
        column = [_int64([(1 << 31) - 1])]
        empty = [_int64([])]
        assert _radices(column, empty) == [1 << 31]
        assert _radices(column, empty, 1 << 31) is None

    def test_single_column_keys_are_used_as_they_are(self):
        left, right = _int64([5, 1]), _int64([1])
        key_left, key_right, ordered = _factorize_keys([left], [right])
        assert key_left is left and key_right is right and ordered

    @settings(max_examples=100, deadline=None)
    @given(_key_columns)
    def test_packed_keys_encode_rows_in_order(self, sides):
        left_rows, right_rows = sides
        width = len((left_rows + right_rows or [(0,)])[0])
        left = [_int64([row[i] for row in left_rows]) for i in range(width)]
        right = [_int64([row[i] for row in right_rows]) for i in range(width)]
        key_left, key_right, ordered = _factorize_keys(left, right)
        assert ordered
        _assert_keys_encode_rows(
            _key_rows(left), _key_rows(right), key_left, key_right, True
        )

    def test_an_overflowing_span_falls_back_to_unique(self):
        big = 1 << 40
        left = [_int64([big, 1, big]), _int64([big, 2, 3])]
        right = [_int64([1, big]), _int64([2, big])]
        key_left, key_right, ordered = _factorize_keys(left, right)
        assert not ordered
        _assert_keys_encode_rows(
            _key_rows(left), _key_rows(right), key_left, key_right, False
        )

    def test_a_segment_only_key_ships_without_a_copy(self):
        segment_left, segment_right = _int64([0, 2]), _int64([1])
        key_left, key_right, ordered = _pack_segmented_keys(
            segment_left, segment_right, 3, [], []
        )
        assert key_left is segment_left and key_right is segment_right
        assert ordered

    @settings(max_examples=100, deadline=None)
    @given(_key_columns, st.integers(1, 5), st.randoms(use_true_random=False))
    def test_segmented_keys_encode_segment_then_rows(
        self, sides, num_segments, rng
    ):
        left_rows, right_rows = sides
        width = len((left_rows + right_rows or [(0,)])[0])
        segment_left = _int64(
            [rng.randrange(num_segments) for _ in left_rows]
        )
        segment_right = _int64(
            [rng.randrange(num_segments) for _ in right_rows]
        )
        left = [_int64([row[i] for row in left_rows]) for i in range(width)]
        right = [_int64([row[i] for row in right_rows]) for i in range(width)]
        key_left, key_right, ordered = _pack_segmented_keys(
            segment_left, segment_right, num_segments, left, right
        )
        assert ordered
        _assert_keys_encode_rows(
            _key_rows([segment_left, *left]),
            _key_rows([segment_right, *right]),
            key_left,
            key_right,
            True,
        )

    @pytest.mark.parametrize(
        "segment_high,ordered",
        [(1, True), ((1 << 30) - 1, False)],
        ids=["repacked", "unique"],
    )
    def test_an_overflowing_segment_bound_falls_back_with_the_segment(
        self, segment_high, ordered
    ):
        # The bound of 2**30 segments overflows next to a 2**40 column,
        # so the generic factorizer takes (segment, columns...): it
        # still packs when the segment ids actually present are small,
        # and factorizes through ``unique`` when they are not.
        big = 1 << 40
        segment_left = _int64([0, segment_high, segment_high])
        segment_right = _int64([segment_high, 0])
        left = [_int64([big, big, 3])]
        right = [_int64([big, 3])]
        key_left, key_right, packed = _pack_segmented_keys(
            segment_left, segment_right, 1 << 30, left, right
        )
        assert packed == ordered
        _assert_keys_encode_rows(
            _key_rows([segment_left, *left]),
            _key_rows([segment_right, *right]),
            key_left,
            key_right,
            ordered,
        )


class TestSegmentedEvaluator:
    """evaluate_query_table_segmented == per-segment evaluation."""

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: str(q))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_segment_reference(self, query, seed):
        from repro.algorithms.localjoin import (
            evaluate_query_table_segmented,
        )

        rng = random.Random(seed)
        num_segments = rng.choice([1, 3, 5])
        per_segment = [
            random_instance(query, n=10, rows_per_atom=25, rng=rng)
            for _ in range(num_segments)
        ]
        fragments = {}
        segments = {}
        for atom in query.atoms:
            rows, owners = [], []
            for segment_id, instance in enumerate(per_segment):
                for row in sorted(set(instance[atom.name])):
                    rows.append(row)
                    owners.append(segment_id)
            fragments[atom.name] = as_columns(rows)
            segments[atom.name] = numpy.asarray(owners, dtype=numpy.int64)
        answers, answer_segments = evaluate_query_table_segmented(
            query,
            fragments,
            segments,
            num_segments=num_segments,
            assume_unique=True,
        )
        # Grouped by segment: the engine hands IVM each worker's
        # answers as a slice of this table.
        assert (numpy.diff(answer_segments) >= 0).all()
        got = {
            segment_id: set()
            for segment_id in range(num_segments)
        }
        for row, segment_id in zip(
            answers.tolist(), answer_segments.tolist()
        ):
            got[segment_id].add(tuple(row))
        for segment_id, instance in enumerate(per_segment):
            expected = set(evaluate_query(query, instance))
            assert got[segment_id] == expected, (query.name, segment_id)

    def test_sorted_relations_do_not_change_answers(self):
        from repro.algorithms.localjoin import (
            evaluate_query_table_segmented,
        )

        query = line_query(3)
        rng = random.Random(1)
        fragments, segments = {}, {}
        for atom in query.atoms:
            per_seg = [
                sorted(
                    set(
                        tuple(rng.randint(1, 8) for _ in range(atom.arity))
                        for _ in range(30)
                    )
                )
                for _ in range(4)
            ]
            rows = [row for seg_rows in per_seg for row in seg_rows]
            owners = [
                segment_id
                for segment_id, seg_rows in enumerate(per_seg)
                for _ in seg_rows
            ]
            fragments[atom.name] = as_columns(rows)
            segments[atom.name] = numpy.asarray(owners, dtype=numpy.int64)
        plain = evaluate_query_table_segmented(
            query, fragments, segments, num_segments=4, assume_unique=True
        )
        sorted_path = evaluate_query_table_segmented(
            query,
            fragments,
            segments,
            num_segments=4,
            assume_unique=True,
            sorted_relations={atom.name for atom in query.atoms},
        )
        def canonical(result):
            return sorted(
                (segment_id, tuple(row))
                for row, segment_id in zip(
                    result[0].tolist(), result[1].tolist()
                )
            )
        assert canonical(plain) == canonical(sorted_path)

    def test_dedup_path_removes_within_segment_duplicates(self):
        from repro.algorithms.localjoin import (
            evaluate_query_table_segmented,
        )

        query = parse_query("q(x,y) = S(x), T(x, y)")
        fragments = {
            "S": as_columns([(1,), (1,), (2,)]),
            "T": as_columns([(1, 5), (1, 5), (2, 6)]),
        }
        segments = {
            "S": numpy.asarray([0, 0, 1], dtype=numpy.int64),
            "T": numpy.asarray([0, 0, 1], dtype=numpy.int64),
        }
        answers, answer_segments = evaluate_query_table_segmented(
            query, fragments, segments, num_segments=2
        )
        assert sorted(
            (segment_id, tuple(row))
            for row, segment_id in zip(
                answers.tolist(), answer_segments.tolist()
            )
        ) == [(0, (1, 5)), (1, (2, 6))]

    def test_negative_sorted_keys_fall_back(self):
        """Non-decreasing keys below zero are probed like any others."""
        left_index, right_index = _join_pairs(
            numpy.asarray([0, 3]),
            numpy.asarray([-5, 0, 3]),
            assume_sorted=True,
        )
        assert sorted(zip(left_index.tolist(), right_index.tolist())) == [
            (0, 1),
            (1, 2),
        ]
