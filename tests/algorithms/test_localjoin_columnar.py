"""The vectorized local join must agree with the reference evaluator."""

from __future__ import annotations

import random

import pytest

from repro.backend import numpy_available

if not numpy_available():
    pytest.skip("numpy backend unavailable", allow_module_level=True)

import numpy

from repro.algorithms.localjoin import (
    _join_pairs_sparse,
    evaluate_query,
    evaluate_query_columnar,
)
from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import parse_query


def as_columns(rows):
    if not rows:
        return (numpy.zeros(0, dtype=numpy.int64),)
    return tuple(
        numpy.asarray(column, dtype=numpy.int64) for column in zip(*rows)
    )


def _join_pairs(numpy, key_left, key_right, assume_sorted=False):
    """``_join_pairs_sparse`` with the implicit identity made explicit."""
    left_index, right_index = _join_pairs_sparse(
        numpy, key_left, key_right, assume_sorted
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
        actual = evaluate_query_columnar(
            query,
            {name: as_columns(rows) for name, rows in instance.items()},
        )
        assert actual == expected

    def test_duplicate_rows_are_deduplicated(self):
        query = line_query(2)
        rows = [(1, 2), (1, 2), (2, 3)]
        instance = {"S1": rows, "S2": rows}
        assert evaluate_query_columnar(
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
        fast = evaluate_query_columnar(query, fragments, assume_unique=True)
        assert tuple(sorted(fast)) == evaluate_query(query, instance)
        assert len(fast) == len(set(fast))


class TestEdgeCases:
    def test_missing_relation_is_empty(self):
        query = line_query(2)
        assert evaluate_query_columnar(
            query, {"S1": as_columns([(1, 2)])}
        ) == ()

    def test_empty_relation_is_empty(self):
        query = line_query(2)
        assert evaluate_query_columnar(
            query, {"S1": as_columns([(1, 2)]), "S2": as_columns([])}
        ) == ()

    def test_repeated_variable_filters_rows(self):
        query = parse_query("q(x) = S(x, x)")
        fragments = {"S": as_columns([(1, 1), (1, 2), (3, 3)])}
        assert evaluate_query_columnar(query, fragments) == ((1,), (3,))

    def test_large_domain_multicolumn_key_falls_back(self):
        """Keys too wide to radix-pack go through the factorize path."""
        big = 1 << 22
        query = parse_query("q(x,y,z) = A(x,y,z), B(x,y,z)")
        rows = [(big - i, big - i, big - i) for i in range(1, 20)]
        fragments = {"A": as_columns(rows), "B": as_columns(rows[::2])}
        expected = evaluate_query(
            query, {"A": rows, "B": rows[::2]}
        )
        assert evaluate_query_columnar(query, fragments) == expected


class TestJoinPairsSorted:
    """The sort-free branch of ``_join_pairs_sparse`` agrees with the
    sorting one."""

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_sets_identical(self, seed):
        rng = numpy.random.default_rng(seed)
        key_right = numpy.sort(rng.integers(0, 50, size=200))
        key_left = rng.integers(-5, 60, size=120)  # incl. out-of-range
        with_sort = _join_pairs(numpy, key_left, key_right)
        sort_free = _join_pairs(
            numpy, key_left, key_right, assume_sorted=True
        )
        expected = set(zip(with_sort[0].tolist(), with_sort[1].tolist()))
        actual = set(zip(sort_free[0].tolist(), sort_free[1].tolist()))
        assert actual == expected
        # Every pair really matches.
        for left, right in actual:
            assert key_left[left] == key_right[right]

    def test_wide_span_falls_back_to_searchsorted(self):
        """Keys too sparse for direct addressing still join correctly."""
        key_right = numpy.asarray([0, 10**15, 2 * 10**15])
        key_left = numpy.asarray([10**15, 5])
        left_index, right_index = _join_pairs(
            numpy, key_left, key_right, assume_sorted=True
        )
        assert left_index.tolist() == [0]
        assert right_index.tolist() == [1]

    def test_empty_sides(self):
        empty = numpy.zeros(0, dtype=numpy.int64)
        some = numpy.asarray([1, 2, 3])
        for assume_sorted in (False, True):
            left_index, right_index = _join_pairs(
                numpy, empty, some, assume_sorted=assume_sorted
            )
            assert len(left_index) == len(right_index) == 0
            left_index, right_index = _join_pairs(
                numpy, some, empty, assume_sorted=assume_sorted
            )
            assert len(left_index) == len(right_index) == 0


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
        """Non-decreasing but negative keys must not hit bincount."""
        left_index, right_index = _join_pairs(
            numpy,
            numpy.asarray([0, 3]),
            numpy.asarray([-5, 0, 3]),
            assume_sorted=True,
        )
        assert sorted(zip(left_index.tolist(), right_index.tolist())) == [
            (0, 1),
            (1, 2),
        ]
