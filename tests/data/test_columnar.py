"""Unit tests for columnar relations, databases and bit accounting."""

from __future__ import annotations

from collections import Counter

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    DataError,
    absent_rows,
    bits_per_value,
    insert_rows,
    locate_rows,
    remove_rows,
    sorted_unique_rows,
)

INT64 = numpy.iinfo(numpy.int64)

#: Per-column value domains: small ones repeat rows; ``far`` ones pack
#: only once offset by their minimum; ``wide`` columns (span 2**33)
#: overflow one packed key after two columns; ``extreme`` columns span
#: 2**64 and must become raw keys of their own.
DOMAINS = {
    "small": st.integers(-2, 2),
    "positive": st.integers(1, 6),
    "far": st.integers(INT64.max - 3, INT64.max),
    "wide": st.integers(-(2**32), 2**32),
    "extreme": st.sampled_from([INT64.min, INT64.min + 1, -1, 0, INT64.max]),
}


@st.composite
def int64_tables(draw):
    """An int64 table, possibly non-contiguous, and its layout name."""
    arity = draw(st.integers(1, 9))
    num_rows = draw(st.integers(0, 24))
    kinds = draw(
        st.lists(st.sampled_from(sorted(DOMAINS)), min_size=arity,
                 max_size=arity)
    )
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    height = 2 * num_rows if layout == "strided" else num_rows
    columns = [
        numpy.array(
            draw(st.lists(DOMAINS[kind], min_size=height, max_size=height)),
            dtype=numpy.int64,
        )
        for kind in kinds
    ]
    if layout == "transposed":
        table = numpy.array(columns, dtype=numpy.int64).T
    elif layout == "strided":
        table = numpy.column_stack(columns)[::2]
    else:
        table = numpy.column_stack(columns)
    return table, layout


def assert_matches_numpy_unique(table):
    before = table.copy()
    expected = numpy.unique(table, axis=0)
    got = sorted_unique_rows(table)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert numpy.array_equal(got, expected)
    assert got.flags.c_contiguous
    assert numpy.array_equal(table, before)


def rel(name="R", rows=((1, 2), (2, 1)), n=4, arity=None):
    return ColumnarRelation.from_rows(name, rows, domain_size=n, arity=arity)


class TestBitsPerValue:
    @pytest.mark.parametrize(
        "n,bits", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10), (1025, 11)]
    )
    def test_values(self, n, bits):
        assert bits_per_value(n) == bits

    def test_invalid(self):
        with pytest.raises(DataError):
            bits_per_value(0)


class TestConstruction:
    def test_rows_sorted_and_deduped(self):
        columnar = ColumnarRelation.from_rows(
            "R", [(2, 2), (1, 1), (2, 2)], domain_size=2
        )
        assert list(columnar.rows()) == [(1, 1), (2, 2)]
        assert len(columnar) == 2

    def test_deduplicates_and_sorts(self):
        relation = rel(rows=[(2, 1), (1, 2), (2, 1)])
        assert tuple(relation.rows()) == ((1, 2), (2, 1))
        assert len(relation) == 2

    def test_columns_are_int64_arrays(self):
        columnar = ColumnarRelation(
            name="R", arity=2, columns=([1, 2], [3, 4]), domain_size=4
        )
        for column in columnar.columns:
            assert isinstance(column, numpy.ndarray)
            assert column.dtype == numpy.int64
        assert list(columnar.rows()) == [(1, 3), (2, 4)]

    def test_from_table_keeps_an_empty_tables_arity(self):
        table = numpy.empty((0, 3), dtype=numpy.int64)
        empty = ColumnarRelation.from_table("R", table, domain_size=5)
        assert empty.arity == 3
        assert len(empty) == 0
        assert empty.size_bits == 0
        assert all(column.dtype == numpy.int64 for column in empty.columns)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DataError, match="arity"):
            ColumnarRelation("R", 2, ([1],), 4)
        with pytest.raises(DataError, match="arity"):
            ColumnarRelation("R", 0, (), 4)

    def test_is_matching(self):
        good = rel("M", [(1, 2), (2, 3), (3, 1)], n=3)
        assert good.is_matching()
        short = rel("M", [(1, 2)], n=3)
        assert not short.is_matching()
        repeated = rel("M", [(1, 2), (2, 2), (3, 1)], n=3)
        assert not repeated.is_matching()
        assert rel("M", [(1,), (2,), (3,)], n=3).is_matching()


class TestValidation:
    def test_domain_checked(self):
        with pytest.raises(DataError, match="outside domain"):
            ColumnarRelation.from_rows("R", [(1, 9)], domain_size=3)
        with pytest.raises(DataError, match="outside domain"):
            ColumnarRelation.from_rows("R", [(0, 1)], domain_size=3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError, match="arity"):
            ColumnarRelation.from_rows(
                "R", [(1, 2), (1,)], domain_size=3
            )

    def test_empty_needs_explicit_arity(self):
        with pytest.raises(DataError, match="infer arity"):
            ColumnarRelation.from_rows("R", [], domain_size=3)
        empty = ColumnarRelation.from_rows("R", [], domain_size=3, arity=2)
        assert len(empty) == 0
        assert list(empty.rows()) == []


class TestSortedUniqueRows:
    @given(drawn=int64_tables())
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_unique(self, drawn):
        table, layout = drawn
        if layout != "contiguous" and min(table.shape) > 1:
            assert not table.flags.c_contiguous
        assert_matches_numpy_unique(table)

    @pytest.mark.parametrize(
        "columns, lexsorted",
        [
            # Small spans pack into one key; a constant column is none.
            ([[3, 1, 3, 1], [1, 2, 1, 2], [5, 5, 1, 5], [2, 2, 2, 2]], []),
            # One column spans 2**64: a raw key between two packed ones.
            ([[2, 1, 2, 1], [INT64.max, INT64.min, INT64.max, -1],
              [0, 7, 0, 7]], [3]),
            # Two columns of span 2**40 + 1 exceed 2**63 together.
            ([[2**40, 0, 2**40, 0], [0, 2**40, 0, 5]], [2]),
            # Two keys, but no rows tie on the leading one.
            ([[0, 2**40, 1], [5, 0, 2**40]], []),
        ],
    )
    def test_key_splits_match_numpy_unique(
        self, monkeypatch, columns, lexsorted
    ):
        calls = []
        lexsort = numpy.lexsort

        def spy(keys, *args, **kwargs):
            calls.append(len(keys))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(numpy, "lexsort", spy)
        assert_matches_numpy_unique(
            numpy.array(columns, dtype=numpy.int64).T
        )
        assert calls == lexsorted

    @pytest.mark.parametrize("num_rows", [0, 1])
    @pytest.mark.parametrize("arity", [1, 9])
    def test_tiny_tables_are_copied(self, num_rows, arity):
        table = numpy.arange(num_rows * arity, dtype=numpy.int64).reshape(
            num_rows, arity
        )
        assert_matches_numpy_unique(table)
        assert not numpy.shares_memory(sorted_unique_rows(table), table)


#: Probe values at both int64 ends and around zero.
PROBE_VALUES = st.sampled_from([INT64.min, -3, -1, 0, 1, 2, 5, INT64.max])


def _table(rows, arity):
    return numpy.array(rows, dtype=numpy.int64).reshape(len(rows), arity)


class TestSortedTableProbes:
    """``locate_rows`` / ``absent_rows`` / ``insert_rows`` /
    ``remove_rows`` against Python tuple order, which is the signed
    lexicographic order."""

    @given(
        arity=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_probes_match_python_tuples(self, arity, data):
        row = st.tuples(*[PROBE_VALUES] * arity)
        reference_rows = data.draw(st.lists(row, max_size=12))
        probe_rows = data.draw(st.lists(row, max_size=12))
        reference = sorted_unique_rows(_table(reference_rows, arity))
        ordered = sorted(set(reference_rows))
        probes = _table(probe_rows, arity)
        positions, present = locate_rows(reference, probes)
        assert positions.tolist() == [
            sum(stored < probe for stored in ordered) for probe in probe_rows
        ]
        assert present.tolist() == [
            probe in set(ordered) for probe in probe_rows
        ]
        assert absent_rows(probes, reference).tolist() == [
            list(probe) for probe in probe_rows if probe not in set(ordered)
        ]
        merged, fresh, inserted_at = insert_rows(reference, [probes])
        union = sorted(set(reference_rows) | set(probe_rows))
        assert merged.tolist() == [list(r) for r in union]
        assert fresh.tolist() == [
            list(r) for r in sorted(set(probe_rows) - set(ordered))
        ]
        assert numpy.array_equal(
            numpy.insert(reference, inserted_at, fresh, axis=0), merged
        )
        if not len(fresh):
            assert merged is reference

    @given(
        arity=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_remove_rows_matches_python_sets(self, arity, data):
        """Held rows leave, absent ones are ignored; width-0 rows are
        all the one empty row, and an empty probe removes nothing."""
        row = st.tuples(*[PROBE_VALUES] * arity)
        reference_rows = data.draw(st.lists(row, max_size=12))
        held = (
            data.draw(st.lists(st.sampled_from(reference_rows), max_size=6))
            if reference_rows
            else []
        )
        probe_rows = data.draw(
            st.permutations(held + data.draw(st.lists(row, max_size=6)))
        )
        reference = sorted_unique_rows(_table(reference_rows, arity))
        kept, removed = remove_rows(reference, _table(probe_rows, arity))
        expected = sorted(set(reference_rows) - set(probe_rows))
        assert kept.shape == (len(expected), arity)
        assert kept.tolist() == [list(r) for r in expected]
        assert numpy.array_equal(
            numpy.delete(reference, removed, axis=0), kept
        )
        if not set(reference_rows) & set(probe_rows):
            assert kept is reference


class TestFrequentValues:
    """``frequent_values`` against a ``Counter`` of the column, and its
    memo's size bound."""

    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 30)), max_size=40
        ),
        threshold=st.integers(1, 12),
    )
    @example(rows=[], threshold=1)  # empty relation
    @example(rows=[(1, 1), (1, 2), (2, 1)], threshold=1)
    @example(  # every count equal
        rows=[(a, b) for a in (1, 2, 3) for b in (1, 2)], threshold=1
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_counter(self, rows, threshold):
        relation = ColumnarRelation.from_rows(
            "R", rows, domain_size=30, arity=2
        )
        for position in range(2):
            values, counts = relation.frequent_values(position, threshold)
            expected = sorted(
                (value, count)
                for value, count in Counter(
                    relation.columns[position].tolist()
                ).items()
                if count > threshold
            )
            assert list(zip(values.tolist(), counts.tolist())) == expected
            assert len(values) <= len(relation) // threshold
            # Memoized: the second call returns the same arrays.
            again = relation.frequent_values(position, threshold)
            assert again[0] is values and again[1] is counts


class TestAccounting:
    def test_size_bits(self):
        relation = rel(rows=[(1, 2), (3, 4)], n=4)  # 2 bits/value
        assert relation.tuple_bits == 4
        assert relation.size_bits == 8


class TestDatabase:
    def test_from_relations_keeps_each_domain(self):
        database = ColumnarDatabase.from_relations(
            [rel("R", [(1, 2)], n=2), rel("S", [(3, 4)], n=4)]
        )
        assert database.domain_size == 4
        assert database["R"].domain_size == 2
        assert database.total_bits == 1 * 2 + 2 * 2

    def test_name_key_consistency_checked(self):
        with pytest.raises(DataError, match="relation key"):
            ColumnarDatabase(relations={"X": rel("R")}, domain_size=4)

    def test_domain_consistency_checked(self):
        with pytest.raises(DataError, match="domain"):
            ColumnarDatabase(relations={"R": rel("R", n=8)}, domain_size=4)

    def test_totals(self):
        database = ColumnarDatabase.from_relations(
            [rel("R", [(1, 2), (2, 1)], n=4), rel("S", [(1, 1)], n=4)]
        )
        assert sum(map(len, database)) == 3
        assert database.total_bits == 3 * 4

    def test_iteration_and_membership(self):
        database = ColumnarDatabase.from_relations(
            [rel("R"), rel("S", [(1, 1)])]
        )
        assert "R" in database
        assert "Z" not in database
        assert {r.name for r in database} == {"R", "S"}
        assert len(database) == 2
