"""Unit tests for columnar relation storage and conversions."""

from __future__ import annotations

import numpy
import pytest

from repro.data.columnar import ColumnarRelation, columnar_database
from repro.data.database import Database, DataError, Relation


@pytest.fixture
def relation():
    return Relation.from_tuples(
        "R", [(3, 1), (1, 2), (2, 3), (1, 2)], domain_size=3
    )


class TestConversion:
    def test_round_trip(self, relation):
        columnar = ColumnarRelation.from_relation(relation)
        assert columnar.to_relation() == relation

    def test_relation_to_columnar_method(self, relation):
        assert relation.to_columnar().to_relation() == relation

    def test_rows_sorted_and_deduped(self):
        columnar = ColumnarRelation.from_rows(
            "R", [(2, 2), (1, 1), (2, 2)], domain_size=2
        )
        assert list(columnar.rows()) == [(1, 1), (2, 2)]
        assert len(columnar) == 2

    def test_columns_are_int64_arrays(self):
        columnar = ColumnarRelation(
            name="R", arity=2, columns=([1, 2], [3, 4]), domain_size=4
        )
        for column in columnar.columns:
            assert isinstance(column, numpy.ndarray)
            assert column.dtype == numpy.int64
        assert list(columnar.rows()) == [(1, 3), (2, 4)]

    def test_database_to_columnar(self, relation):
        database = Database.from_relations([relation])
        columnar = database.to_columnar()
        assert set(columnar) == {"R"}
        assert columnar["R"].to_relation() == database["R"]
        assert {
            name: list(value.rows())
            for name, value in columnar_database(database).items()
        } == {"R": list(columnar["R"].rows())}


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


class TestAccounting:
    def test_bit_accounting_matches_row_relation(self, relation):
        columnar = ColumnarRelation.from_relation(relation)
        assert columnar.tuple_bits == relation.tuple_bits
        assert columnar.size_bits == relation.size_bits
