"""Unit tests for the versioned mutating database."""

from __future__ import annotations

import pytest

from repro.core.query import parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.database import DataError
from repro.data.matching import matching_database
from repro.data.versioned import DatabaseDelta, VersionedDatabase

VOCAB = parse_query("S1(x,y), S2(y,z)")


def _versioned(n=20):
    return VersionedDatabase(matching_database(VOCAB, n=n, rng=1))


class TestConstruction:
    def test_wraps_row_database(self):
        versioned = _versioned()
        assert versioned.version == 0
        assert isinstance(versioned.snapshot, ColumnarDatabase)
        assert set(r.name for r in versioned) == {"S1", "S2"}
        assert len(versioned) == 2
        assert "S1" in versioned

    def test_wraps_columnar_mapping(self):
        relation = ColumnarRelation.from_rows(
            "R", [(1, 2), (2, 3)], domain_size=5
        )
        versioned = VersionedDatabase({"R": relation})
        assert versioned.domain_size == 5
        assert versioned.total_bits == relation.size_bits


class TestDeltas:
    def test_insert_bumps_version_and_contents(self):
        versioned = _versioned()
        old_snapshot = versioned.snapshot
        rows_before = set(old_snapshot["S1"].rows())
        version = versioned.update(inserts={"S1": [(1, 2)]})
        assert version == 1 and versioned.version == 1
        assert set(versioned["S1"].rows()) == rows_before | {(1, 2)}
        # Snapshots are immutable values: the old one is untouched.
        assert set(old_snapshot["S1"].rows()) == rows_before

    def test_delete_is_idempotent(self):
        versioned = _versioned()
        row = next(iter(versioned["S1"].rows()))
        versioned.update(deletes={"S1": [row]})
        assert row not in set(versioned["S1"].rows())
        versioned.update(deletes={"S1": [row]})  # absent: no error
        assert versioned.version == 2

    def test_insert_grows_domain_and_bits(self):
        versioned = _versioned()
        bits_before = versioned.total_bits
        n = versioned.domain_size
        versioned.update(inserts={"S1": [(n + 100, 1)]})
        assert versioned.domain_size == n + 100
        assert versioned.total_bits != bits_before

    def test_new_relation_via_insert(self):
        versioned = _versioned()
        versioned.update(inserts={"R": [(1, 2, 3)]})
        assert versioned["R"].arity == 3

    def test_delete_from_unknown_relation_errors(self):
        versioned = _versioned()
        with pytest.raises(DataError, match="unknown"):
            versioned.update(deletes={"nope": [(1,)]})

    def test_empty_delta_still_bumps_version(self):
        versioned = _versioned()
        delta = DatabaseDelta.of()
        assert delta.is_empty
        assert versioned.apply_delta(delta) == 1

    def test_ragged_insert_rejected(self):
        versioned = _versioned()
        with pytest.raises(DataError):
            versioned.update(inserts={"S1": [(1, 2, 3)]})

    def test_inserts_deduplicate_against_existing(self):
        versioned = _versioned()
        row = next(iter(versioned["S1"].rows()))
        size = len(versioned["S1"])
        versioned.update(inserts={"S1": [row]})
        assert len(versioned["S1"]) == size


class TestDeltaEdgeSemantics:
    """The pinned edge cases of DatabaseDelta (see its docstring)."""

    def test_delete_nonexistent_row_is_noop(self):
        versioned = _versioned()
        rows = set(versioned["S1"].rows())
        versioned.update(deletes={"S1": [(9999, 9999)]})
        assert set(versioned["S1"].rows()) == rows
        record = versioned.last_record
        assert record.is_noop
        assert record.removed == {}

    def test_duplicate_inserts_collapse(self):
        versioned = _versioned()
        size = len(versioned["S1"])
        versioned.update(inserts={"S1": [(500, 501), (500, 501)]})
        assert len(versioned["S1"]) == size + 1
        assert versioned.last_record.added["S1"] == frozenset(
            {(500, 501)}
        )

    def test_insert_and_delete_same_row_keeps_it(self):
        # Insert wins: deletes filter the old snapshot, then inserts
        # are added on top.
        versioned = _versioned()
        versioned.update(
            inserts={"S1": [(500, 501)]}, deletes={"S1": [(500, 501)]}
        )
        assert (500, 501) in set(versioned["S1"].rows())
        record = versioned.last_record
        assert record.added["S1"] == frozenset({(500, 501)})
        assert record.removed == {}

    def test_delete_then_reinsert_existing_row_is_noop(self):
        versioned = _versioned()
        row = next(iter(versioned["S1"].rows()))
        versioned.update(
            inserts={"S1": [row]}, deletes={"S1": [row]}
        )
        assert row in set(versioned["S1"].rows())
        assert versioned.last_record.is_noop


class TestProvenance:
    """DeltaRecord history and delta composition."""

    def test_records_effective_delta_only(self):
        versioned = _versioned()
        existing = next(iter(versioned["S1"].rows()))
        # Fresh rows within the current domain: no bit-width change.
        absent = (
            (a, b)
            for a in range(1, versioned.domain_size + 1)
            for b in range(1, versioned.domain_size + 1)
            if (a, b) not in set(versioned["S1"].rows())
        )
        fresh, ghost = next(absent), next(absent)
        versioned.update(
            inserts={"S1": [existing, fresh]},
            deletes={"S1": [ghost]},
        )
        record = versioned.last_record
        assert record.old_version == 0 and record.new_version == 1
        assert record.added == {"S1": frozenset({fresh})}
        assert record.removed == {}
        assert not record.bits_changed

    def test_delta_between_composes_insert_then_delete(self):
        versioned = _versioned()
        versioned.update(inserts={"S1": [(600, 601)]})
        versioned.update(deletes={"S1": [(600, 601)]})
        composed = versioned.delta_between(0, 2)
        assert composed.is_noop

    def test_delta_between_composes_delete_then_reinsert(self):
        versioned = _versioned()
        row = next(iter(versioned["S1"].rows()))
        versioned.update(deletes={"S1": [row]})
        versioned.update(inserts={"S1": [row]})
        composed = versioned.delta_between(0, 2)
        assert composed.is_noop

    def test_delta_between_same_version_is_empty(self):
        versioned = _versioned()
        versioned.update(inserts={"S1": [(600, 601)]})
        composed = versioned.delta_between(1, 1)
        assert composed is not None and composed.is_noop

    def test_delta_between_gap_returns_none(self):
        from repro.data.versioned import DELTA_HISTORY_LIMIT

        versioned = _versioned()
        for step in range(DELTA_HISTORY_LIMIT + 2):
            versioned.update(inserts={"S1": [(700 + step, 1)]})
        assert versioned.delta_between(0, versioned.version) is None
        # Recent versions are still covered.
        recent = versioned.delta_between(
            versioned.version - 2, versioned.version
        )
        assert recent is not None and recent.change_count() == 2

    def test_bits_changed_on_domain_growth(self):
        versioned = _versioned()
        n = versioned.domain_size
        versioned.update(inserts={"S1": [(n + 100, 1)]})
        assert versioned.last_record.bits_changed

    def test_bits_changed_on_new_relation(self):
        versioned = _versioned()
        versioned.update(inserts={"R": [(1, 2, 3)]})
        assert versioned.last_record.bits_changed
