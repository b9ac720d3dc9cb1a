"""Unit tests for the versioned mutating database."""

from __future__ import annotations

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro import connect
from repro.core.families import line_query
from repro.core.query import parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation, DataError
from repro.data.generators import matching_database, matching_database_columnar
from repro.data.versioned import (
    DELTA_HISTORY_LIMIT,
    DatabaseDelta,
    VersionedDatabase,
)

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

    def test_initial_version_keyword_is_rejected(self):
        with pytest.raises(TypeError, match="initial_version"):
            VersionedDatabase(_versioned().snapshot, initial_version=3)


class TestDoorCheck:
    """The door validates what it is handed: every value in the
    relation's domain, rows sorted and distinct.  Writes keep it so."""

    @pytest.mark.parametrize(
        "columns, fault",
        [
            (([5, 1, 5], [1, 1, 1]), "value 5 outside domain"),
            (([1, 0], [1, 2]), "value 0 outside domain"),
            (([2, 1], [1, 1]), "unsorted row at position 1"),
            (([1, 1, 2], [2, 1, 1]), "unsorted row at position 1"),
            (([1, 2, 2], [1, 2, 2]), "duplicate row at position 2"),
        ],
        ids=["above", "below", "unsorted", "unsorted-tie", "duplicated"],
    )
    def test_connect_rejects_an_invalid_relation(self, columns, fault):
        relation = ColumnarRelation("R", 2, columns, 2)
        with pytest.raises(DataError, match=f"^R: {fault}"):
            connect({"R": relation}, p=4)
        with pytest.raises(DataError, match=f"^R: {fault}"):
            VersionedDatabase(ColumnarDatabase({"R": relation}, 5))

    def test_valid_relations_pass_and_writes_keep_them_valid(self):
        versioned = _versioned()
        empty = ColumnarRelation("E", 1, ([],), 3)
        VersionedDatabase({"S1": versioned["S1"], "E": empty})
        versioned.update(
            inserts={"S1": [(20, 1), (3, 3)], "S3": [(2, 2), (1, 9)]},
            deletes={"S2": [(1, 1), next(versioned["S2"].rows())]},
        )
        for relation in versioned:
            relation.validate()


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
        assert not delta.inserts and not delta.deletes
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


    def test_writes_rebuild_only_touched_relations(self):
        """Untouched relations stay the same object, so their memoized
        heavy-value counts carry over; touched ones start without."""
        versioned = _versioned()
        for relation in versioned:
            relation.frequent_values(0, 1)
        before = versioned.snapshot
        versioned.update(inserts={"S1": [(1, 2)]})
        assert versioned["S2"] is before["S2"]
        assert versioned["S2"]._frequent
        assert versioned["S1"] is not before["S1"]
        assert not versioned["S1"]._frequent


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
        versioned = _versioned()
        for step in range(DELTA_HISTORY_LIMIT + 2):
            versioned.update(inserts={"S1": [(700 + step, 1)]})
        assert versioned.delta_between(0, versioned.version) is None
        # Recent versions are still covered.
        recent = versioned.delta_between(
            versioned.version - 2, versioned.version
        )
        assert recent is not None
        assert {name: rows for name, rows in recent.added.items() if rows} == {
            "S1": frozenset(
                {(700 + DELTA_HISTORY_LIMIT, 1), (701 + DELTA_HISTORY_LIMIT, 1)}
            )
        }
        assert not any(recent.removed.values())

    def test_bits_changed_on_domain_growth(self):
        versioned = _versioned()
        n = versioned.domain_size
        versioned.update(inserts={"S1": [(n + 100, 1)]})
        assert versioned.last_record.bits_changed

    def test_bits_changed_on_new_relation(self):
        versioned = _versioned()
        versioned.update(inserts={"R": [(1, 2, 3)]})
        assert versioned.last_record.bits_changed


def _assert_unchanged(versioned, snapshot, version):
    assert versioned.version == version
    assert versioned.snapshot is snapshot


class TestNoCoercion:
    """Delta values are integers or nothing: the RPC's rule, in the
    Python API too (a rejected delta commits nothing)."""

    def test_float_insert_is_rejected_not_truncated(self):
        versioned = _versioned()
        snapshot = versioned.snapshot
        with pytest.raises(DataError, match="non-integer"):
            versioned.update(inserts={"S1": [(2.9, 1)]})
        _assert_unchanged(versioned, snapshot, 0)

    def test_rejected_insert_leaves_no_provenance(self):
        # Coercing (2.9, 1) to (2, 1) while recording (2.9, 1) made a
        # later delete of (2, 1) compose to a change that never was.
        versioned = _versioned()
        with pytest.raises(DataError):
            versioned.update(inserts={"S1": [(2.9, 1)]})
        assert versioned.last_record is None
        versioned.update(inserts={"S1": [(2, 1)]})
        versioned.update(deletes={"S1": [(2, 1)]})
        composed = versioned.delta_between(0, versioned.version)
        assert composed is not None and composed.is_noop

    def test_string_value_is_a_data_error(self):
        versioned = _versioned()
        snapshot = versioned.snapshot
        with pytest.raises(DataError, match="non-integer"):
            versioned.update(inserts={"S1": [("3", 1)]})
        _assert_unchanged(versioned, snapshot, 0)

    def test_bool_value_is_rejected(self):
        versioned = _versioned()
        snapshot = versioned.snapshot
        with pytest.raises(DataError, match="non-integer"):
            versioned.update(inserts={"S1": [(True, 2)]})
        _assert_unchanged(versioned, snapshot, 0)

    def test_non_integer_delete_is_rejected(self):
        versioned = _versioned()
        snapshot = versioned.snapshot
        with pytest.raises(DataError, match="non-integer"):
            versioned.update(deletes={"S1": [(1.0, 2)]})
        _assert_unchanged(versioned, snapshot, 0)

    def test_numpy_integers_are_stored_and_recorded_as_ints(self):
        versioned = _versioned()
        versioned.update(
            inserts={"S1": [(numpy.int32(500), numpy.int64(501))]}
        )
        (row,) = versioned.last_record.added["S1"]
        assert row == (500, 501)
        assert all(type(value) is int for value in row)
        assert row in set(versioned["S1"].rows())

    def test_value_beyond_int64_is_a_data_error(self):
        versioned = _versioned()
        snapshot = versioned.snapshot
        with pytest.raises(DataError):
            versioned.update(inserts={"S1": [(2**63, 1)]})
        _assert_unchanged(versioned, snapshot, 0)

    def test_insert_below_one_is_rejected(self):
        versioned = _versioned()
        snapshot = versioned.snapshot
        with pytest.raises(DataError, match="outside domain"):
            versioned.update(inserts={"S1": [(0, 1)]})
        _assert_unchanged(versioned, snapshot, 0)


class TestDeleteArity:
    @pytest.mark.parametrize("row", [(1, 2, 3), (1,)])
    def test_wrong_arity_delete_is_rejected(self, row):
        versioned = _versioned()
        snapshot = versioned.snapshot
        with pytest.raises(DataError) as caught:
            versioned.update(deletes={"S1": [row]})
        message = str(caught.value)
        assert message.startswith("S1:")
        assert f"arity {len(row)}, expected 2" in message
        _assert_unchanged(versioned, snapshot, 0)

    def test_bad_delete_rolls_back_a_good_insert(self):
        versioned = _versioned()
        snapshot = versioned.snapshot
        with pytest.raises(DataError, match="S2"):
            versioned.update(
                inserts={"S1": [(500, 501)]}, deletes={"S2": [(1, 2, 3)]}
            )
        _assert_unchanged(versioned, snapshot, 0)
        assert (500, 501) not in set(versioned["S1"].rows())


class TestColumnSpaceWrites:
    def test_large_writes_never_materialise_rows(self, monkeypatch):
        versioned = VersionedDatabase(
            matching_database_columnar(line_query(8), n=48000, seed=3)
        )
        before = {
            relation.name: [column.copy() for column in relation.columns]
            for relation in versioned
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("the write path built row tuples")

        monkeypatch.setattr(ColumnarRelation, "rows", forbidden)
        monkeypatch.setattr(ColumnarRelation, "from_rows", forbidden)
        present = (
            int(versioned["S3"].columns[0][17]),
            int(versioned["S3"].columns[1][17]),
        )
        versioned.update(inserts={"S3": [(48000, 48000)]})
        versioned.update(deletes={"S3": [present]})
        versioned.update(
            inserts={"S3": [present]}, deletes={"S3": [(48000, 48000)]}
        )
        assert versioned.version == 3
        assert versioned.delta_between(0, 3).is_noop
        for relation in versioned:
            for column, original in zip(
                relation.columns, before[relation.name]
            ):
                assert column.dtype == numpy.int64
                assert column.flags.c_contiguous
                assert numpy.array_equal(column, original)


#: Relation name -> arity of the property test's vocabulary: ``S1``
#: exists from the start, ``R`` is created by its first insert.
ARITIES = {"S1": 2, "R": 1}
START_DOMAIN = 6


def _net(old, new):
    """Per-relation (added, removed) between two model states."""
    added, removed = {}, {}
    for name in set(old) | set(new):
        before, after = old.get(name, set()), new.get(name, set())
        if after - before:
            added[name] = frozenset(after - before)
        if before - after:
            removed[name] = frozenset(before - after)
    return added, removed


def _nonempty(mapping):
    return {name: rows for name, rows in mapping.items() if rows}


class TestWritePathModel:
    """The write path against a dict-of-sets model: snapshots, records
    and composed spans."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_set_model(self, data):
        value = st.integers(1, START_DOMAIN + 3)  # some inserts grow it
        rows_of = {
            name: st.tuples(*[value] * arity)
            for name, arity in ARITIES.items()
        }
        start = data.draw(
            st.lists(
                st.tuples(*[st.integers(1, START_DOMAIN)] * 2),
                min_size=1,
                max_size=8,
            )
        )
        versioned = VersionedDatabase(
            {
                "S1": ColumnarRelation.from_rows(
                    "S1", start, domain_size=START_DOMAIN
                )
            }
        )
        model = {"S1": set(start)}
        domains = {"S1": START_DOMAIN}
        states = [{name: set(rows) for name, rows in model.items()}]
        bits = []
        for _ in range(data.draw(st.integers(1, 6))):
            inserts, deletes = {}, {}
            for name in ARITIES:
                new_rows = data.draw(st.lists(rows_of[name], max_size=3))
                # Duplicate inserts, and rows both inserted and deleted.
                new_rows += data.draw(
                    st.lists(st.sampled_from(new_rows), max_size=2)
                ) if new_rows else []
                gone = data.draw(st.lists(rows_of[name], max_size=2))
                stored = sorted(model.get(name, ()))
                if stored:
                    gone += data.draw(
                        st.lists(st.sampled_from(stored), max_size=2)
                    )
                if new_rows:
                    gone += data.draw(
                        st.lists(st.sampled_from(new_rows), max_size=1)
                    )
                    inserts[name] = new_rows
                if gone:
                    deletes[name] = gone
            old_version = versioned.version
            if any(
                name not in model and name not in inserts
                for name in deletes
            ):
                snapshot = versioned.snapshot
                with pytest.raises(DataError, match="unknown relation"):
                    versioned.update(inserts=inserts, deletes=deletes)
                _assert_unchanged(versioned, snapshot, old_version)
                continue
            old = {name: set(rows) for name, rows in model.items()}
            old_domain = max(domains.values())
            changed_bits = False
            for name in set(inserts) | set(deletes):
                rows = model.setdefault(name, set())
                rows -= set(deletes.get(name, ())) - set(
                    inserts.get(name, ())
                )
                rows |= set(inserts.get(name, ()))
                peak = max(
                    (v for row in inserts.get(name, ()) for v in row),
                    default=1,
                )
                if peak > domains.get(name, 0):  # created, or grown
                    changed_bits = True
                    domains[name] = peak
            changed_bits |= max(domains.values()) != old_domain

            version = versioned.update(inserts=inserts, deletes=deletes)
            assert version == old_version + 1
            for name, rows in model.items():
                relation = versioned[name]
                assert relation.domain_size == domains[name]
                assert list(relation.rows()) == sorted(rows)
                for column in relation.columns:
                    assert column.dtype == numpy.int64
                    assert column.flags.c_contiguous
            assert versioned.domain_size == max(domains.values())

            record = versioned.last_record
            added, removed = _net(old, model)
            assert record.added == added
            assert record.removed == removed
            assert record.bits_changed == changed_bits
            bits.append(changed_bits)
            states.append({name: set(rows) for name, rows in model.items()})

            for first in range(
                max(0, version - DELTA_HISTORY_LIMIT), version + 1
            ):
                composed = versioned.delta_between(first, version)
                added, removed = _net(states[first], model)
                assert _nonempty(composed.added) == added
                assert _nonempty(composed.removed) == removed
                assert composed.bits_changed == any(bits[first:version])
