"""A merged read's reply is derived from the previous reply's bytes.

After a merge, the answers in plan head order carry the previous
version's reply JSON and the splice from its table; building their
JSON copies the kept rows' bytes and encodes only the inserted rows.
Every reply must still be byte for byte ``encode_answers(result.table)``
whatever happened between the two versions.
"""

from __future__ import annotations

import json

import pytest

import tests.serve.test_ivm as ivm_tests
from repro import connect
from repro.core.families import cycle_query
from repro.core.query import parse_query
from repro.data.generators import matching_database, matching_database_columnar
from repro.data.versioned import DatabaseDelta
from repro.engine.deadline import Deadline, DeadlineExceeded
from repro.mpc.simulator import CapacityExceeded
from repro.serve import service
from repro.serve.service import encode_answers
from tests.conftest import ivm_policy, statement_deadline

#: The nine pairwise non-isomorphic shapes of the IVM benchmark.
IVM_SHAPES = (
    "S1(x,y)",
    "S1(x,y), S2(y,z)",
    "S1(x,y), S2(x,z)",
    "S1(x,y), S3(y,x)",
    "S1(x,y), S2(x,y)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S1(x,y), S2(y,z), S3(z,w)",
    "S1(x,y), S2(y,z), S3(y,w)",
    "S1(x,y), S2(x,z), S3(x,w)",
)
VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")
PATH = "S1(x,y), S2(y,z)"
#: PATH's plan and retained state, in another head order.
PERMUTED_PATH = "q(z,y,x) = S1(x,y), S2(y,z)"


def _rows(table) -> set[tuple[int, ...]]:
    return set(map(tuple, table.tolist()))


@pytest.fixture
def encoded(monkeypatch):
    """Row counts of every table ``encode_answers`` is called on."""
    calls = []

    def counting(table):
        calls.append(len(table))
        return encode_answers(table)

    monkeypatch.setattr(service, "encode_answers", counting)
    return calls


def test_an_ivm_read_encodes_what_changed(encoded):
    session = connect(
        matching_database_columnar(cycle_query(3), 2000, seed=0), p=16
    )
    try:
        tables = {}
        for shape in IVM_SHAPES:
            result = session.execute(shape)
            assert result.answer_views.json
            tables[shape] = result.table
        existing = set(session.database["S1"].rows())
        row = next((1, b) for b in range(1, 2001) if (1, b) not in existing)
        changed_reads = 0
        for delta in ({"inserts": {"S1": [row]}}, {"deletes": {"S1": [row]}}):
            session.update(**delta)
            for shape in IVM_SHAPES:
                encoded.clear()
                result = session.execute(shape)
                assert result.ivm == "merged"
                reply = result.answer_views.json
                assert reply == json.dumps(
                    result.table.tolist(), separators=(",", ":")
                ).encode()
                changed = _rows(tables[shape]) ^ _rows(result.table)
                assert sum(encoded) <= len(changed), shape
                changed_reads += bool(changed)
                tables[shape] = result.table
        assert changed_reads >= 10
    finally:
        session.close()


def _session(n=40, **options):
    return connect(matching_database(VOCAB, n=n, rng=7), p=8, **options)


def _state(session):
    (state,) = session.ivm.store._states.values()
    return state


def _read(session, text=PATH, build=True):
    """Execute ``text``; its reply, once built, encodes its table."""
    result = session.execute(text)
    if build:
        assert result.answer_views.json == encode_answers(result.table)
    return result


def _insert(session, count=1):
    session.update(
        inserts={"S1": ivm_tests._fresh_rows(session, "S1", count)}
    )


def _derived(encoded, result):
    """Build ``result``'s reply, check it, and tell whether it was
    derived: fewer rows encoded than its table holds."""
    encoded.clear()
    assert result.answer_views.json == encode_answers(result.table)
    return sum(encoded) < len(result.table)


class TestRetainedRepliesNeverGoStale:
    def test_an_isomorphic_rebind_read_then_an_identity_read(self, encoded):
        session = _session()
        _read(session)
        _read(session, PERMUTED_PATH)
        for _ in range(2):
            _insert(session)
            assert _read(session, PERMUTED_PATH).ivm == "merged"
        # No reply in plan head order was served at the last version:
        # the first merge's reply must not survive a second one.
        _insert(session)
        merged = session.execute(PATH)
        assert merged.ivm == "merged"
        assert not _derived(encoded, merged)
        _insert(session)
        assert _read(session, PERMUTED_PATH).ivm == "merged"
        # A result-cache hit in plan head order: the merge derived it.
        hit = session.execute(PATH)
        assert hit.cached
        assert _derived(encoded, hit)

    def test_a_merge_never_encoded_then_a_second_write(self, encoded):
        session = _session()
        _read(session)
        _insert(session)
        unread = _read(session, build=False)
        assert unread.ivm == "merged"
        _insert(session)
        merged = session.execute(PATH)
        assert merged.ivm == "merged"
        # Nothing to derive from: the whole table is encoded.
        assert not _derived(encoded, merged)
        assert _derived(encoded, unread)  # built late, still right

    def test_a_noop_update(self, encoded):
        session = _session()
        _read(session)
        session.apply_delta(DatabaseDelta.of())
        _insert(session)
        merged = session.execute(PATH)
        assert merged.ivm == "merged"
        assert _derived(encoded, merged)

    def test_a_deadline_cancelled_merge(self, encoded):
        session = _session()
        _read(session)
        _insert(session, 2)
        deadline = Deadline(2500.0, clock=ivm_tests._SteppingClock(1.0))
        with statement_deadline(deadline), pytest.raises(DeadlineExceeded):
            session.execute(PATH, deadline_ms=deadline.budget_ms)
        merged = session.execute(PATH)
        assert merged.ivm == "merged"
        assert _derived(encoded, merged)

    def test_a_capacity_failure(self, encoded):
        capacity = ivm_tests.TestCapacityParity()
        served, _ = capacity._pair(capacity._calibrate())
        _read(served, ivm_tests.TWO_HOP)
        skew = list(capacity.SKEW)
        served.update(inserts={"S1": skew})
        with pytest.raises(CapacityExceeded):
            served.execute(ivm_tests.TWO_HOP)
        served.update(deletes={"S1": skew + [(1, 1)]})
        merged = served.execute(ivm_tests.TWO_HOP)
        assert merged.ivm == "merged"
        assert _derived(encoded, merged)

    def test_eviction_under_a_budget_the_reply_overflows(self):
        probe = _session(n=200)
        reply = len(_read(probe).answer_views.json)
        routed = _state(probe).nbytes
        with ivm_policy(max_bytes=routed + reply // 2):
            session = _session(n=200)
        _read(session)
        assert _state(session).nbytes == routed
        _insert(session)
        # Counting the reply the merge derives from evicts the state.
        assert _read(session).ivm == "merged"
        assert len(session.ivm.store) == 0
        _insert(session)
        assert _read(session).ivm == "no-retained-state"


def test_retained_bytes_count_the_reply_once_built():
    session = _session()
    result = session.execute(PATH)
    state = _state(session)
    routed = state.nbytes
    reply = result.answer_views.json
    assert state.recount_bytes() == routed + len(reply)
    assert session.ivm.retained_bytes == routed + len(reply)


def test_merges_keep_the_byte_count_a_recount_gives():
    """Merges move the byte count by what they replace: after a run of
    inserts and deletes, each read's reply built (and spliced, its row
    edges kept), the count equals a from-scratch recount; the reply a
    merge derives from counts with its row edges."""
    session = _session()
    _read(session)
    for step in range(6):
        if step % 3 == 2:
            victim = next(iter(session.database["S1"].rows()))
            session.update(deletes={"S1": [victim]})
        else:
            _insert(session, 2)
        previous = _state(session).answers
        result = _read(session)
        assert result.ivm == "merged"
        state = _state(session)
        assert state.reply_bytes == previous.nbytes
        # Encoded replies keep no row edges; spliced ones do.
        assert (previous.nbytes > len(previous.encoded)) == (step > 0)
        counted = state.table_bytes
        state.recount_bytes()
        assert state.table_bytes == counted
        assert state.reply_bytes == result.answer_views.nbytes
