"""Held reads: a query whose answer the session already holds is
answered on the event loop, without a trip to the dispatch thread.

A read is held when its planner decision is current and the plan and
result caches hold its outcome at this version.  Everything else -- a
miss, an IVM merge, explain, update, stats -- still runs on the one
dispatch thread, and a held read counts the same hits a dispatched one
does.
"""

from __future__ import annotations

import asyncio
import json
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.api.session import Statement
from repro.data.generators import matching_database
from repro.serve.rpc import RpcServer, encode_line
from tests.serve.test_rpc import VOCAB, _Client, _session, rpc_test

QUERY = {"op": "query", "q": "S1(x,y), S2(y,z)"}


def _count_submissions(server: RpcServer) -> list[int]:
    """A one-item list counting what ``server`` hands its dispatch
    thread from now on."""
    submitted = [0]
    submit = server._pool.submit

    def counting(*args, **kwargs):
        submitted[0] += 1
        return submit(*args, **kwargs)

    server._pool.submit = counting
    return submitted


def _hits(session) -> tuple[int, int, int]:
    return (
        session.stats.result_hits,
        session.stats.plans.hits,
        session.planner_stats.decision_cache_hits,
    )


class TestDispatch:
    def test_only_a_held_read_skips_the_dispatch_thread(self):
        async def body():
            async with RpcServer(_session()) as server:
                submitted = _count_submissions(server)
                client = await _Client.open(server)

                async def call(request):
                    before, held = submitted[0], server.stats.held
                    response = await client.call(request)
                    assert response["ok"], response
                    return response, submitted[0] - before, (
                        server.stats.held - held
                    )

                miss, submits, held = await call(QUERY)
                assert (submits, held) == (1, 0)
                assert not miss["result_hit"]
                hit, submits, held = await call(QUERY)
                assert (submits, held) == (0, 1)
                assert hit["result_hit"] and hit["plan_hit"]
                assert hit["answers"] == miss["answers"]
                assert not hit["coalesced"]

                for request in (
                    {"op": "explain", "q": QUERY["q"]},
                    {"op": "update", "relation": "S1", "rows": [[1, 60]]},
                ):
                    _, submits, held = await call(request)
                    assert (submits, held) == (1, 0)
                merged, submits, held = await call(QUERY)
                assert (submits, held) == (1, 0)
                assert merged["version"] == 1 and not merged["result_hit"]
                hit, submits, held = await call(QUERY)
                assert (submits, held) == (0, 1)
                assert hit["answers"] == merged["answers"]

                stats, submits, held = await call({"op": "stats"})
                assert (submits, held) == (1, 0)
                assert stats["rpc"]["held"] == 2
                assert server.session.stats.ivm_hits == 1
                await client.close()

        rpc_test(body())

    def test_a_held_read_takes_no_admission_slot(self):
        async def body():
            async with RpcServer(
                _session(), max_inflight=1, max_queue=0
            ) as server:
                client = await _Client.open(server)
                for _ in range(3):
                    assert (await client.call(QUERY))["ok"]
                assert server.admission.stats.admitted == 1
                assert server.stats.held == 2
                await client.close()

        rpc_test(body())

    def test_a_streamed_held_read_sends_the_same_batches(self):
        async def body():
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                request = {**QUERY, "stream": True, "batch": 25}
                replies = []
                for _ in range(2):
                    await client.send_text(json.dumps(request))
                    lines = [await client.recv()]
                    while "done" not in lines[-1]:
                        lines.append(await client.recv())
                    replies.append(lines)
                first, second = replies
                assert [line.get("batch") for line in first] == [
                    line.get("batch") for line in second
                ]
                assert second[-1]["result_hit"]
                assert server.stats.held == 1
                await client.close()

        rpc_test(body())

    def test_a_busy_session_falls_back_and_the_loop_stays_live(self):
        async def body():
            session = _session()
            async with RpcServer(session) as server:
                client = await _Client.open(server)
                warm = await client.call(QUERY)
                submitted = _count_submissions(server)
                locked, release = threading.Event(), threading.Event()

                def hold_the_lock():
                    with session._lock:
                        locked.set()
                        release.wait(10)

                holder = threading.Thread(target=hold_the_lock)
                holder.start()
                try:
                    assert locked.wait(10)
                    read = asyncio.create_task(client.call(QUERY))
                    other = await _Client.open(server)
                    assert (await other.call({"op": "ping"}))["pong"]
                    assert not read.done()
                    await other.close()
                finally:
                    release.set()
                    holder.join()
                reply = await read
                assert reply["result_hit"]
                assert reply["answers"] == warm["answers"]
                assert submitted[0] == 1
                assert server.stats.held == 0
                await client.close()

        rpc_test(body())


class TestCounters:
    def test_held_reads_count_what_dispatched_reads_count(self):
        reads = 5

        async def body():
            session = _session()
            async with RpcServer(session) as server:
                client = await _Client.open(server)
                await client.call(QUERY)
                before = _hits(session)
                for _ in range(reads):
                    assert (await client.call(QUERY))["result_hit"]
                assert server.stats.held == reads
                after = _hits(session)
                assert [b - a for a, b in zip(before, after)] == [reads] * 3
                await client.close()

        rpc_test(body())

    def test_the_probe_counts_nothing_and_moves_no_entry(self):
        session = _session()
        first = session.query("S1(x,y), S2(y,z)")
        second = session.query("S2(x,y), S3(y,z)")
        assert first.held() is None  # nothing memoized yet
        first.execute()
        second.execute()
        order = list(session._decisions._entries)
        before = _hits(session)
        assert session._holds(first) and session._holds(second)
        assert _hits(session) == before
        assert list(session._decisions._entries) == order
        assert session.query("S3(x,y)").held() is None
        assert _hits(session) == before
        assert first.held().cached
        assert [b - a for a, b in zip(before, _hits(session))] == [1] * 3

    def test_a_write_unholds_the_answer(self):
        session = _session()
        statement = session.query("S1(x,y), S2(y,z)")
        statement.execute()
        assert statement.held() is not None
        session.update(inserts={"S1": [(1, 60)]})
        assert statement.held() is None
        assert not statement.execute().cached
        assert statement.held().version == 1


class TestCapacityFailure:
    def test_a_memoized_failure_replies_the_same_inline(self, monkeypatch):
        async def replies():
            session = connect(
                matching_database(VOCAB, n=40, rng=7),
                p=8,
                capacity_c=0.001,
                enforce_capacity=True,
            )
            async with RpcServer(session) as server:
                submitted = _count_submissions(server)
                client = await _Client.open(server)
                fresh = await client.call(QUERY)
                inline = await client.call(QUERY)
                assert submitted[0] == 1
                with monkeypatch.context() as patch:
                    patch.setattr(Statement, "held", lambda self: None)
                    dispatched = await client.call(QUERY)
                assert submitted[0] == 2
                await client.close()
                return fresh, inline, dispatched

        fresh, inline, dispatched = rpc_test(replies())
        assert fresh["error_type"] == "CapacityExceeded"
        assert fresh == inline == dispatched


def _parent_encode_line(payload: dict) -> bytes:
    """The per-key formula ``encode_line`` replaced."""
    return b"{%s}\n" % b",".join(
        json.dumps(key).encode()
        + b":"
        + (
            value
            if isinstance(value, bytes)
            else json.dumps(value, separators=(",", ":")).encode()
        )
        for key, value in payload.items()
    )


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(max_size=6), st.binary(max_size=12) | _JSON),
        max_size=8,
    )
)
def test_encode_line_matches_the_per_key_formula(items):
    payload = dict(items)
    assert encode_line(payload) == _parent_encode_line(payload)
