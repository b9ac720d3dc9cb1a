"""RPC hardening on the wire: timeouts, shedding, broken clients."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import connect
from repro.core.query import parse_query
from repro.data.generators import matching_database
from repro.engine.faults import DISCONNECT_ENV, ROUND_DELAY_ENV
from repro.serve.rpc import RpcServer

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")
PATH = "S1(x,y), S2(y,z)"


def _session(n=60, **kwargs):
    return connect(matching_database(VOCAB, n=n, rng=7), p=8, **kwargs)


class _Client:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, server):
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send_text(self, text: str) -> None:
        self.writer.write(text.encode() + b"\n")
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=10)
        assert line, "server closed the connection"
        return json.loads(line)

    async def call(self, request: dict) -> dict:
        await self.send_text(json.dumps(request))
        return await self.recv()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def rpc_test(coroutine):
    return asyncio.run(coroutine)


class TestMalformedFrames:
    def test_connection_survives_a_malformed_frame(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    await client.send_text("this is not json {")
                    response = await client.recv()
                    assert not response["ok"]
                    assert "invalid json" in response["error"]
                    # Same connection, next frame: business as usual.
                    response = await client.call(
                        {"id": 2, "op": "query", "q": PATH}
                    )
                    assert response["ok"] and response["count"] == 60
                    assert server.stats.errors == 1
                    await client.close()
            finally:
                session.close()

        rpc_test(body())


class TestIdleTimeout:
    def test_idle_connection_is_notified_and_closed(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(
                    session, idle_timeout=0.2
                ) as server:
                    client = await _Client.open(server)
                    # A request inside the window works.
                    assert (await client.call({"op": "ping"}))["pong"]
                    # Then silence: the server sends one IdleTimeout
                    # notice and closes.
                    notice = await client.recv()
                    assert notice["error_type"] == "IdleTimeout"
                    assert (
                        await asyncio.wait_for(
                            client.reader.readline(), timeout=5
                        )
                        == b""
                    )
                    assert server.stats.idle_timeouts == 1
                    await client.close()
            finally:
                session.close()

        rpc_test(body())

    def test_no_timeout_by_default(self):
        session = _session()
        server = RpcServer(session)
        assert server.idle_timeout is None
        session.close()
        with pytest.raises(ValueError):
            RpcServer(_session(), idle_timeout=0)


class TestWireDeadlines:
    def test_deadline_error_is_structured(self, monkeypatch):
        monkeypatch.setenv(ROUND_DELAY_ENV, "80")

        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    response = await client.call(
                        {
                            "id": 9,
                            "op": "query",
                            "q": PATH,
                            "deadline_ms": 10,
                        }
                    )
                    assert not response["ok"]
                    assert response["id"] == 9
                    assert response["error_type"] == "DeadlineExceeded"
                    assert response["where"] == "between rounds"
                    assert response["budget_ms"] == 10.0
                    assert response["elapsed_ms"] >= 10.0
                    assert server.stats.deadline_exceeded == 1
                    # The connection and the server both survive.
                    monkeypatch.delenv(ROUND_DELAY_ENV)
                    response = await client.call(
                        {"id": 10, "op": "query", "q": PATH}
                    )
                    assert response["ok"] and response["count"] == 60
                    await client.close()
            finally:
                session.close()

        rpc_test(body())

    def test_invalid_deadline_is_rejected_upfront(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    for bad in (0, -5, "fast", True):
                        response = await client.call(
                            {
                                "op": "query",
                                "q": PATH,
                                "deadline_ms": bad,
                            }
                        )
                        assert not response["ok"]
                        assert "deadline_ms" in response["error"]
                    assert server.session.stats.requests == 0
                    await client.close()
            finally:
                session.close()

        rpc_test(body())

    @pytest.mark.parametrize(
        "budget", [float("nan"), float("inf")], ids=["nan", "infinity"]
    )
    def test_non_finite_deadline_is_rejected_upfront(self, budget):
        # json.dumps writes NaN / Infinity literals, which the server's
        # json parses back to floats; a NaN budget would never expire.
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    response = await client.call(
                        {"op": "query", "q": PATH, "deadline_ms": budget}
                    )
                    assert not response["ok"]
                    assert response["error_type"] == "QueryError"
                    assert "deadline_ms" in response["error"]
                    assert server.session.stats.requests == 0
                    await client.close()
            finally:
                session.close()

        rpc_test(body())


class TestWriteRows:
    """``update`` / ``delete`` take rows of JSON integers, uncoerced."""

    @pytest.mark.parametrize(
        "rows",
        [["12"], [[True, 2]], [[2.9, 1]], [["7", 1]]],
        ids=["string-row", "bool-value", "float-value", "string-value"],
    )
    @pytest.mark.parametrize("op", ["update", "delete"])
    def test_non_integer_rows_are_rejected(self, op, rows):
        async def body():
            session = _session()
            try:
                before = session.version
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    response = await client.call(
                        {"op": op, "relation": "S1", "rows": rows}
                    )
                    assert not response["ok"]
                    assert response["error_type"] == "QueryError"
                    assert "bad row in 'rows'" in response["error"]
                    await client.close()
                assert session.version == before
            finally:
                session.close()

        rpc_test(body())

    def test_integer_rows_are_stored_as_sent(self):
        async def body():
            session = _session()
            try:
                before = set(session.database.snapshot["S1"].rows())
                assert not {(7, 1), (3, 12)} & before
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    response = await client.call(
                        {"op": "update", "relation": "S1",
                         "rows": [[7, 1], [3, 12]]}
                    )
                    assert response["ok"], response
                    await client.close()
                after = set(session.database.snapshot["S1"].rows())
                assert after == before | {(7, 1), (3, 12)}
            finally:
                session.close()

        rpc_test(body())

    @pytest.mark.parametrize("row", [[1, 2, 3], [1]], ids=["wide", "narrow"])
    def test_wrong_arity_delete_is_an_error(self, row):
        async def body():
            session = _session()
            try:
                before = session.version
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    response = await client.call(
                        {"op": "delete", "relation": "S1", "rows": [row]}
                    )
                    assert not response["ok"]
                    assert response["error_type"] == "DataError"
                    assert (
                        f"arity {len(row)}, expected 2" in response["error"]
                    )
                    follow_up = await client.call(
                        {"op": "query", "q": "S1(x,y)"}
                    )
                    assert follow_up["version"] == before
                    await client.close()
                assert session.version == before
            finally:
                session.close()

        rpc_test(body())


class TestAdmissionOnTheWire:
    def test_excess_load_is_shed_with_retry_hint(self, monkeypatch):
        # A slow execution (injected round delay) holds the single
        # admission slot; with max_queue=0 the concurrent second
        # query is shed immediately.
        monkeypatch.setenv(ROUND_DELAY_ENV, "400")

        async def body():
            session = _session(result_cache_size=0)
            try:
                async with RpcServer(
                    session, max_inflight=1, max_queue=0
                ) as server:
                    slow = await _Client.open(server)
                    fast = await _Client.open(server)
                    await slow.send_text(
                        json.dumps({"id": 1, "op": "query", "q": PATH})
                    )
                    await asyncio.sleep(0.1)  # the slot is now held
                    shed = await fast.call(
                        {"id": 2, "op": "query", "q": "S1(a,b)"}
                    )
                    assert not shed["ok"]
                    assert shed["error_type"] == "ServerOverloaded"
                    assert shed["reason"] == "queue_full"
                    assert "retry_after_ms" in shed
                    admitted = await slow.recv()
                    assert admitted["ok"] and admitted["id"] == 1
                    assert server.stats.shed_overload == 1
                    stats = (await fast.call({"op": "stats"}))["admission"]
                    assert stats["enabled"]
                    assert stats["admitted"] == 1
                    assert stats["shed"] == 1
                    assert stats["inflight"] == 0  # all slots returned
                    await slow.close()
                    await fast.close()
            finally:
                session.close()

        rpc_test(body())

    def test_quota_is_shared_across_connections_by_client_id(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(
                    session, quota_rps=0.001, quota_burst=2
                ) as server:
                    first = await _Client.open(server)
                    second = await _Client.open(server)
                    for client in (first, second):
                        response = await client.call(
                            {
                                "op": "query",
                                "q": PATH,
                                "client_id": "tenant-1",
                            }
                        )
                        assert response["ok"]
                    # Burst of 2 spent: the third request is shed no
                    # matter which connection carries it.
                    shed = await first.call(
                        {
                            "op": "query",
                            "q": PATH,
                            "client_id": "tenant-1",
                        }
                    )
                    assert not shed["ok"]
                    assert shed["reason"] == "quota"
                    assert shed["retry_after_ms"] > 0
                    # A different tenant still gets in.
                    other = await second.call(
                        {
                            "op": "query",
                            "q": PATH,
                            "client_id": "tenant-2",
                        }
                    )
                    assert other["ok"]
                    # ping and stats stay exempt under overload.
                    assert (await first.call({"op": "ping"}))["pong"]
                    stats = await first.call({"op": "stats"})
                    assert stats["rpc"]["shed_quota"] == 1
                    assert stats["admission"]["quota_clients"] == 2
                    await first.close()
                    await second.close()
            finally:
                session.close()

        rpc_test(body())

    def test_per_connection_quota_without_client_id(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(
                    session, quota_rps=0.001, quota_burst=1
                ) as server:
                    first = await _Client.open(server)
                    assert (
                        await first.call({"op": "query", "q": PATH})
                    )["ok"]
                    shed = await first.call({"op": "query", "q": PATH})
                    assert shed["reason"] == "quota"
                    # A fresh connection is a fresh bucket.
                    second = await _Client.open(server)
                    assert (
                        await second.call({"op": "query", "q": PATH})
                    )["ok"]
                    await first.close()
                    await second.close()
            finally:
                session.close()

        rpc_test(body())


class TestStreaming:
    def test_batches_arrive_incrementally_with_a_final_summary(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    await client.send_text(
                        json.dumps(
                            {
                                "id": 5,
                                "op": "query",
                                "q": PATH,
                                "stream": True,
                                "batch": 16,
                            }
                        )
                    )
                    rows = []
                    batches = 0
                    while True:
                        line = await client.recv()
                        if "batch" in line:
                            assert line["id"] == 5
                            assert len(line["batch"]) <= 16
                            rows.extend(line["batch"])
                            batches += 1
                            continue
                        summary = line
                        break
                    assert summary["ok"] and summary["done"]
                    assert summary["batches"] == batches == 4
                    assert summary["count"] == len(rows) == 60
                    assert "answers" not in summary
                    assert server.stats.streamed_batches == 4
                    await client.close()
            finally:
                session.close()

        rpc_test(body())

    def test_rejects_non_positive_batch(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    response = await client.call(
                        {
                            "op": "query",
                            "q": PATH,
                            "stream": True,
                            "batch": 0,
                        }
                    )
                    assert not response["ok"]
                    assert "batch" in response["error"]
                    # Rejected before execution, not after.
                    assert server.session.stats.requests == 0
                    await client.close()
            finally:
                session.close()

        rpc_test(body())

    def _batch_reply(self, request: dict) -> tuple[dict, int]:
        """The reply to one query carrying ``batch``, and how many
        requests reached the session."""

        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    response = await client.call(
                        {"op": "query", "q": PATH, **request}
                    )
                    await client.close()
                    return response, server.session.stats.requests
            finally:
                session.close()

        return rpc_test(body())

    def test_null_batch_means_the_default(self):
        response, requests = self._batch_reply({"batch": None})
        assert response["ok"] and response["count"] == 60
        assert requests == 1

    @pytest.mark.parametrize("batch", [True, 2.9], ids=["bool", "float"])
    def test_non_integer_batch_is_rejected_upfront(self, batch):
        response, requests = self._batch_reply(
            {"stream": True, "batch": batch}
        )
        assert not response["ok"]
        assert response["error_type"] == "QueryError"
        assert "'batch' must be a positive integer" in response["error"]
        assert requests == 0

    def test_mid_stream_disconnect_is_counted_and_survived(
        self, monkeypatch
    ):
        # The injected fault aborts the connection after 2 batch
        # lines -- exactly what a client vanishing mid-stream looks
        # like from the server.
        monkeypatch.setenv(DISCONNECT_ENV, "2")

        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    await client.send_text(
                        json.dumps(
                            {
                                "id": 7,
                                "op": "query",
                                "q": PATH,
                                "stream": True,
                                "batch": 16,
                            }
                        )
                    )
                    received = 0
                    while True:
                        line = await asyncio.wait_for(
                            client.reader.readline(), timeout=10
                        )
                        if not line:
                            break  # connection cut mid-stream
                        if "batch" in json.loads(line):
                            received += 1
                    assert received <= 2
                    assert server.stats.aborted_streams == 1
                    await client.close()

                    # The server keeps serving new connections.
                    monkeypatch.delenv(DISCONNECT_ENV)
                    survivor = await _Client.open(server)
                    response = await survivor.call(
                        {"op": "query", "q": PATH}
                    )
                    assert response["ok"] and response["count"] == 60
                    await survivor.close()
            finally:
                session.close()

        rpc_test(body())
