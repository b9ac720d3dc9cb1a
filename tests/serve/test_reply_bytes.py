"""Reply lines byte for byte: answers encoded once, spliced verbatim.

A query reply's ``"answers"`` value is encoded once per result-cache
entry and head order and spliced into the line.  Each expected line
here is built the way a line was built when every reply re-listed its
answer tuples: the summary fields in their order, the rows of the
exact join as lists, the whole payload through ``json.dumps``.  Only
``elapsed_ms`` is copied from the reply itself.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.serve.service as service
from repro import connect
from repro.core.query import parse_query
from repro.data.generators import matching_database
from repro.engine.faults import disconnect_after_batches
from repro.oracle import evaluate_query
from repro.serve.rpc import RpcServer

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")
PATH = "S1(x,y), S2(y,z)"
#: Same relations, permuted head: an isomorphic plan hit and a hit on
#: PATH's result-cache entry in a second head order.
PERMUTED_PATH = "q(z,y,x) = S1(x,y), S2(y,z)"
#: Multi-round plans finalize through a view; the second one's head
#: permutes that view's columns.
CHAIN = "S1(x,y), S2(y,z), S3(z,w)"
PERMUTED_CHAIN = "q(z,x,y,w) = S1(x,y), S2(y,z), S3(z,w)"
#: No answers over the test database.
EMPTY = "S1(x,y), S2(x,y)"

SUMMARY_KEYS = (
    "ok",
    "count",
    "version",
    "algorithm",
    "plan_hit",
    "result_hit",
    "coalesced",
    "elapsed_ms",
)


def _session(**options):
    return connect(matching_database(VOCAB, n=60, rng=7), p=8, **options)


def exact_rows(session, text):
    """The exact join over the session's current snapshot."""
    query = parse_query(text)
    snapshot = session.database.snapshot
    return evaluate_query(
        query,
        {atom.name: tuple(snapshot[atom.name].rows()) for atom in query.atoms},
    )


def _line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def expected_reply(reply: bytes, rows, request_id) -> bytes:
    """The reply line as a re-listing encoder wrote it."""
    summary = json.loads(reply)
    payload = {key: summary[key] for key in SUMMARY_KEYS}
    payload["answers"] = [list(row) for row in rows]
    payload["id"] = request_id
    return _line(payload)


class _RawClient:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, server):
        host, port = server.address
        return cls(*await asyncio.open_connection(host, port))

    async def send(self, request: dict) -> None:
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()

    async def line(self) -> bytes:
        return await asyncio.wait_for(self.reader.readline(), timeout=30)

    async def query(self, request_id, text) -> bytes:
        await self.send({"id": request_id, "op": "query", "q": text})
        return await self.line()

    async def call(self, request: dict) -> dict:
        await self.send(request)
        return json.loads(await self.line())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _serve(session, body):
    async def run():
        try:
            async with RpcServer(session) as server:
                client = await _RawClient.open(server)
                try:
                    await body(server, client)
                finally:
                    await client.close()
        finally:
            session.close()

    asyncio.run(run())


async def _assert_reads(session, client, reads):
    """Each ``(id, text, result_hit)`` read replies with the expected
    line (``result_hit`` None: either); returns the summaries."""
    summaries = []
    for request_id, text, result_hit in reads:
        reply = await client.query(request_id, text)
        assert reply == expected_reply(
            reply, exact_rows(session, text), request_id
        )
        summary = json.loads(reply)
        assert result_hit is None or summary["result_hit"] is result_hit
        summaries.append(summary)
    return summaries


class TestQueryReplies:
    def test_identity_and_isomorphic_hits(self):
        session = _session()

        async def body(server, client):
            first, again, permuted = await _assert_reads(
                session,
                client,
                [(1, PATH, False), (2, PATH, True), (3, PERMUTED_PATH, True)],
            )
            assert permuted["plan_hit"]
            assert first["count"] == again["count"] == permuted["count"]

        _serve(session, body)

    def test_a_reply_without_an_id_has_no_id_field(self):
        session = _session()

        async def body(server, client):
            await client.send({"op": "query", "q": PATH})
            reply = await client.line()
            expected = json.loads(
                expected_reply(reply, exact_rows(session, PATH), None)
            )
            del expected["id"]
            assert reply == _line(expected)

        _serve(session, body)

    @pytest.mark.parametrize(
        "algorithm, text",
        [
            ("hypercube", PATH),
            ("multiround", CHAIN),
            ("multiround", PERMUTED_CHAIN),
        ],
        ids=["collect", "finalize-view", "permuted-finalize-view"],
    )
    def test_post_update_merges(self, algorithm, text):
        """An insert and a delete both merge by splicing the touched
        workers' delta into the answer table; both replies carry the
        exact join's rows."""
        session = _session(algorithm=algorithm)
        removed = next(session.database.snapshot["S2"].rows())

        async def body(server, client):
            await _assert_reads(session, client, [(1, text, False)])
            for request_id, op, relation, row in [
                (2, "update", "S1", [1, 5]),
                (4, "delete", "S2", list(removed)),
            ]:
                response = await client.call(
                    {"op": op, "relation": relation, "rows": [row]}
                )
                assert response["ok"]
                hits = session.stats.ivm_hits
                await _assert_reads(
                    session, client, [(request_id, text, False)]
                )
                assert session.stats.ivm_hits == hits + 1
                await _assert_reads(
                    session, client, [(request_id + 1, text, True)]
                )

        _serve(session, body)


class TestStreamedReplies:
    """Batch lines slice the table; a disconnect fault may cut them."""

    @pytest.mark.parametrize("batch", [1, 16, "count", "count+1"])
    @pytest.mark.parametrize("text", [PATH, PERMUTED_PATH])
    def test_batches_and_summary(self, text, batch):
        session = _session()
        cut = disconnect_after_batches()

        async def body(server, client):
            rows = exact_rows(session, text)
            size = {"count": len(rows), "count+1": len(rows) + 1}.get(
                batch, batch
            )
            batches = [rows[i:i + size] for i in range(0, len(rows), size)]
            # The second read streams from the cached table.
            for request_id, result_hit in [(1, False), (2, True)]:
                await client.send(
                    {
                        "id": request_id,
                        "op": "query",
                        "q": text,
                        "stream": True,
                        "batch": size,
                    }
                )
                for chunk in batches[:cut]:
                    rows_of = [list(row) for row in chunk]
                    assert await client.line() == _line(
                        {"batch": rows_of, "id": request_id}
                    )
                if cut is not None and cut < len(batches):
                    assert await client.line() == b""  # cut mid-stream
                    assert server.stats.aborted_streams == 1
                    return
                reply = await client.line()
                summary = json.loads(reply)
                assert summary["result_hit"] is result_hit
                payload = {key: summary[key] for key in SUMMARY_KEYS}
                payload.update(done=True, batches=len(batches), id=request_id)
                assert reply == _line(payload)

        _serve(session, body)

    def test_no_answers_send_no_batch_line(self):
        session = _session()

        async def body(server, client):
            assert exact_rows(session, EMPTY) == ()
            await client.send(
                {"id": 1, "op": "query", "q": EMPTY, "stream": True}
            )
            reply = await client.line()
            summary = json.loads(reply)
            assert summary["count"] == 0
            payload = {key: summary[key] for key in SUMMARY_KEYS}
            payload.update(done=True, batches=0, id=1)
            assert reply == _line(payload)
            assert server.stats.streamed_batches == 0

        _serve(session, body)


class TestEncodedOnce:
    def test_a_second_hit_reuses_the_encoded_bytes(self, monkeypatch):
        session = _session()
        calls = []
        encode = service.encode_answers

        def counting(table):
            calls.append(len(table))
            return encode(table)

        monkeypatch.setattr(service, "encode_answers", counting)

        async def body(server, client):
            await client.query(1, PATH)
            second = await client.query(2, PATH)
            assert calls == [60]  # the first reply encoded, once
            assert json.loads(second)["result_hit"]
            results = [session.execute(PATH) for _ in range(2)]
            assert (
                results[0].answer_views.json is results[1].answer_views.json
            )
            assert calls == [60]

        _serve(session, body)
