"""The asyncio JSON-lines RPC server: protocol, errors, coalescing."""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro import connect
from repro.core.query import parse_query
from repro.data.generators import matching_database
from repro.serve.rpc import RpcServer, serve_tcp

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")


def _session(n=60, **kwargs):
    return connect(matching_database(VOCAB, n=n, rng=7), p=8, **kwargs)


class _Client:
    """A tiny line-oriented JSON client for the tests."""

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
    """Run one async test body under a fresh event loop."""
    return asyncio.run(coroutine)


class TestProtocol:
    def test_query_update_stats_roundtrip(self):
        async def body():
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                response = await client.call(
                    {"id": 1, "op": "query", "q": "S1(x,y), S2(y,z)"}
                )
                assert response["ok"] and response["id"] == 1
                assert response["count"] == 60
                assert response["algorithm"] == "hypercube"
                assert len(response["answers"]) == 60
                assert response["version"] == 0

                response = await client.call(
                    {
                        "id": 2,
                        "op": "update",
                        "relation": "S1",
                        "rows": [[7, 9]],
                    }
                )
                assert response["ok"] and response["version"] == 1

                response = await client.call(
                    {"id": 3, "op": "query", "q": "S1(x,y)"}
                )
                assert response["count"] == 61

                response = await client.call({"op": "stats"})
                assert response["rpc"]["requests"] == 4
                assert response["service"]["updates"] == 1
                assert response["planner"]["decisions"] >= 2
                assert response["version"] == 1

                assert (await client.call({"op": "ping"}))["pong"]
                await client.close()

        rpc_test(body())

    def test_explain_op_reports_the_route(self):
        async def body():
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                response = await client.call(
                    {
                        "op": "explain",
                        "q": "S1(x,y), S2(y,z)",
                        "plan": True,
                    }
                )
                assert response["ok"]
                explain = response["explain"]
                assert explain["algorithm"] == "hypercube"
                assert explain["shares"]["y"] == 8
                assert len(explain["candidates"]) == 3
                assert response["plan"]["num_rounds"] == 1
                # explain never executes
                stats = await client.call({"op": "stats"})
                assert stats["service"]["executions"] == 0
                await client.close()

        rpc_test(body())

    def test_eps_and_algorithm_travel_over_the_wire(self):
        async def body():
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                pinned = await client.call(
                    {
                        "op": "query",
                        "q": "S1(x,y), S2(y,z)",
                        "algorithm": "multiround",
                    }
                )
                assert pinned["algorithm"] == "multiround"
                partial = await client.call(
                    {
                        "op": "query",
                        "q": "S1(x,y), S2(y,z), S3(z,x)",
                        "eps": "0",
                        "allow_partial": True,
                    }
                )
                assert partial["algorithm"] == "partial"
                await client.close()

        rpc_test(body())

    def test_streamed_query_sends_batches_then_summary(self):
        async def body():
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                await client.send_text(
                    json.dumps(
                        {
                            "id": 9,
                            "op": "query",
                            "q": "S1(x,y)",
                            "stream": True,
                            "batch": 16,
                        }
                    )
                )
                rows = []
                while True:
                    line = await client.recv()
                    if "batch" in line:
                        assert line["id"] == 9
                        assert len(line["batch"]) <= 16
                        rows.extend(tuple(r) for r in line["batch"])
                        continue
                    assert line["ok"] and line["done"]
                    assert line["count"] == len(rows) == 60
                    assert "answers" not in line
                    break
                await client.close()

        rpc_test(body())


class TestErrors:
    """Every failure is a structured line; the loop always survives."""

    @pytest.mark.parametrize(
        "request_line, fragment",
        [
            ("this is not json", "invalid json"),
            (json.dumps({"op": "frobnicate"}), "unknown op"),
            (json.dumps({"op": "query"}), "missing query text"),
            (json.dumps({"op": "query", "q": "S1(x"}), "malformed"),
            (
                json.dumps({"op": "query", "q": "S1(x,y), S9(y,z)"}),
                "unknown relation",
            ),
            (
                json.dumps({"op": "query", "q": "S1(x,y,z)"}),
                "arity mismatch",
            ),
            (
                json.dumps({"op": "query", "q": "S1(x,y)", "eps": "1/0"}),
                "invalid eps",
            ),
            (
                json.dumps(
                    {"op": "query", "q": "S1(x,y)", "algorithm": "nope"}
                ),
                "unknown algorithm",
            ),
            (json.dumps({"op": "update", "relation": "S1"}), "rows"),
            (
                json.dumps(
                    {"op": "delete", "relation": "Nope", "rows": [[1, 2]]}
                ),
                "Nope",
            ),
        ],
    )
    def test_bad_requests_return_structured_errors(
        self, request_line, fragment
    ):
        async def body():
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                await client.send_text(request_line)
                response = await client.recv()
                assert response["ok"] is False
                assert fragment in response["error"]
                # the connection survived: a good request still works
                follow_up = await client.call(
                    {"op": "query", "q": "S1(x,y)"}
                )
                assert follow_up["ok"] and follow_up["count"] == 60
                await client.close()

        rpc_test(body())

    def test_one_dispatch_thread_takes_no_workers_keyword(self):
        with pytest.raises(TypeError, match="workers"):
            RpcServer(_session(), workers=2)

    def test_error_responses_echo_the_request_id(self):
        async def body():
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                response = await client.call(
                    {"id": 42, "op": "query", "q": "S9(x,y)"}
                )
                assert response["id"] == 42
                assert response["error_type"] == "QueryError"
                await client.close()

        rpc_test(body())

    def test_capacity_failures_are_structured(self):
        async def body():
            session = connect(
                matching_database(VOCAB, n=40, rng=7),
                p=8,
                capacity_c=0.001,
                enforce_capacity=True,
            )
            async with RpcServer(session) as server:
                client = await _Client.open(server)
                response = await client.call(
                    {"op": "query", "q": "S1(x,y), S2(y,z)"}
                )
                assert response["ok"] is False
                assert response["error_type"] == "CapacityExceeded"
                await client.close()

        rpc_test(body())


class TestCoalescing:
    def test_concurrent_identical_statements_share_one_execution(self):
        async def body():
            async with RpcServer(_session(n=120)) as server:
                async def one():
                    client = await _Client.open(server)
                    response = await client.call(
                        {"op": "query", "q": "S1(x,y), S2(y,z)"}
                    )
                    await client.close()
                    return response

                responses = await asyncio.gather(*[one() for _ in range(8)])
                counts = {r["count"] for r in responses}
                assert counts == {120}
                flags = sorted(r["coalesced"] for r in responses)
                assert flags.count(True) == server.stats.coalesced
                # at least some requests piggybacked on the in-flight
                # execution or its memoized result
                executions = server.session.stats.executions
                assert executions == 1

        rpc_test(body())

    def test_coalescing_can_be_disabled(self):
        async def body():
            async with RpcServer(_session(), coalesce=False) as server:
                async def one():
                    client = await _Client.open(server)
                    response = await client.call(
                        {"op": "query", "q": "S1(x,y), S2(y,z)"}
                    )
                    await client.close()
                    return response["coalesced"]

                flags = await asyncio.gather(*[one() for _ in range(4)])
                assert not any(flags)
                assert server.stats.coalesced == 0

        rpc_test(body())

    def test_distinct_statements_do_not_coalesce(self):
        async def body():
            async with RpcServer(_session()) as server:
                async def one(text):
                    client = await _Client.open(server)
                    response = await client.call(
                        {"op": "query", "q": text}
                    )
                    await client.close()
                    return response

                responses = await asyncio.gather(
                    one("S1(x,y)"), one("S2(x,y)"), one("S3(x,y)")
                )
                assert all(r["ok"] for r in responses)
                assert not any(r["coalesced"] for r in responses)

        rpc_test(body())


class TestConcurrentClients:
    """Many clients pipeline through one dispatch thread: each sees
    the answers a direct call gives, and updates in the order they
    were served."""

    QUERIES = [
        "S1(x,y), S2(y,z)",
        "S2(y,z), S3(z,x)",
        "S1(x,y)",
        "S3(z,x)",
    ]

    def test_every_client_gets_the_direct_answers(self):
        direct = _session()
        expected = {
            text: sorted(direct.execute(text).answers)
            for text in self.QUERIES
        }

        async def body():
            async with RpcServer(_session()) as server:
                async def one(offset):
                    client = await _Client.open(server)
                    responses = []
                    for step in range(len(self.QUERIES)):
                        text = self.QUERIES[(offset + step) % 4]
                        response = await client.call(
                            {"op": "query", "q": text}
                        )
                        responses.append((text, response))
                    await client.close()
                    return responses

                for responses in await asyncio.gather(
                    *[one(offset) for offset in range(6)]
                ):
                    for text, response in responses:
                        assert response["ok"]
                        answers = sorted(map(tuple, response["answers"]))
                        assert answers == expected[text]
                client = await _Client.open(server)
                stats = await client.call({"op": "stats"})
                await client.close()
                assert stats["rpc"]["requests"] == 6 * 4 + 1
                # A coalesced request shares another's execution.
                assert (
                    stats["service"]["requests"] + stats["rpc"]["coalesced"]
                    == 6 * 4
                )

        rpc_test(body())

    def test_an_update_is_seen_by_every_client_served_after_it(self):
        async def body():
            async with RpcServer(_session()) as server:
                clients = [await _Client.open(server) for _ in range(4)]
                before = await asyncio.gather(
                    *[
                        client.call({"op": "query", "q": "S1(x,y)"})
                        for client in clients
                    ]
                )
                assert {r["count"] for r in before} == {60}
                response = await clients[0].call(
                    {"op": "update", "relation": "S1", "rows": [[7, 9]]}
                )
                assert response["ok"] and response["version"] == 1
                after = await asyncio.gather(
                    *[
                        client.call({"op": "query", "q": "S1(x,y)"})
                        for client in clients
                    ]
                )
                assert {r["count"] for r in after} == {61}
                assert {r["version"] for r in after} == {1}
                for client in clients:
                    await client.close()

        rpc_test(body())


async def _collect_loop_errors(errors: list[dict]) -> None:
    """Route everything that reaches the running loop's exception
    handler into ``errors``."""
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: errors.append(context)
    )


#: Loops whose shutdown hung, with their stuck tasks, kept so that the
#: garbage collector does not tear them down in the middle of a later
#: test.
_HUNG_LOOPS: list[tuple[asyncio.AbstractEventLoop, asyncio.Task]] = []


def shutdown_test(coroutine, timeout=20.0):
    """:func:`rpc_test` that fails, instead of hanging, when shutdown
    waits on a client that only hangs up after it.  The loop just
    stops at the timeout: cancelling a stuck close() (``wait_for``,
    ``asyncio.run``) would only wait on the clients again."""
    loop = asyncio.new_event_loop()
    task = loop.create_task(coroutine)
    loop.call_later(timeout, loop.stop)
    try:
        return loop.run_until_complete(task)
    except RuntimeError:
        if task.done():
            raise
    finally:
        if task.done():
            loop.close()
        else:
            _HUNG_LOOPS.append((loop, task))
    pytest.fail(f"shutdown still waiting after {timeout:g} s")


@pytest.mark.usefixtures("wait_closed_as_in_python_3_12")
class TestShutdown:
    """Leaving the server cancels every client handler still running;
    each must end cleanly, so nothing reaches the loop's exception
    handler (asyncio used to log a CancelledError traceback per
    cancelled handler), and closing must not wait for the clients to
    hang up first."""

    def test_close_cancels_handlers_without_loop_errors(self):
        errors: list[dict] = []

        async def body():
            await _collect_loop_errors(errors)
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                response = await client.call({"op": "query", "q": "S1(x,y)"})
                assert response["ok"]
            await client.close()
            # Let the stream protocol's done-callbacks run.
            await asyncio.sleep(0)

        shutdown_test(body())
        assert errors == []

    @pytest.mark.parametrize("clients", [1, 3])
    def test_silent_clients_are_cancelled_cleanly(self, clients):
        # Connected but never sent a line: each handler is parked in
        # readline when close() cancels it.
        errors: list[dict] = []

        async def body():
            await _collect_loop_errors(errors)
            async with RpcServer(_session()) as server:
                opened = [await _Client.open(server) for _ in range(clients)]
                while server.stats.connections < clients:
                    await asyncio.sleep(0.01)
            for client in opened:
                assert await client.reader.read() == b""
                await client.close()
            await asyncio.sleep(0)

        shutdown_test(body())
        assert errors == []

    def test_a_query_in_flight_at_close_ends_cleanly(self, monkeypatch):
        # The handler is cancelled while it awaits the dispatch thread;
        # close() still waits for the statement to finish.
        from repro.engine.faults import ROUND_DELAY_ENV

        monkeypatch.setenv(ROUND_DELAY_ENV, "100")
        errors: list[dict] = []
        session = _session()

        async def body():
            await _collect_loop_errors(errors)
            async with RpcServer(session) as server:
                client = await _Client.open(server)
                await client.send_text(
                    json.dumps({"op": "query", "q": "S1(x,y), S2(y,z)"})
                )
                while server.stats.requests < 1:
                    await asyncio.sleep(0.01)
            assert await client.reader.read() == b""
            await client.close()
            await asyncio.sleep(0)

        shutdown_test(body())
        assert errors == []
        assert session.stats.requests == 1

    def test_a_handler_cancelled_while_serving_stays_cancelled(self):
        # Only close() turns a cancellation into a clean end: a handler
        # cancelled while the server keeps serving reports it.
        async def body():
            async with RpcServer(_session()) as server:
                client = await _Client.open(server)
                assert (await client.call({"op": "ping"}))["pong"]
                (handler,) = server._clients
                handler.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await handler
                assert handler.cancelled()
                assert await client.reader.read() == b""
                await client.close()
                # The server still accepts and answers new clients.
                other = await _Client.open(server)
                assert (await other.call({"op": "ping"}))["pong"]
                await other.close()

        shutdown_test(body())

    def test_close_twice_is_harmless(self):
        async def body():
            server = RpcServer(_session())
            await server.start()
            client = await _Client.open(server)
            assert (await client.call({"op": "ping"}))["pong"]
            await server.close()
            await server.close()
            await client.close()

        shutdown_test(body())

    def test_a_handler_first_run_after_close_hangs_up(self):
        # A connection accepted just before close() whose handler task
        # first runs after close() cancelled the others: it must hang
        # up instead of waiting for a request close() will not cancel.
        async def body():
            server = RpcServer(_session())
            await server.start()
            await server.close()
            ours, theirs = socket.socketpair()
            reader, writer = await asyncio.open_connection(sock=ours)
            peer = _Client(*await asyncio.open_connection(sock=theirs))
            await server._client(reader, writer)
            assert await peer.reader.read() == b""
            await peer.close()
            assert server.stats.connections == 0

        shutdown_test(body())

    def test_a_closed_server_refuses_connections(self):
        async def body():
            async with RpcServer(_session()) as server:
                host, port = server.address
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        shutdown_test(body())

    def test_serve_tcp_announces_then_closes_on_cancel(self):
        # The CLI entry: bind, announce, set ready, serve; cancelled
        # with a client still connected, it hangs up and unbinds.
        async def body():
            session = _session()
            announcements: list[str] = []
            ready = asyncio.Event()
            task = asyncio.create_task(
                serve_tcp(
                    session,
                    port=0,
                    ready=ready,
                    announce=announcements.append,
                )
            )
            try:
                await asyncio.wait_for(ready.wait(), timeout=10)
                (line,) = announcements
                prefix = "repro rpc: listening on 127.0.0.1:"
                assert line.startswith(prefix)
                assert line.endswith(
                    "(JSON lines; ops: query / explain / update / "
                    "delete / stats / ping)"
                )
                port = int(line[len(prefix):].split()[0])
                client = _Client(
                    *await asyncio.open_connection("127.0.0.1", port)
                )
                assert (await client.call({"op": "ping"}))["pong"]
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert await client.reader.read() == b""
                await client.close()
                with pytest.raises(OSError):
                    await asyncio.open_connection("127.0.0.1", port)
            finally:
                task.cancel()
                session.close()

        shutdown_test(body())
