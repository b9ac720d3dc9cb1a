"""An asyncio JSON-lines RPC front end over a :class:`Session`.

The ROADMAP's network front end: ``repro serve --tcp PORT`` (or
:class:`RpcServer` embedded) exposes the Session/Statement API over a
newline-delimited JSON protocol.  One request per line, one (or, for
streamed queries, several) response lines back, every response tagged
with the request's ``id``:

    -> {"id": 1, "op": "query", "q": "S1(x,y), S2(y,z)"}
    <- {"id": 1, "ok": true, "count": 40, "answers": [[1,2,3], ...],
        "algorithm": "hypercube", "version": 0, ...}

Operations:

``query``
    Execute a statement.  Fields: ``q`` (query text), optional
    ``eps`` (fraction string like ``"1/2"`` or a number),
    ``algorithm`` (registry name), ``allow_partial`` (bool),
    ``stream`` (bool: send ``{"id", "batch"}`` lines of at most
    ``batch`` rows each -- a positive integer, default
    :data:`DEFAULT_BATCH_ROWS` -- then a final ``done`` summary
    without the answers inlined).
``explain``
    The planner's report for a statement, without executing it.
``update`` / ``delete``
    Mutate one relation: ``relation`` plus ``rows`` (list of rows).
``stats``
    Every declared instrument, in sections -- the snapshot
    ``/metrics`` renders (:mod:`repro.serve.metrics`).
``ping``
    Liveness probe.

**HTTP on the same port.**  A connection whose first line is an
HTTP/1.x request line gets one HTTP exchange, then is closed:
``GET /metrics`` is the ``stats`` snapshot in Prometheus text format
(:func:`~repro.serve.metrics.render_metrics`), ``GET /healthz`` a
JSON liveness line.  It is a connection but no operation: no request
counter moves, and quotas and admission never shed it.

Malformed JSON, unknown operations, bad queries and execution errors
all come back as structured ``{"ok": false, "error": ...}`` lines --
the connection (and the server) always survives a bad request.

**Encoding.**  Answers stay one int64 table from the engine to this
module.  A reply's ``"answers"`` value is that table's JSON array,
encoded once per result -- per result-cache entry and head order, on
the entry (:class:`~repro.serve.service.AnswerViews`) -- and spliced
into every reply line that carries it without being encoded again.  A
streamed ``batch`` line encodes its slice of the table.  Both are
written by :func:`~repro.serve.service.encode_answers`, straight from
the int64 table, without building Python rows -- except that a
merged read's reply is the previous reply's bytes with the merge's row
splice applied (:func:`~repro.serve.service.splice_answers`).

**Concurrency and coalescing.**  The session's planner, plan and
result caches are unsynchronized, and the coalescing key pairs each
statement with the version current at submit -- which must still be
the version at execute.  A query whose answer the session holds
(:meth:`~repro.api.session.Statement.held`) is answered on the event
loop, counted in ``RpcStats.held``; every other operation runs on one
dispatch thread, keeping the session strictly serialized while the
event loop keeps accepting, parsing and responding -- many closed-loop
clients pipeline instead of queueing on the network.

Identical canonicalized statements arriving while one is already in
flight *coalesce*: they await the same execution future and each gets
the shared result (counted in ``RpcStats.coalesced``).
This is the cross-request batching the ROADMAP asks for -- the dual
of the result cache, which only helps *after* an execution finishes.

**Hardening.**  Production knobs, all off by default:

* ``deadline_ms`` on a ``query`` request bounds its latency; overruns
  come back as ``{"ok": false, "error_type": "DeadlineExceeded"}``.
* ``max_inflight`` / ``max_queue`` bound concurrent query execution;
  excess load is shed immediately with ``"ServerOverloaded"`` (reason
  ``queue_full``) instead of queueing without limit.  A held read
  executes nothing, so it takes no admission slot.
* ``quota_rps`` / ``quota_burst`` rate-limit each client (keyed by
  the optional wire-level ``client_id``, else per connection);
  over-quota requests shed with reason ``quota``.
* ``idle_timeout`` closes connections that send nothing for that many
  seconds (counted in :class:`RpcStats`).
* Streamed ``batch`` lines are written incrementally -- peak memory
  per streamed query is one batch, and ``writer.drain()`` pushes
  client backpressure into the stream.
* An HTTP client has :data:`REQUEST_HEAD_TIMEOUT` seconds to send its
  whole request head.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Any

from typing import TYPE_CHECKING

from repro.core.query import QueryError
from repro.data.columnar import DataError
from repro.engine.deadline import DeadlineExceeded
from repro.mpc.simulator import CapacityExceeded
from repro.serve.admission import (
    AdmissionQueue,
    AdmissionStats,
    ServerOverloaded,
    TokenBucket,
)
from repro.serve.metrics import (
    CONTENT_TYPE,
    Histogram,
    Snapshot,
    counter,
    gauge,
    histogram,
    render_metrics,
    snapshot,
    stats_dict,
)
from repro.serve.service import encode_answers

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.api.session import Session, Statement

#: Maximum request-line length (updates ship rows inline).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Default rows per ``batch`` line of a streamed query.
DEFAULT_BATCH_ROWS = 1024

#: Most token buckets kept at once; beyond this the oldest client's
#: bucket is dropped (it re-fills to a full burst on reappearance --
#: a bounded-memory tradeoff, not a correctness one).
MAX_QUOTA_BUCKETS = 4096

#: Ops a client quota applies to.  ``ping`` and ``stats`` stay exempt
#: so health checks and scrapes keep working under overload.
QUOTA_OPS = frozenset({"query", "explain", "update", "delete"})

#: A first line matching this opens an HTTP/1.x exchange (method,
#: target); JSON requests start with ``{`` and never match.
HTTP_REQUEST_LINE = re.compile(rb"([A-Z]+) (\S+) HTTP/1\.[01]")

#: Seconds an HTTP client has to send its whole request head.
REQUEST_HEAD_TIMEOUT = 10.0

_compact = json.JSONEncoder(separators=(",", ":")).encode


SHED = counter(
    "rpc_shed_total", "Requests shed with ServerOverloaded, by reason."
)


@dataclass
class RpcStats:
    """Counters of one server's lifetime."""

    stats_section = "rpc"

    connections: int = counter(
        "rpc_connections_total", "Client connections accepted."
    ).field()
    requests: int = counter(
        "rpc_received_total", "Requests received, all operations."
    ).field()
    errors: int = counter(
        "rpc_errors_total", "Requests answered with ok=false."
    ).field()
    coalesced: int = counter(
        "rpc_coalesced_total",
        "Queries served by an identical in-flight execution.",
    ).field()
    held: int = counter(
        "rpc_held_reads_total",
        "Queries answered on the event loop from a held result.",
    ).field()
    streamed_batches: int = counter(
        "rpc_streamed_batches_total",
        "Batch lines written for streamed queries.",
    ).field()
    #: Queries shed by the admission queue / by a client quota.
    shed_overload: int = SHED.field(reason="queue_full")
    shed_quota: int = SHED.field(reason="quota")
    deadline_exceeded: int = counter(
        "rpc_deadline_exceeded_total",
        "Requests that ran out of their deadline_ms budget.",
    ).field()
    idle_timeouts: int = counter(
        "rpc_idle_timeouts_total",
        "Connections closed by the idle read timeout.",
    ).field()
    aborted_streams: int = counter(
        "rpc_aborted_streams_total",
        "Streamed responses cut short by client disconnects.",
    ).field()
    by_op: dict[str, int] = counter(
        "rpc_requests_total", "Requests received, by operation.", label="op"
    ).field(dict)
    #: Query latency (admission wait + execution + first write).
    request_latency: Histogram = histogram(
        "request_seconds", "RPC query latency (admission wait + execution)."
    ).field(Histogram)

    def count(self, op: str) -> None:
        self.requests += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1


def _parse_eps(value: Any) -> Fraction | None:
    """``eps`` from the wire: None, a number, or a fraction string."""
    if value is None:
        return None
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as error:
        raise QueryError(f"invalid eps {value!r}: {error}") from None


def _parse_batch(value: Any) -> int:
    """``batch`` from the wire: None (the default) or a positive int."""
    if value is None:
        return DEFAULT_BATCH_ROWS
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise QueryError(f"'batch' must be a positive integer, got {value!r}")
    return value


def encode_line(payload: dict) -> bytes:
    """``payload`` as one compact, newline-terminated JSON line; a
    ``bytes`` value is JSON already encoded (a result's answers or a
    streamed batch) and is spliced in verbatim.  Keys are strings; each
    run of other values is encoded by one encoder call."""
    pieces = []
    for spliced, items in groupby(
        payload.items(), lambda item: isinstance(item[1], bytes)
    ):
        if spliced:
            pieces += [b"%s:%s" % (_compact(k).encode(), v) for k, v in items]
        else:
            pieces.append(_compact(dict(items))[1:-1].encode())
    return b"{%s}\n" % b",".join(pieces)


def _parse_rows(value: Any) -> list[tuple[int, ...]]:
    """The ``rows`` field as int tuples; nothing is coerced."""
    if not isinstance(value, list) or not value:
        raise QueryError("'rows' must be a non-empty list of rows")
    for row in value:
        if not isinstance(row, list) or not all(
            type(v) is int for v in row
        ):
            raise QueryError(
                f"bad row in 'rows': {row!r} is not a list of integers"
            )
    return [tuple(row) for row in value]


class RpcServer:
    """The JSON-lines server; one instance wraps one session.

    Args:
        session: the planner-backed session every request executes
            against.
        host / port: bind address (port 0 picks a free port; read the
            bound one from :attr:`address` after :meth:`start`).
        coalesce: share in-flight executions between identical
            concurrent statements (on by default).
        max_inflight: queries allowed to execute concurrently; 0 (the
            default) disables admission control entirely.
        max_queue: queries allowed to wait for an execution slot when
            ``max_inflight`` is set; the next one is shed with
            ``ServerOverloaded``.
        quota_rps: per-client sustained requests/second; None (the
            default) disables quotas.
        quota_burst: per-client burst allowance; defaults to
            ``max(2 * quota_rps, 1)`` when quotas are on.
        idle_timeout: seconds of read inactivity after which a
            connection is closed (one ``IdleTimeout`` notice is sent
            best-effort first); None (the default) keeps connections
            forever -- REPL clients idle legitimately.
    """

    stats_section = "admission"
    quota_rps = gauge(
        "admission_quota_rps",
        "Per-client quota in requests/second (NaN = quotas off).",
    )
    idle_timeout = gauge(
        "admission_idle_timeout_seconds",
        "Idle read timeout of a connection (NaN = none).",
    )

    @gauge(
        "admission_quota_clients", "Clients holding a quota token bucket."
    )
    def quota_clients(self) -> int:
        return len(self._quotas)

    def __init__(
        self,
        session: "Session",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        coalesce: bool = True,
        max_inflight: int = 0,
        max_queue: int = 16,
        quota_rps: float | None = None,
        quota_burst: float | None = None,
        idle_timeout: float | None = None,
    ) -> None:
        self.session = session
        self.host = host
        self.port = port
        self.coalesce = coalesce
        self.stats = RpcStats()
        if max_inflight < 0:
            raise ValueError(
                f"need max_inflight >= 0, got {max_inflight}"
            )
        self.admission = (
            AdmissionQueue(max_inflight, max_queue)
            if max_inflight > 0
            else None
        )
        if quota_rps is not None and quota_rps <= 0:
            raise ValueError(f"need quota_rps > 0, got {quota_rps}")
        self.quota_rps = quota_rps
        self.quota_burst = (
            None
            if quota_rps is None
            else (
                max(2.0 * quota_rps, 1.0)
                if quota_burst is None
                else float(quota_burst)
            )
        )
        #: client key -> its token bucket, insertion-ordered (bounded).
        self._quotas: dict[str, TokenBucket] = {}
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(
                f"need idle_timeout > 0, got {idle_timeout}"
            )
        self.idle_timeout = idle_timeout
        self._server: asyncio.AbstractServer | None = None
        # One dispatch thread: every operation but a held read runs
        # here, since each touches the session's unsynchronized caches,
        # and a strict execution order keeps version-at-submit equal to
        # version-at-execute for the coalescing key.
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-rpc"
        )
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._clients: set[asyncio.Task] = set()
        self._closing = False

    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound (host, port)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        self._server = await asyncio.start_server(
            self._client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled; the caller then awaits :meth:`close`."""
        if self._server is None:
            await self.start()
        # Not asyncio's Server.serve_forever: cancelled, it awaits
        # wait_closed() before close() could end the handlers (see
        # there), so a connected client would keep it from returning.
        await asyncio.get_running_loop().create_future()

    async def close(self) -> None:
        """Stop accepting, end the client handlers, release the worker.

        The handlers end before ``wait_closed()``: from Python 3.12.1
        on it returns only once every connection has dropped, so
        awaiting it first would wait on clients that never hang up.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(*self._clients, return_exceptions=True)
        self._clients.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "RpcServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- connection handling ------------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closing:
            # Accepted just before close() and started after it
            # cancelled the handlers: hang up at once.
            writer.close()
            return
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
            task.add_done_callback(self._clients.discard)
        self.stats.connections += 1
        # The default quota identity: this connection.  A request that
        # carries ``client_id`` is billed to that instead, so one
        # logical client reconnecting (or fanning out connections)
        # still shares one bucket.
        connection_key = f"conn-{self.stats.connections}"
        try:
            line = await self._read_line(reader, writer)
            http = HTTP_REQUEST_LINE.fullmatch(line.strip())
            if http is not None:
                await self._http(*http.groups(), reader, writer)
                return
            while line:
                text = line.decode("utf-8", errors="replace").strip()
                if text:
                    await self._serve_line(text, writer, connection_key)
                line = await self._read_line(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # close() cancels every handler; ending normally keeps
            # asyncio's stream callback from logging the cancellation.
            if not self._closing:
                raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_line(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bytes:
        """The client's next line, or ``b""`` to hang up: at EOF, or once
        the client is told it idled out or overran the line limit."""
        try:
            if self.idle_timeout is None:
                return await reader.readline()
            return await asyncio.wait_for(
                reader.readline(), timeout=self.idle_timeout
            )
        except asyncio.TimeoutError:
            self.stats.idle_timeouts += 1
            idle = f"connection idle for more than {self.idle_timeout:g} s"
            try:
                await self._send(
                    writer,
                    {"ok": False, "error": idle, "error_type": "IdleTimeout"},
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
        except (asyncio.LimitOverrunError, ValueError):
            # An over-long line: unrecoverable framing, drop the client.
            await self._send(
                writer, {"ok": False, "error": "request line too long"}
            )
        return b""

    async def _http(
        self,
        method: bytes,
        target: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer the one HTTP request of this connection."""
        try:
            # One deadline for the whole head, so a client dripping
            # header lines cannot hold the handler open.
            await asyncio.wait_for(
                _skip_headers(reader), timeout=REQUEST_HEAD_TIMEOUT
            )
        except (asyncio.TimeoutError, asyncio.LimitOverrunError, ValueError):
            return
        path = target.split(b"?", 1)[0]
        status, content_type = "200 OK", "text/plain"
        if method != b"GET":
            status, body = "405 Method Not Allowed", "method not allowed\n"
        elif path == b"/metrics":
            content_type = CONTENT_TYPE
            body = await asyncio.get_running_loop().run_in_executor(
                self._pool, render_metrics, self
            )
        elif path == b"/healthz":
            content_type = "application/json"
            health = {"ok": True, "version": self.session.version}
            body = json.dumps(health) + "\n"
        else:
            status, body = "404 Not Found", "not found\n"
        payload = body.encode()
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()

    async def _serve_line(
        self,
        text: str,
        writer: asyncio.StreamWriter,
        connection_key: str,
    ) -> None:
        request_id: Any = None
        try:
            request = json.loads(text)
            if not isinstance(request, dict):
                raise QueryError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op")
            if not isinstance(op, str):
                raise QueryError("missing 'op'")
            self.stats.count(op)
            if op in QUOTA_OPS:
                self._check_quota(request, connection_key)
            for response in await self._dispatch(
                op, request, writer, request_id
            ):
                if request_id is not None:
                    response.setdefault("id", request_id)
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            # The client is gone; there is nobody to answer.  The
            # _client loop closes the connection.
            raise
        except json.JSONDecodeError as error:
            self.stats.errors += 1
            await self._send(
                writer,
                {"ok": False, "error": f"invalid json: {error}"},
            )
        except ServerOverloaded as error:
            self.stats.errors += 1
            if error.reason == "quota":
                self.stats.shed_quota += 1
            else:
                self.stats.shed_overload += 1
            await self._send(writer, self._error(request_id, error))
        except DeadlineExceeded as error:
            self.stats.errors += 1
            self.stats.deadline_exceeded += 1
            await self._send(writer, self._error(request_id, error))
        except (QueryError, DataError, ValueError, KeyError) as error:
            self.stats.errors += 1
            await self._send(writer, self._error(request_id, error))
        except CapacityExceeded as error:
            self.stats.errors += 1
            await self._send(writer, self._error(request_id, error))
        except Exception as error:  # noqa: BLE001 -- the loop must live
            self.stats.errors += 1
            await self._send(writer, self._error(request_id, error))

    def _check_quota(self, request: dict, connection_key: str) -> None:
        """Bill one request against its client's token bucket."""
        if self.quota_rps is None:
            return
        client_id = request.get("client_id")
        key = (
            str(client_id)
            if isinstance(client_id, (str, int))
            else connection_key
        )
        bucket = self._quotas.pop(key, None)
        if bucket is None:
            bucket = TokenBucket(self.quota_rps, self.quota_burst)
        # Re-insert (LRU by recency of use), then bound the store.
        self._quotas[key] = bucket
        while len(self._quotas) > MAX_QUOTA_BUCKETS:
            self._quotas.pop(next(iter(self._quotas)))
        if not bucket.try_acquire():
            raise ServerOverloaded("quota", bucket.retry_after_ms())

    @staticmethod
    def _error(request_id: Any, error: Exception) -> dict:
        message = str(error) or error.__class__.__name__
        response = {
            "ok": False,
            "error": message,
            "error_type": error.__class__.__name__,
        }
        if isinstance(error, ServerOverloaded):
            response["reason"] = error.reason
            response["retry_after_ms"] = round(error.retry_after_ms, 3)
        if isinstance(error, DeadlineExceeded):
            response["where"] = error.where
            response["elapsed_ms"] = round(error.elapsed_ms, 3)
            response["budget_ms"] = error.budget_ms
        if request_id is not None:
            response["id"] = request_id
        return response

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(encode_line(payload))
        await writer.drain()

    # -- operations ---------------------------------------------------------

    async def _dispatch(
        self,
        op: str,
        request: dict,
        writer: asyncio.StreamWriter,
        request_id: Any,
    ) -> list[dict]:
        if op == "ping":
            return [{"ok": True, "pong": True}]
        if op == "query":
            return await self._op_query(request, writer, request_id)
        if op == "explain":
            return [await self._op_explain(request)]
        if op in ("update", "delete"):
            return [await self._op_update(op, request)]
        if op == "stats":
            loop = asyncio.get_running_loop()
            return [await loop.run_in_executor(self._pool, self._op_stats)]
        raise QueryError(
            f"unknown op {op!r} "
            "(query / explain / update / delete / stats / ping)"
        )

    def _statement(self, request: dict) -> "Statement":
        q = request.get("q")
        if not isinstance(q, str) or not q.strip():
            raise QueryError("missing query text 'q'")
        algorithm = request.get("algorithm")
        if algorithm is not None and not isinstance(algorithm, str):
            raise QueryError("'algorithm' must be a string")
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None:
            # json parses NaN and Infinity; neither is a budget.
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or not 0 < deadline_ms < math.inf
            ):
                raise QueryError(
                    f"'deadline_ms' must be a positive finite number, "
                    f"got {deadline_ms!r}"
                )
        return self.session.query(
            q,
            eps=_parse_eps(request.get("eps")),
            algorithm=algorithm,
            allow_partial=bool(request.get("allow_partial", False)),
            deadline_ms=deadline_ms,
        )

    async def _op_query(
        self,
        request: dict,
        writer: asyncio.StreamWriter,
        request_id: Any,
    ) -> list[dict]:
        statement = self._statement(request)
        stream = bool(request.get("stream"))
        batch_rows = _parse_batch(request.get("batch"))
        start = time.perf_counter()
        result, coalesced = statement.held(), False
        if result is not None:
            self.stats.held += 1
        else:
            if self.admission is not None:
                await self.admission.acquire()
            try:
                result, coalesced = await self._execute(statement)
            finally:
                if self.admission is not None:
                    self.admission.release()
        elapsed = time.perf_counter() - start
        self.stats.request_latency.observe(elapsed)
        summary = {
            "ok": True,
            "count": len(result.table),
            "version": result.version,
            "algorithm": result.algorithm,
            "plan_hit": result.plan_hit,
            "result_hit": result.cached,
            "coalesced": coalesced,
            "elapsed_ms": round(elapsed * 1000, 3),
        }
        if not stream:
            summary["answers"] = result.answer_views.json
            return [summary]
        # Batches are written incrementally: one batch is encoded and
        # on the wire (with drain() applying the client's backpressure)
        # before the next is built, so peak memory per streamed query
        # is one batch rather than the whole result.
        from repro.engine.faults import disconnect_after_batches

        fault_after = disconnect_after_batches()
        batches = 0
        table = result.table
        try:
            for index in range(0, len(table), batch_rows):
                if fault_after is not None and batches >= fault_after:
                    # Injected fault: the client vanished mid-stream.
                    writer.transport.abort()
                    raise ConnectionResetError(
                        "injected mid-stream disconnect"
                    )
                line: dict[str, Any] = {
                    "batch": encode_answers(table[index:index + batch_rows])
                }
                if request_id is not None:
                    line["id"] = request_id
                await self._send(writer, line)
                batches += 1
                self.stats.streamed_batches += 1
        except (ConnectionResetError, BrokenPipeError):
            self.stats.aborted_streams += 1
            raise
        summary["done"] = True
        summary["batches"] = batches
        return [summary]

    async def _op_explain(self, request: dict) -> dict:
        statement = self._statement(request)
        loop = asyncio.get_running_loop()
        explain = await loop.run_in_executor(self._pool, statement.explain)
        response = {"ok": True, "explain": explain.to_dict()}
        if request.get("plan"):
            response["plan"] = await loop.run_in_executor(
                self._pool, statement.describe_plan
            )
        return response

    async def _op_update(self, op: str, request: dict) -> dict:
        relation = request.get("relation")
        if not isinstance(relation, str) or not relation:
            raise QueryError(f"{op} needs a 'relation'")
        rows = _parse_rows(request.get("rows"))
        delta = {relation: rows}
        loop = asyncio.get_running_loop()
        version = await loop.run_in_executor(
            self._pool,
            lambda: self.session.update(
                inserts=delta if op == "update" else None,
                deletes=delta if op == "delete" else None,
            ),
        )
        return {
            "ok": True,
            "version": version,
            "rows": len(rows),
            "relation": relation,
        }

    def stats_snapshot(self) -> Snapshot:
        """Every declared instrument of this server and its session."""
        admission = self.admission
        return {
            **snapshot(
                self.stats,
                self,
                admission or AdmissionQueue,
                admission.stats if admission else AdmissionStats(),
            ),
            **self.session.stats_snapshot(),
        }

    def _op_stats(self) -> dict:
        return {"ok": True, **stats_dict(self.stats_snapshot())}

    # -- execution with cross-request coalescing ----------------------------

    async def _execute(self, statement: "Statement"):
        loop = asyncio.get_running_loop()
        if not self.coalesce:
            return (
                await loop.run_in_executor(self._pool, statement.execute),
                False,
            )
        key = (statement.canonical_key(), self.session.version)
        future = self._inflight.get(key)
        if future is not None:
            self.stats.coalesced += 1
            return await asyncio.shield(future), True
        future = loop.run_in_executor(self._pool, statement.execute)
        self._inflight[key] = future
        try:
            return await asyncio.shield(future), False
        finally:
            if self._inflight.get(key) is future:
                del self._inflight[key]


async def _skip_headers(reader: asyncio.StreamReader) -> None:
    """Read an HTTP request's headers up to the blank line."""
    while await reader.readline() not in (b"\r\n", b"\n", b""):
        pass


async def serve_tcp(
    session: "Session",
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    coalesce: bool = True,
    max_inflight: int = 0,
    max_queue: int = 16,
    quota_rps: float | None = None,
    quota_burst: float | None = None,
    idle_timeout: float | None = None,
    ready: "asyncio.Event | None" = None,
    announce=print,
) -> None:
    """Run an :class:`RpcServer` until cancelled (the CLI entry).

    The port speaks JSON lines, and answers HTTP ``GET /metrics`` and
    ``GET /healthz`` too.

    Args:
        session: the session to serve.
        host / port: bind address.
        coalesce: share in-flight identical statements.
        max_inflight / max_queue / quota_rps / quota_burst /
            idle_timeout: hardening knobs (see :class:`RpcServer`).
        ready: optional event set once the socket is bound (tests).
        announce: called with a human-readable "listening" line.
    """
    server = RpcServer(
        session,
        host,
        port,
        coalesce=coalesce,
        max_inflight=max_inflight,
        max_queue=max_queue,
        quota_rps=quota_rps,
        quota_burst=quota_burst,
        idle_timeout=idle_timeout,
    )
    bound_host, bound_port = await server.start()
    if announce is not None:
        announce(
            f"repro rpc: listening on {bound_host}:{bound_port} "
            "(JSON lines; ops: query / explain / update / delete / "
            "stats / ping)"
        )
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    finally:
        await server.close()
