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
    ``batch`` rows each, then a final ``done`` summary without the
    answers inlined).
``explain``
    The planner's report for a statement, without executing it.
``update`` / ``delete``
    Mutate one relation: ``relation`` plus ``rows`` (list of rows).
``stats``
    Service + planner + RPC counters.
``ping``
    Liveness probe.

Malformed JSON, unknown operations, bad queries and execution errors
all come back as structured ``{"ok": false, "error": ...}`` lines --
the connection (and the server) always survives a bad request.

**Concurrency and coalescing.**  The session object is not
thread-safe: its planner/profile caches, plan cache and pooled
simulators are all unsynchronized, and the coalescing key pairs each
statement with the version current at submit -- which must still be
the version at execute.  Control operations (explain, update, stats)
therefore always run on a single worker thread.  Query dispatch is
governed by ``workers``:

* ``workers=1`` (the safe default): queries share the same single
  thread, keeping the session strictly serialized while the event
  loop keeps accepting, parsing and responding -- many closed-loop
  clients pipeline instead of queueing on the network.
* ``workers=N >= 2`` (requires a session built with fan-out, i.e.
  ``connect(db, workers=N)``): queries run on ``N`` dispatcher
  threads.  This is safe *only* because a fan-out session's query
  path never touches the shared session state -- each statement is
  shipped whole to an idle worker process holding its own session
  over the shared-memory snapshot.  Updates still serialize on the
  control thread and broadcast behind an all-workers barrier whose
  *last* step publishes the parent version, so a query keyed at the
  new version can never execute against a stale worker (a query
  keyed just before the bump may execute one version fresh -- the
  two were concurrent, so that serialization is equally legal).  If
  the fan-out pool breaks at runtime (worker OOM-killed), query
  dispatch drops back to the single control thread: the session's
  own execution lock already serializes the in-process fallback, but
  single-threading it also restores the strict query/update ordering
  of ``workers=1``.

Identical canonicalized statements arriving while one is already in
flight *coalesce* in both modes: they await the same execution future
and each gets the shared result (counted in ``RpcStats.coalesced``).
This is the cross-request batching the ROADMAP asks for -- the dual
of the result cache, which only helps *after* an execution finishes.

**Hardening.**  Production knobs, all off by default:

* ``deadline_ms`` on a ``query`` request bounds its latency; overruns
  come back as ``{"ok": false, "error_type": "DeadlineExceeded"}``.
* ``max_inflight`` / ``max_queue`` bound concurrent query execution;
  excess load is shed immediately with ``"ServerOverloaded"`` (reason
  ``queue_full``) instead of queueing without limit.
* ``quota_rps`` / ``quota_burst`` rate-limit each client (keyed by
  the optional wire-level ``client_id``, else per connection);
  over-quota requests shed with reason ``quota``.
* ``idle_timeout`` closes connections that send nothing for that many
  seconds (counted in :class:`RpcStats`).
* Streamed ``batch`` lines are written incrementally -- peak memory
  per streamed query is one batch, and ``writer.drain()`` pushes
  client backpressure into the stream.
* A :class:`~repro.serve.metrics.MetricsServer` (``repro serve --tcp
  --metrics-port N``) exports everything in Prometheus text format.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from typing import TYPE_CHECKING

from repro.core.query import QueryError
from repro.data.database import DataError
from repro.engine.deadline import DeadlineExceeded
from repro.mpc.simulator import CapacityExceeded
from repro.serve.admission import (
    AdmissionQueue,
    ServerOverloaded,
    TokenBucket,
)
from repro.serve.metrics import Histogram

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


@dataclass
class RpcStats:
    """Counters of one server's lifetime."""

    connections: int = 0
    requests: int = 0
    errors: int = 0
    coalesced: int = 0
    streamed_batches: int = 0
    #: Queries shed by the admission queue / by a client quota.
    shed_overload: int = 0
    shed_quota: int = 0
    #: Requests that ran out of their ``deadline_ms`` budget.
    deadline_exceeded: int = 0
    #: Connections closed by the idle read timeout.
    idle_timeouts: int = 0
    #: Streamed responses cut short by a client disconnect.
    aborted_streams: int = 0
    by_op: dict[str, int] = field(default_factory=dict)
    #: Query latency (admission wait + execution + first write),
    #: seconds -- the /metrics request histogram.
    request_latency: Histogram = field(default_factory=Histogram)

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


def _parse_rows(value: Any) -> list[tuple[int, ...]]:
    if not isinstance(value, list) or not value:
        raise QueryError("'rows' must be a non-empty list of rows")
    try:
        return [tuple(int(v) for v in row) for row in value]
    except (TypeError, ValueError) as error:
        raise QueryError(f"bad row in 'rows': {error}") from None


class RpcServer:
    """The JSON-lines server; one instance wraps one session.

    Args:
        session: the planner-backed session every request executes
            against.
        host / port: bind address (port 0 picks a free port; read the
            bound one from :attr:`address` after :meth:`start`).
        coalesce: share in-flight executions between identical
            concurrent statements (on by default).
        workers: query-dispatch thread count.  Defaults to the
            session's fan-out width (its ``workers`` option) so
            ``connect(db, workers=N)`` + ``RpcServer(session)`` just
            works; pass explicitly to override.  Clamped to 1 when
            the session has no usable fan-out pool at construction,
            and queries re-route to the single control thread at
            dispatch time if the pool breaks later -- the in-process
            execution path never runs from several threads (see the
            module docstring for the contract).
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

    def __init__(
        self,
        session: "Session",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        coalesce: bool = True,
        workers: int | None = None,
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
        # One control worker, always: explain/update/stats touch the
        # session's unsynchronized caches, and a strict execution
        # order keeps version-at-submit equal to version-at-execute
        # for the coalescing key.
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-rpc"
        )
        if workers is None:
            workers = getattr(session, "workers", 1)
        fanout = getattr(session, "fanout", None)
        if fanout is None or not fanout.usable:
            workers = 1  # no fan-out pool: single-threaded is the
            # only safe dispatch (the hardcoded pre-parallel default).
        self.workers = workers
        # Query dispatch: the fan-out query path never touches shared
        # session state, so with a fan-out session N threads may each
        # drive one executor process concurrently.
        self._query_pool = (
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-rpc-q"
            )
            if workers > 1
            else self._pool
        )
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._clients: set[asyncio.Task] = set()

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
        """Run until cancelled (:meth:`start` first)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain client handlers, release the worker."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(*self._clients, return_exceptions=True)
        self._clients.clear()
        if self._query_pool is not self._pool:
            self._query_pool.shutdown(wait=True)
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
            while True:
                try:
                    if self.idle_timeout is None:
                        line = await reader.readline()
                    else:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=self.idle_timeout
                        )
                except asyncio.TimeoutError:
                    self.stats.idle_timeouts += 1
                    try:
                        await self._send(
                            writer,
                            {
                                "ok": False,
                                "error": (
                                    "connection idle for more than "
                                    f"{self.idle_timeout:g} s"
                                ),
                                "error_type": "IdleTimeout",
                            },
                        )
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                    break
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # over-long line: unrecoverable framing, drop client
                    await self._send(
                        writer,
                        {"ok": False, "error": "request line too long"},
                    )
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                await self._serve_line(text, writer, connection_key)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

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
        writer.write(json.dumps(payload, separators=(",", ":")).encode())
        writer.write(b"\n")
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
            return [self._op_stats()]
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
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0
            ):
                raise QueryError(
                    f"'deadline_ms' must be a positive number, "
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
        batch_rows = int(request.get("batch", DEFAULT_BATCH_ROWS))
        if stream and batch_rows < 1:
            raise QueryError(f"need batch >= 1, got {batch_rows}")
        start = time.perf_counter()
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
            "count": len(result.answers),
            "version": result.version,
            "algorithm": result.algorithm,
            "plan_hit": result.raw.plan_hit,
            "result_hit": result.raw.result_hit,
            "coalesced": coalesced,
            "elapsed_ms": round(elapsed * 1000, 3),
        }
        if not stream:
            summary["answers"] = [list(row) for row in result.answers]
            return [summary]
        # Batches are written incrementally: one batch is encoded and
        # on the wire (with drain() applying the client's backpressure)
        # before the next is built, so peak memory per streamed query
        # is one batch rather than the whole result.
        from repro.engine.faults import disconnect_after_batches

        fault_after = disconnect_after_batches()
        batches = 0
        try:
            for index in range(0, len(result.answers), batch_rows):
                if fault_after is not None and batches >= fault_after:
                    # Injected fault: the client vanished mid-stream.
                    writer.transport.abort()
                    raise ConnectionResetError(
                        "injected mid-stream disconnect"
                    )
                line: dict[str, Any] = {
                    "batch": [
                        list(row)
                        for row in result.answers[index:index + batch_rows]
                    ]
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

    def _op_stats(self) -> dict:
        report = self.session.stats_report()
        report["parallel"]["dispatch_threads"] = self.workers
        return {
            "ok": True,
            "rpc": {
                "connections": self.stats.connections,
                "requests": self.stats.requests,
                "errors": self.stats.errors,
                "coalesced": self.stats.coalesced,
                "streamed_batches": self.stats.streamed_batches,
                "shed_overload": self.stats.shed_overload,
                "shed_quota": self.stats.shed_quota,
                "deadline_exceeded": self.stats.deadline_exceeded,
                "idle_timeouts": self.stats.idle_timeouts,
                "aborted_streams": self.stats.aborted_streams,
                "by_op": dict(self.stats.by_op),
            },
            "admission": {
                "enabled": self.admission is not None,
                "max_inflight": (
                    self.admission.max_inflight
                    if self.admission is not None
                    else 0
                ),
                "max_queue": (
                    self.admission.max_queue
                    if self.admission is not None
                    else 0
                ),
                "inflight": (
                    self.admission.inflight
                    if self.admission is not None
                    else 0
                ),
                "queued": (
                    self.admission.queued
                    if self.admission is not None
                    else 0
                ),
                "admitted": (
                    self.admission.stats.admitted
                    if self.admission is not None
                    else 0
                ),
                "shed": (
                    self.admission.stats.shed
                    if self.admission is not None
                    else 0
                ),
                "peak_inflight": (
                    self.admission.stats.peak_inflight
                    if self.admission is not None
                    else 0
                ),
                "peak_queued": (
                    self.admission.stats.peak_queued
                    if self.admission is not None
                    else 0
                ),
                "quota_rps": self.quota_rps,
                "quota_clients": len(self._quotas),
                "idle_timeout": self.idle_timeout,
            },
            **report,
        }

    # -- execution with cross-request coalescing ----------------------------

    def _dispatch_pool(self) -> ThreadPoolExecutor:
        """The executor queries run on *right now*.

        Multi-threaded dispatch is only legal while the session's
        fan-out pool is alive.  If workers died since the server was
        built, ``statement.execute`` would run its in-process fallback
        -- so queries drop back to the single control thread, which
        both serializes them with updates again and avoids contending
        on the session's execution lock from N threads.
        """
        if self._query_pool is self._pool:
            return self._pool
        fanout = getattr(self.session, "fanout", None)
        if fanout is None or not fanout.usable:
            return self._pool
        return self._query_pool

    async def _execute(self, statement: "Statement"):
        loop = asyncio.get_running_loop()
        pool = self._dispatch_pool()
        if not self.coalesce:
            return (
                await loop.run_in_executor(pool, statement.execute),
                False,
            )
        key = (statement.canonical_key(), self.session.version)
        future = self._inflight.get(key)
        if future is not None:
            self.stats.coalesced += 1
            return await asyncio.shield(future), True
        future = loop.run_in_executor(pool, statement.execute)
        self._inflight[key] = future
        try:
            return await asyncio.shield(future), False
        finally:
            if self._inflight.get(key) is future:
                del self._inflight[key]


async def serve_tcp(
    session: "Session",
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    coalesce: bool = True,
    workers: int | None = None,
    max_inflight: int = 0,
    max_queue: int = 16,
    quota_rps: float | None = None,
    quota_burst: float | None = None,
    idle_timeout: float | None = None,
    metrics_port: int | None = None,
    ready: "asyncio.Event | None" = None,
    announce=print,
) -> None:
    """Run an :class:`RpcServer` until cancelled (the CLI entry).

    Args:
        session: the session to serve.
        host / port: bind address.
        coalesce: share in-flight identical statements.
        workers: query-dispatch thread count (see :class:`RpcServer`;
            None follows the session's fan-out width).
        max_inflight / max_queue / quota_rps / quota_burst /
            idle_timeout: hardening knobs (see :class:`RpcServer`).
        metrics_port: also serve ``GET /metrics`` (Prometheus text
            format) on this port, same host; None disables.
        ready: optional event set once the socket is bound (tests).
        announce: called with a human-readable "listening" line.
    """
    from repro.serve.metrics import MetricsServer

    server = RpcServer(
        session,
        host,
        port,
        coalesce=coalesce,
        workers=workers,
        max_inflight=max_inflight,
        max_queue=max_queue,
        quota_rps=quota_rps,
        quota_burst=quota_burst,
        idle_timeout=idle_timeout,
    )
    bound_host, bound_port = await server.start()
    metrics: MetricsServer | None = None
    if metrics_port is not None:
        metrics = MetricsServer(server, host=host, port=metrics_port)
        metrics_host, metrics_bound = await metrics.start()
        if announce is not None:
            announce(
                f"repro metrics: http://{metrics_host}:{metrics_bound}"
                "/metrics"
            )
    if announce is not None:
        announce(
            f"repro rpc: listening on {bound_host}:{bound_port} "
            f"({server.workers} dispatch thread"
            f"{'s' if server.workers != 1 else ''}; JSON lines; ops: "
            "query / explain / update / delete / stats / ping)"
        )
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    finally:
        if metrics is not None:
            await metrics.close()
        await server.close()
