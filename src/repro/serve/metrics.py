"""A Prometheus text-format ``/metrics`` endpoint for the RPC server.

Operating "millions of users" starts with seeing the server: this
module renders every serving-layer counter -- RPC protocol stats,
admission/shed/quota/deadline counters, service cache hits, fan-out
worker liveness, per-phase execution-latency histograms -- in the
Prometheus text exposition format (version 0.0.4), served by a tiny
asyncio HTTP/1.x listener (:class:`MetricsServer`) that shares the
RPC server's event loop.  No third-party client library: the format
is lines of ``name{labels} value`` with ``# HELP`` / ``# TYPE``
comments, and writing it directly keeps the serving path free of new
dependencies.

The module deliberately imports nothing from the rest of the serving
layer at module scope -- :class:`Histogram` is used *by*
:class:`~repro.serve.service.ServiceStats`, so the dependency arrow
points here.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Iterable

#: Prometheus text exposition format version served as Content-Type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default latency buckets (seconds): sub-millisecond service hits up
#: to multi-second heavy plans, roughly x2.5 per step.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe`` is O(buckets); rendering emits the cumulative
    ``_bucket`` series (each ``le`` bound counts observations at or
    below it), plus ``_sum`` and ``_count``.  Picklable (fan-out
    workers ship their ServiceStats, histograms included, over the
    pipe).
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(
        self, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.bounds = tuple(sorted(float(bound) for bound in bounds))
        if not self.bounds:
            raise ValueError("need at least one bucket bound")
        #: per-bound non-cumulative counts plus the +Inf overflow slot.
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (seconds, bytes -- any unit)."""
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError("histogram bucket bounds differ")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.count += other.count

    def quantile(self, q: float) -> float:
        """A bucket-resolution quantile estimate (upper bound)."""
        if not 0 <= q <= 1:
            raise ValueError(f"need 0 <= q <= 1, got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bound in enumerate(self.bounds):
            seen += self.counts[index]
            if seen >= target:
                return bound
        return float("inf")

    def __reduce__(self):
        return (
            _rebuild_histogram,
            (self.bounds, tuple(self.counts), self.total, self.count),
        )


def _rebuild_histogram(bounds, counts, total, count) -> Histogram:
    histogram = Histogram(bounds)
    histogram.counts = list(counts)
    histogram.total = total
    histogram.count = count
    return histogram


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == float("inf"):
            return "+Inf"
        return repr(value)
    return str(value)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels(labels: dict[str, Any] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Accumulates one scrape's lines, then renders the page."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._lines: list[str] = []

    def sample(
        self,
        name: str,
        kind: str,
        help_text: str,
        value: Any = None,
        series: Iterable[tuple[dict[str, Any] | None, Any]] | None = None,
    ) -> None:
        """One metric family: HELP + TYPE + its sample lines."""
        full = f"{self.prefix}_{name}"
        self._lines.append(f"# HELP {full} {help_text}")
        self._lines.append(f"# TYPE {full} {kind}")
        if series is None:
            series = [(None, value)]
        for labels, sample_value in series:
            self._lines.append(
                f"{full}{_labels(labels)} {_format_value(sample_value)}"
            )

    def histogram(
        self,
        name: str,
        help_text: str,
        histograms: Iterable[tuple[dict[str, Any] | None, Histogram]],
    ) -> None:
        """One histogram family (cumulative buckets, _sum, _count)."""
        full = f"{self.prefix}_{name}"
        self._lines.append(f"# HELP {full} {help_text}")
        self._lines.append(f"# TYPE {full} histogram")
        for labels, histogram in histograms:
            base = dict(labels or {})
            cumulative = 0
            for bound, count in zip(
                histogram.bounds, histogram.counts
            ):
                cumulative += count
                bucket_labels = dict(base)
                bucket_labels["le"] = _format_value(float(bound))
                self._lines.append(
                    f"{full}_bucket{_labels(bucket_labels)} {cumulative}"
                )
            bucket_labels = dict(base)
            bucket_labels["le"] = "+Inf"
            self._lines.append(
                f"{full}_bucket{_labels(bucket_labels)} "
                f"{histogram.count}"
            )
            self._lines.append(
                f"{full}_sum{_labels(base or None)} "
                f"{_format_value(histogram.total)}"
            )
            self._lines.append(
                f"{full}_count{_labels(base or None)} {histogram.count}"
            )

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_metrics(server: Any) -> str:
    """The full ``/metrics`` page for one RPC server.

    ``server`` is an :class:`~repro.serve.rpc.RpcServer`; duck-typed
    so tests can feed a stub.  Counter names follow the Prometheus
    conventions: ``_total`` suffix on counters, base units (seconds),
    one family per concern.
    """
    registry = MetricsRegistry()
    rpc = server.stats
    session = server.session
    service = session.stats

    registry.sample(
        "rpc_connections_total", "counter",
        "Client connections accepted.", rpc.connections,
    )
    registry.sample(
        "rpc_requests_total", "counter",
        "Requests received, by operation.",
        series=[
            ({"op": op}, count)
            for op, count in sorted(rpc.by_op.items())
        ] or [(None, 0)],
    )
    registry.sample(
        "rpc_errors_total", "counter",
        "Requests answered with ok=false.", rpc.errors,
    )
    registry.sample(
        "rpc_coalesced_total", "counter",
        "Queries served by an identical in-flight execution.",
        rpc.coalesced,
    )
    registry.sample(
        "rpc_streamed_batches_total", "counter",
        "Batch lines written for streamed queries.",
        rpc.streamed_batches,
    )
    registry.sample(
        "rpc_idle_timeouts_total", "counter",
        "Connections closed by the idle read timeout.",
        rpc.idle_timeouts,
    )
    registry.sample(
        "rpc_aborted_streams_total", "counter",
        "Streamed responses cut short by client disconnects.",
        rpc.aborted_streams,
    )
    registry.sample(
        "rpc_deadline_exceeded_total", "counter",
        "Requests that ran out of their deadline_ms budget.",
        rpc.deadline_exceeded,
    )
    registry.sample(
        "rpc_shed_total", "counter",
        "Requests shed with ServerOverloaded, by reason.",
        series=[
            ({"reason": "queue_full"}, rpc.shed_overload),
            ({"reason": "quota"}, rpc.shed_quota),
        ],
    )

    admission = server.admission
    registry.sample(
        "admission_inflight", "gauge",
        "Queries currently holding an execution slot.",
        admission.inflight if admission is not None else 0,
    )
    registry.sample(
        "admission_queued", "gauge",
        "Queries currently waiting for an execution slot.",
        admission.queued if admission is not None else 0,
    )
    registry.sample(
        "admission_admitted_total", "counter",
        "Queries granted an execution slot.",
        admission.stats.admitted if admission is not None else 0,
    )
    registry.sample(
        "admission_limit_inflight", "gauge",
        "Configured max_inflight (0 = admission control off).",
        admission.max_inflight if admission is not None else 0,
    )
    registry.sample(
        "admission_limit_queue", "gauge",
        "Configured max_queue.",
        admission.max_queue if admission is not None else 0,
    )

    registry.sample(
        "service_requests_total", "counter",
        "Statements the query service accepted.", service.requests,
    )
    registry.sample(
        "service_executions_total", "counter",
        "Statements that executed (result-cache misses).",
        service.executions,
    )
    registry.sample(
        "service_result_hits_total", "counter",
        "Whole-execution result-cache hits.", service.result_hits,
    )
    registry.sample(
        "service_cache_evictions_total", "counter",
        "Size-cap evictions, by cache layer.",
        series=[
            ({"cache": "plan"}, service.plans.evictions),
            ({"cache": "result"}, service.result_evictions),
        ],
    )
    registry.sample(
        "service_plan_compiles_total", "counter",
        "Plan-cache misses (fresh compilations).",
        service.plans.misses,
    )
    registry.sample(
        "service_updates_total", "counter",
        "Database mutations applied.", service.updates,
    )
    registry.sample(
        "service_answers_served_total", "counter",
        "Answer tuples returned across all requests.",
        service.answers_served,
    )
    registry.sample(
        "service_capacity_failures_total", "counter",
        "Executions that raised CapacityExceeded.",
        service.capacity_failures,
    )
    registry.sample(
        "service_deadline_exceeded_total", "counter",
        "Executions cancelled by their deadline.",
        service.deadline_exceeded,
    )
    registry.sample(
        "ivm_requests_total", "counter",
        "Post-delta executions the IVM layer was consulted for, "
        "by outcome.",
        series=[
            ({"outcome": "hit"}, service.ivm_hits),
            ({"outcome": "fallback"}, service.ivm_fallbacks),
        ],
    )
    ivm = getattr(getattr(session, "service", None), "ivm", None)
    registry.sample(
        "ivm_fallbacks_total", "counter",
        "IVM fallbacks to full re-execution, by reason.",
        series=[
            ({"reason": reason}, count)
            for reason, count in sorted(
                ivm.fallback_reasons.items()
            )
        ] if ivm is not None and ivm.fallback_reasons else [(None, 0)],
    )
    registry.sample(
        "ivm_retained_bytes", "gauge",
        "Bytes of routed state retained for incremental maintenance.",
        ivm.retained_bytes if ivm is not None else 0,
    )
    registry.sample(
        "ivm_retained_states", "gauge",
        "Retained (plan variant) states in the IVM store.",
        ivm.retained_states if ivm is not None else 0,
    )
    registry.sample(
        "phase_seconds_total", "counter",
        "Cumulative execution seconds, by engine phase.",
        series=[
            ({"phase": phase}, seconds)
            for phase, seconds in sorted(
                service.phase_seconds.items()
            )
        ],
    )
    registry.histogram(
        "phase_seconds", "Per-execution seconds, by engine phase.",
        [
            ({"phase": phase}, histogram)
            for phase, histogram in sorted(
                service.phase_histograms.items()
            )
        ],
    )
    registry.histogram(
        "request_seconds",
        "RPC query latency (admission wait + execution).",
        [(None, rpc.request_latency)],
    )

    fanout = getattr(session, "fanout", None)
    registry.sample(
        "fanout_workers", "gauge",
        "Configured fan-out worker processes.",
        fanout.workers if fanout is not None else 0,
    )
    registry.sample(
        "fanout_usable", "gauge",
        "Whether the fan-out pool can still dispatch (1 = yes).",
        bool(fanout is not None and fanout.usable),
    )
    registry.sample(
        "fanout_alive_workers", "gauge",
        "Fan-out worker processes currently alive.",
        fanout.alive_workers if fanout is not None else 0,
    )
    registry.sample(
        "fanout_queries_total", "counter",
        "Statements dispatched to fan-out workers.",
        fanout.queries if fanout is not None else 0,
    )
    registry.sample(
        "fanout_killed_stragglers_total", "counter",
        "Workers that had to be killed at shutdown.",
        fanout.killed_stragglers if fanout is not None else 0,
    )

    registry.sample(
        "database_version", "gauge",
        "Current database version.", session.version,
    )
    from repro.engine.faults import active_faults

    registry.sample(
        "faults_active", "gauge",
        "Whether any REPRO_FAULT_* injection knob is set.",
        active_faults().any_active,
    )
    return registry.render()


class MetricsServer:
    """A minimal HTTP/1.x listener serving ``GET /metrics``.

    Shares the RPC server's event loop (no threads): one
    ``asyncio.start_server`` whose handler answers ``/metrics`` with
    the rendered page, ``/healthz`` with a liveness line, and
    anything else with 404.  Keep-alive is not offered
    (``Connection: close``) -- scrapers reconnect per scrape.
    """

    def __init__(
        self,
        rpc_server: Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.rpc_server = rpc_server
        self.host = host
        self.port = port
        self.scrapes = 0
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("metrics server not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._client, self.host, self.port
        )
        return self.address

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "MetricsServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=10.0
            )
            parts = request_line.decode("latin-1").split()
            # Drain headers up to the blank line (ignored).
            while True:
                header = await asyncio.wait_for(
                    reader.readline(), timeout=10.0
                )
                if header in (b"\r\n", b"\n", b""):
                    break
            if len(parts) < 2 or parts[0] != "GET":
                await self._respond(
                    writer, 405, "text/plain", "method not allowed\n"
                )
                return
            path = parts[1].split("?", 1)[0]
            if path == "/metrics":
                self.scrapes += 1
                await self._respond(
                    writer,
                    200,
                    CONTENT_TYPE,
                    render_metrics(self.rpc_server),
                )
            elif path == "/healthz":
                payload = json.dumps(
                    {"ok": True, "version": self.rpc_server.session.version}
                )
                await self._respond(
                    writer, 200, "application/json", payload + "\n"
                )
            else:
                await self._respond(
                    writer, 404, "text/plain", "not found\n"
                )
        except (
            asyncio.TimeoutError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
