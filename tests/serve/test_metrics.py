"""The /metrics endpoint: histogram math, text grammar, HTTP serving
on the RPC port, and the declared instruments both stats views walk."""

from __future__ import annotations

import ast
import asyncio
import inspect
import json
import re
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import connect
from repro.api.session import Session
from repro.core.query import parse_query
from repro.data.generators import matching_database
from repro.planner import PlannerStats
from repro.serve.admission import AdmissionQueue, AdmissionStats
from repro.serve.cache import PlanCacheStats
from repro.serve.ivm import IvmManager
from repro.serve import rpc as rpc_module
from repro.serve.metrics import (
    CONTENT_TYPE,
    Histogram,
    declared,
    render_metrics,
    stats_dict,
)
from repro.serve.rpc import RpcServer, RpcStats
from repro.serve.service import ServiceStats
from tests.serve.test_rpc import shutdown_test

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")

METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)$"
)
LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def _session(n=60, **kwargs):
    return connect(matching_database(VOCAB, n=n, rng=7), p=8, **kwargs)


def parse_exposition(text: str) -> dict[str, dict]:
    """Validate Prometheus text format 0.0.4; return family metadata.

    Enforces the grammar the Prometheus scraper enforces: every
    sample belongs to a family announced by ``# TYPE``, names and
    labels are well-formed, values parse as floats (``+Inf``
    included), and each family's samples are contiguous.
    """
    families: dict[str, dict] = {}
    current: str | None = None
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert METRIC_NAME.fullmatch(name), name
            assert help_text, f"empty HELP for {name}"
            assert name not in families, f"duplicate family {name}"
            families[name] = {"help": help_text, "samples": []}
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name in families, f"TYPE before HELP for {name}"
            assert kind in ("counter", "gauge", "histogram", "summary")
            families[name]["type"] = kind
            current = name
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = SAMPLE_LINE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        assert current is not None, f"sample before any TYPE: {line!r}"
        base = current
        if families[current].get("type") == "histogram":
            assert (
                name == base
                or name.startswith(base + "_bucket")
                or name in (base + "_sum", base + "_count")
            ), f"{name} outside histogram family {base}"
        else:
            assert name == base, (
                f"sample {name} outside announced family {base}"
            )
        labels = match.group("labels")
        parsed_labels: dict[str, str] = {}
        if labels:
            inner = labels[1:-1]
            for part in inner.split(","):
                assert LABEL.match(part), f"bad label {part!r} in {line!r}"
                key, _, value = part.partition("=")
                parsed_labels[key] = value[1:-1]
        raw_value = match.group("value")
        value = (
            float("inf")
            if raw_value == "+Inf"
            else float(raw_value)
        )
        families[current]["samples"].append((name, parsed_labels, value))
    for name, family in families.items():
        assert "type" in family, f"family {name} missing TYPE"
        assert family["samples"], f"family {name} has no samples"
    return families


async def _http_get(host, port, path, method="GET"):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
    )
    await writer.drain()
    status_line = (await reader.readline()).decode()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode().partition(":")
        headers[key.strip().lower()] = value.strip()
    body = (await reader.read()).decode()
    writer.close()
    await writer.wait_closed()
    return int(status_line.split()[1]), headers, body


class TestHistogram:
    def test_observe_fills_buckets(self):
        histogram = Histogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.total == pytest.approx(5.605)
        assert histogram.counts == [1, 2, 1, 1]  # last = overflow

    def test_a_snapshot_does_not_move_with_the_live_histogram(self):
        session = _session()
        try:
            server = RpcServer(session)
            live = server.stats.request_latency
            live.observe(0.5)
            ((_, taken),) = [
                value
                for (_, key), value in server.stats_snapshot().items()
                if key == "request_latency"
            ]
            live.observe(0.5)
            live.observe(50.0)
            assert taken is not live
            assert (taken.count, taken.total) == (1, 0.5)
            assert sum(taken.counts) == 1
            assert taken.counts[-1] == 0
        finally:
            session.close()


class TestRenderMetrics:
    def _serve_some_traffic(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(
                    session, max_inflight=2, max_queue=2
                ) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    for request in (
                        {"id": 1, "op": "query", "q": "S1(x,y), S2(y,z)"},
                        {"id": 2, "op": "query", "q": "nonsense("},
                        {"id": 3, "op": "ping"},
                    ):
                        writer.write(
                            (json.dumps(request) + "\n").encode()
                        )
                        await writer.drain()
                        await reader.readline()
                    writer.close()
                    await writer.wait_closed()
                    return render_metrics(server)
            finally:
                session.close()

        return asyncio.run(body())

    @staticmethod
    def _samples(families):
        return {
            (name, tuple(sorted(labels.items()))): value
            for family in families.values()
            for name, labels, value in family["samples"]
        }

    def test_exposition_parses_under_the_grammar(self):
        families = parse_exposition(self._serve_some_traffic())
        # Spot checks on the families the dashboards would sit on.
        assert families["repro_rpc_connections_total"]["type"] == "counter"
        assert families["repro_admission_inflight"]["type"] == "gauge"
        samples = self._samples(families)
        assert (
            samples[("repro_rpc_requests_total", (("op", "query"),))] == 2
        )
        assert samples[("repro_rpc_errors_total", ())] == 1
        assert samples[("repro_admission_limit_inflight", ())] == 2
        assert (
            samples[("repro_service_executions_total", ())] == 1
        )
        assert samples[("repro_database_version", ())] == 0
        # IVM families: present and typed even before any update --
        # and zero-valued, since IVM is only consulted after a delta.
        assert families["repro_ivm_requests_total"]["type"] == "counter"
        assert families["repro_ivm_retained_bytes"]["type"] == "gauge"
        assert families["repro_ivm_retained_states"]["type"] == "gauge"
        assert families["repro_ivm_fallbacks_total"]["type"] == "counter"
        assert (
            samples[("repro_ivm_requests_total", (("outcome", "hit"),))]
            == 0
        )
        assert (
            samples[
                ("repro_ivm_requests_total", (("outcome", "fallback"),))
            ]
            == 0
        )

    def test_ivm_gauges_read_the_sessions_retained_state(self):
        # The version-0 read is a full execution, so it captures state
        # for later deltas; the gauges must see it, not a default 0.
        samples = self._samples(parse_exposition(self._serve_some_traffic()))
        assert samples[("repro_ivm_retained_states", ())] == 1
        assert samples[("repro_ivm_retained_bytes", ())] > 0

    def test_histogram_families_are_cumulative_and_consistent(self):
        families = parse_exposition(self._serve_some_traffic())
        family = families["repro_request_seconds"]
        assert family["type"] == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in family["samples"]
            if name.endswith("_bucket")
        ]
        counts = [value for _, value in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        count = next(
            value
            for name, _, value in family["samples"]
            if name.endswith("_count")
        )
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == count == 1  # one successful query
        total = next(
            value
            for name, _, value in family["samples"]
            if name.endswith("_sum")
        )
        assert total > 0

    def test_phase_histograms_carry_per_phase_labels(self):
        families = parse_exposition(self._serve_some_traffic())
        family = families["repro_phase_seconds"]
        phases = {
            labels["phase"]
            for name, labels, _ in family["samples"]
            if name.endswith("_bucket")
        }
        assert {"route", "local"} <= phases


@pytest.fixture
def renders(monkeypatch):
    """Every server that rendered a ``/metrics`` page, in order."""
    calls = []

    def spy(server):
        calls.append(server)
        return render_metrics(server)

    monkeypatch.setattr(rpc_module, "render_metrics", spy)
    return calls


class TestMetricsServer:
    """``GET /metrics`` and ``GET /healthz`` on the RPC port."""

    def test_scrape_over_http(self, renders):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    status, headers, page = await _http_get(
                        *server.address, "/metrics"
                    )
                    assert status == 200
                    assert headers["content-type"] == CONTENT_TYPE
                    assert headers["connection"] == "close"
                    assert int(headers["content-length"]) == len(
                        page.encode()
                    )
                    families = parse_exposition(page)
                    assert "repro_rpc_connections_total" in families
                    assert renders == [server]
            finally:
                session.close()

        asyncio.run(body())

    def test_healthz_and_unknown_paths(self, renders):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    address = server.address
                    status, _, page = await _http_get(*address, "/healthz")
                    assert status == 200
                    assert json.loads(page) == {"ok": True, "version": 0}
                    status, _, _ = await _http_get(*address, "/nope")
                    assert status == 404
                    status, _, _ = await _http_get(
                        *address, "/metrics", method="POST"
                    )
                    assert status == 405
                    assert renders == []
            finally:
                session.close()

        asyncio.run(body())

    def test_an_over_long_request_line_gets_an_http_error(self):
        # Longer than asyncio's default 64 KiB stream limit: still an
        # HTTP status back, and nothing for the loop to log.
        errors: list[dict] = []

        async def body():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            session = _session()
            try:
                async with RpcServer(session) as server:
                    status, headers, _ = await _http_get(
                        *server.address, "/" + "x" * 70000
                    )
                    assert status == 404
                    assert headers["connection"] == "close"
            finally:
                session.close()

        asyncio.run(body())
        assert errors == []

    def test_scrapes_are_neither_requests_nor_shed(self, monkeypatch):
        # A slow query holds the one execution slot and the client's
        # one quota token; the next query is shed.  Scrapes still
        # answer, and move no request or shed counter.
        from repro.engine.faults import ROUND_DELAY_ENV

        monkeypatch.setenv(ROUND_DELAY_ENV, "300")

        async def body():
            session = _session()
            try:
                async with RpcServer(
                    session, max_inflight=1, max_queue=0, quota_rps=0.001
                ) as server:
                    query = {"op": "query", "q": "S1(x,y), S2(y,z)",
                             "client_id": "c"}
                    slow = await asyncio.open_connection(*server.address)
                    slow[1].write((json.dumps(query) + "\n").encode())
                    while server.admission.inflight < 1:
                        await asyncio.sleep(0.01)
                    shed = await asyncio.open_connection(*server.address)
                    shed[1].write((json.dumps(query) + "\n").encode())
                    reply = json.loads(await shed[0].readline())
                    assert reply["reason"] == "quota"
                    before = stats_dict(server.stats_snapshot())["rpc"]
                    status, _, page = await _http_get(
                        *server.address, "/metrics"
                    )
                    assert status == 200
                    status, _, _ = await _http_get(
                        *server.address, "/healthz"
                    )
                    assert status == 200
                    after = stats_dict(server.stats_snapshot())["rpc"]
                    assert json.loads(await slow[0].readline())["ok"]
                    for _, writer in (slow, shed):
                        writer.close()
                        await writer.wait_closed()
                    return before, after, page
            finally:
                session.close()

        before, after, page = asyncio.run(body())
        for key in ("requests", "by_op", "errors", "shed_quota",
                    "shed_overload"):
            assert after[key] == before[key], key
        assert before["by_op"] == {"query": 2}
        assert before["shed_quota"] == 1
        assert after["connections"] == before["connections"] + 2
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for family in parse_exposition(page).values()
            for name, labels, value in family["samples"]
        }
        assert samples[("repro_rpc_shed_total", (("reason", "quota"),))] == 1
        assert samples[("repro_rpc_requests_total", (("op", "query"),))] == 2

    def test_only_the_first_line_can_open_http(self, renders):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    reader, writer = await asyncio.open_connection(
                        *server.address
                    )
                    writer.write(b'{"op": "ping"}\nGET /metrics HTTP/1.1\n')
                    assert json.loads(await reader.readline())["pong"]
                    reply = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    return reply
            finally:
                session.close()

        reply = asyncio.run(body())
        assert reply["ok"] is False
        assert reply["error"].startswith("invalid json")
        assert renders == []

    def test_there_is_no_second_listener(self, capsys):
        import repro.serve
        from repro.cli import main

        assert not hasattr(repro.serve, "MetricsServer")
        with pytest.raises(TypeError):
            rpc_module.serve_tcp(None, metrics_port=0)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--tcp", "0", "--metrics-port", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_faults_gauge_reflects_the_environment(self, monkeypatch):
        from repro.engine.faults import FAULT_ENVS, ROUND_DELAY_ENV

        for name in FAULT_ENVS:
            monkeypatch.delenv(name, raising=False)
        session = _session()
        try:

            async def build():
                async with RpcServer(session) as server:
                    return render_metrics(server)

            page = asyncio.run(build())
            assert "repro_faults_active 0" in page
            monkeypatch.setenv(ROUND_DELAY_ENV, "5")
            page = asyncio.run(build())
            assert "repro_faults_active 1" in page
        finally:
            session.close()


#: One session's worth of RPC traffic touching every section: a
#: query, a parse error, a ping, an update, a post-delta read and an
#: isomorphic variant (plan hit, IVM fallback).
TRAFFIC = (
    {"op": "query", "q": "S1(x,y), S2(y,z)"},
    {"op": "query", "q": "nonsense("},
    {"op": "ping"},
    {"op": "update", "relation": "S1", "rows": [[1, 2]]},
    {"op": "query", "q": "S1(x,y), S2(y,z)"},
    {"op": "query", "q": "S2(a,b), S1(b,c)"},
)

#: The parent's ``stats`` reply keys per section on TRAFFIC, before
#: the counters were declared: every one must survive.
PARENT_STATS_KEYS = {
    None: {"ok", "version"},
    "rpc": {
        "aborted_streams", "by_op", "coalesced", "connections",
        "deadline_exceeded", "errors", "idle_timeouts", "requests",
        "shed_overload", "shed_quota", "streamed_batches",
    },
    "admission": {
        "admitted", "enabled", "idle_timeout", "inflight", "max_inflight",
        "max_queue", "peak_inflight", "peak_queued", "queued",
        "quota_clients", "quota_rps", "shed",
    },
    "service": {
        "answers_served", "capacity_failures", "deadline_exceeded",
        "executions", "ivm_fallbacks", "ivm_hits", "ivm_retained_bytes",
        "ivm_retained_states", "plan_evictions", "plan_hits",
        "plan_isomorphic_hits", "plan_misses", "requests",
        "result_evictions", "result_hits", "routing_evictions",
        "routing_hits", "routing_misses", "updates",
    },
    "planner": {"by_algorithm", "decision_cache_hits", "decisions", "pinned"},
}

#: The parent's ``(family, type, label names)`` on TRAFFIC.
PARENT_FAMILIES = {
    ("repro_admission_admitted_total", "counter", ()),
    ("repro_admission_inflight", "gauge", ()),
    ("repro_admission_limit_inflight", "gauge", ()),
    ("repro_admission_limit_queue", "gauge", ()),
    ("repro_admission_queued", "gauge", ()),
    ("repro_database_version", "gauge", ()),
    ("repro_faults_active", "gauge", ()),
    ("repro_ivm_fallbacks_total", "counter", ("reason",)),
    ("repro_ivm_requests_total", "counter", ("outcome",)),
    ("repro_ivm_retained_bytes", "gauge", ()),
    ("repro_ivm_retained_states", "gauge", ()),
    ("repro_phase_seconds", "histogram", ("phase",)),
    ("repro_phase_seconds_total", "counter", ("phase",)),
    ("repro_request_seconds", "histogram", ()),
    ("repro_rpc_aborted_streams_total", "counter", ()),
    ("repro_rpc_coalesced_total", "counter", ()),
    ("repro_rpc_connections_total", "counter", ()),
    ("repro_rpc_deadline_exceeded_total", "counter", ()),
    ("repro_rpc_errors_total", "counter", ()),
    ("repro_rpc_idle_timeouts_total", "counter", ()),
    ("repro_rpc_requests_total", "counter", ("op",)),
    ("repro_rpc_shed_total", "counter", ("reason",)),
    ("repro_rpc_streamed_batches_total", "counter", ()),
    ("repro_service_answers_served_total", "counter", ()),
    ("repro_service_cache_evictions_total", "counter", ("cache",)),
    ("repro_service_capacity_failures_total", "counter", ()),
    ("repro_service_deadline_exceeded_total", "counter", ()),
    ("repro_service_executions_total", "counter", ()),
    ("repro_service_plan_compiles_total", "counter", ()),
    ("repro_service_requests_total", "counter", ()),
    ("repro_service_result_hits_total", "counter", ()),
    ("repro_service_updates_total", "counter", ()),
}

#: Every class that declares instruments.
OWNERS = (
    RpcStats,
    RpcServer,
    AdmissionStats,
    AdmissionQueue,
    ServiceStats,
    PlanCacheStats,
    IvmManager,
    PlannerStats,
    Session,
)

DECLARATIONS = [
    (owner, name, instrument)
    for owner in OWNERS
    for name, instrument in declared(owner)
]


@pytest.mark.usefixtures("wait_closed_as_in_python_3_12")
class TestMetricsShutdown:
    """Closing the server ends its scrape handlers instead of waiting
    on clients that never finish a request head."""

    def test_a_client_parked_mid_head_does_not_stall_close(self, renders):
        errors: list[dict] = []

        async def body():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            session = _session()
            try:
                server = RpcServer(session)
                reader, writer = await asyncio.open_connection(
                    *await server.start()
                )
                # The request line, then nothing: no blank line.
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n")
                await writer.drain()
                while server.stats.connections < 1:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.1)  # the handler is parked
                start = time.perf_counter()
                await server.close()
                elapsed = time.perf_counter() - start
                assert await reader.read() == b""
                writer.close()
            finally:
                session.close()
            return elapsed

        assert shutdown_test(body()) < 1.0
        assert errors == []
        assert renders == []

    def test_one_deadline_bounds_the_request_head(self, monkeypatch, renders):
        # A client dripping header lines faster than any per-line
        # timeout is still cut off when the head's deadline passes.
        monkeypatch.setattr(rpc_module, "REQUEST_HEAD_TIMEOUT", 0.3)
        errors: list[dict] = []

        async def body():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            session = _session()
            try:
                server = RpcServer(session)
                reader, writer = await asyncio.open_connection(
                    *await server.start()
                )
                writer.write(b"GET /metrics HTTP/1.1\r\n")
                start = time.perf_counter()
                while not reader.at_eof():
                    assert time.perf_counter() - start < 2.0
                    writer.write(b"X-Drip: 1\r\n")
                    try:
                        await writer.drain()
                        await asyncio.wait_for(reader.read(), 0.1)
                    except asyncio.TimeoutError:
                        continue
                    except (ConnectionResetError, BrokenPipeError):
                        break
                dripped = time.perf_counter() - start
                writer.close()
                start = time.perf_counter()
                await server.close()
                return dripped, time.perf_counter() - start
            finally:
                session.close()

        dripped, closed = shutdown_test(body())
        assert 0.25 < dripped < 1.0
        assert closed < 1.0
        assert errors == []
        assert renders == []


@pytest.fixture(scope="module")
def served():
    """TRAFFIC over the wire: the stats reply, the scraped page and the
    server's snapshot."""

    async def body():
        session = _session()
        try:
            async with RpcServer(
                session, max_inflight=2, max_queue=2
            ) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address
                )
                for request in TRAFFIC + ({"op": "stats"},):
                    writer.write((json.dumps(request) + "\n").encode())
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                _, _, page = await _http_get(*server.address, "/metrics")
                readings = server.stats_snapshot()
                return reply, parse_exposition(page), readings
        finally:
            session.close()

    return asyncio.run(body())


def _section(reply: dict, section: str | None) -> dict:
    return reply if section is None else reply[section]


class TestDeclarations:
    @pytest.mark.parametrize(
        "owner,name,instrument",
        DECLARATIONS,
        ids=[f"{owner.__name__}.{name}" for owner, name, _ in DECLARATIONS],
    )
    def test_every_declaration_is_in_both_views(
        self, served, owner, name, instrument
    ):
        reply, families, readings = served
        (key,) = [
            key for key, (read, _) in readings.items() if read is instrument
        ]
        section, stats_key = key
        assert stats_key in _section(reply, section)
        family = families[f"repro_{instrument.family}"]
        assert family["type"] == instrument.kind
        fixed = dict(instrument.fixed)
        assert any(
            fixed.items() <= labels.items()
            for _, labels, _ in family["samples"]
        )

    def test_parent_stats_keys_survive(self, served):
        reply, _, _ = served
        for section, keys in PARENT_STATS_KEYS.items():
            assert keys <= set(_section(reply, section)), section

    def test_parent_families_survive(self, served):
        _, families, _ = served
        emitted = {
            (
                name,
                family["type"],
                tuple(
                    sorted(
                        {
                            label
                            for _, labels, _ in family["samples"]
                            for label in labels
                        }
                        - {"le"}
                    )
                ),
            )
            for name, family in families.items()
        }
        assert PARENT_FAMILIES <= emitted

    def test_views_name_no_instrument(self):
        import repro
        from repro import cli

        root = Path(repro.__file__).parent
        families = {instrument.family for _, _, instrument in DECLARATIONS}
        constants = Counter(
            node.value
            for path in root.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
        assert {family: constants[family] for family in families} == {
            family: 1 for family in families
        }

        names = families | {
            key
            for owner in OWNERS
            for key in (
                getattr(owner, "stats_section", None),
                *(
                    getattr(owner, "stats_prefix", "") + name
                    for name, _ in declared(owner)
                ),
            )
            if key is not None
        }
        for view in (
            render_metrics,
            RpcServer._op_stats,
            RpcServer.stats_snapshot,
            Session.stats_report,
            Session.stats_snapshot,
            cli._repl_line,
        ):
            tree = ast.parse(textwrap.dedent(inspect.getsource(view)))
            literals = {
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
            }
            assert not literals & names, view.__qualname__
