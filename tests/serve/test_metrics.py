"""The /metrics endpoint: histogram math, text grammar, HTTP serving."""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro import connect
from repro.core.query import parse_query
from repro.data.matching import matching_database
from repro.serve.metrics import (
    CONTENT_TYPE,
    Histogram,
    MetricsServer,
    render_metrics,
)
from repro.serve.rpc import RpcServer

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


class TestHistogram:
    def test_observe_buckets_and_quantiles(self):
        histogram = Histogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.total == pytest.approx(5.605)
        assert histogram.counts == [1, 2, 1, 1]  # last = overflow
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(1.0) == float("inf")
        assert Histogram().quantile(0.5) == 0.0

    def test_merge_requires_identical_bounds(self):
        left = Histogram(bounds=(0.1, 1.0))
        right = Histogram(bounds=(0.1, 1.0))
        left.observe(0.05)
        right.observe(2.0)
        left.merge(right)
        assert left.count == 2
        assert left.counts == [1, 0, 1]
        with pytest.raises(ValueError):
            left.merge(Histogram(bounds=(0.2, 1.0)))

    def test_pickle_roundtrip(self):
        import pickle

        histogram = Histogram(bounds=(0.1, 1.0))
        histogram.observe(0.5)
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone.bounds == histogram.bounds
        assert clone.counts == histogram.counts
        assert clone.count == 1
        assert clone.total == 0.5


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

    def test_exposition_parses_under_the_grammar(self):
        families = parse_exposition(self._serve_some_traffic())
        # Spot checks on the families the dashboards would sit on.
        assert families["repro_rpc_connections_total"]["type"] == "counter"
        assert families["repro_admission_inflight"]["type"] == "gauge"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for family in families.values()
            for name, labels, value in family["samples"]
        }
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
        # The version-0 execution still captures state for later.
        assert samples[("repro_ivm_retained_states", ())] >= 0

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


class TestMetricsServer:
    async def _get(self, host, port, path, method="GET"):
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

    def test_scrape_over_http(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    async with MetricsServer(server) as metrics:
                        host, port = metrics.address
                        status, headers, page = await self._get(
                            host, port, "/metrics"
                        )
                        assert status == 200
                        assert headers["content-type"] == CONTENT_TYPE
                        assert int(headers["content-length"]) == len(
                            page.encode()
                        )
                        families = parse_exposition(page)
                        assert "repro_rpc_connections_total" in families
                        assert metrics.scrapes == 1
            finally:
                session.close()

        asyncio.run(body())

    def test_healthz_and_unknown_paths(self):
        async def body():
            session = _session()
            try:
                async with RpcServer(session) as server:
                    async with MetricsServer(server) as metrics:
                        host, port = metrics.address
                        status, _, page = await self._get(
                            host, port, "/healthz"
                        )
                        assert status == 200
                        assert json.loads(page) == {
                            "ok": True,
                            "version": 0,
                        }
                        status, _, _ = await self._get(
                            host, port, "/nope"
                        )
                        assert status == 404
                        status, _, _ = await self._get(
                            host, port, "/metrics", method="POST"
                        )
                        assert status == 405
                        assert metrics.scrapes == 0
            finally:
                session.close()

        asyncio.run(body())

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
