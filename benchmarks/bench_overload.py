"""E15 -- overload shedding: bounded admitted latency under 4x load.

The hardening claim (ISSUE 8): with admission control on, an
open-loop arrival stream at ~4x the server's service rate does not
collapse the latency of the requests the server *admits* -- excess
load is shed fast with a structured ``ServerOverloaded`` error
instead of queueing without bound.

``test_overload_shedding`` pins the gate:

* an unloaded closed-loop pass measures the baseline per-request
  latency distribution (result cache disabled, so every request is a
  real execution);
* an open-loop pass fires one independent connection per request at
  4x the unloaded service rate against a server restarted with
  ``max_inflight=1, max_queue=1``;
* p99 latency of the *admitted* requests must stay within 2x the
  unloaded p99 (plus a 75 ms scheduling-noise floor -- the phases
  run on a shared event loop under open-loop task churn), a
  meaningful fraction of the stream must be shed, and every shed
  response must carry ``error_type == "ServerOverloaded"``.

Records BENCH_overload.json; ``overload_headroom_speedup`` (gate
ceiling over admitted p99 -- higher is better) is the field
benchmarks/trend.py trends run over run.
"""

from __future__ import annotations

import asyncio
import json
import time

from conftest import emit, peak_rss_bytes, record_bench

from repro.analysis.reporting import format_table
from repro.core.query import parse_query
from repro.data.matching import matching_database

VOCAB = "S1(x,y), S2(y,z), S3(z,x)"
# n large enough that per-request execution time (tens of ms) dwarfs
# event-loop scheduling jitter: the latency gate then measures
# queueing, not asyncio noise.
N = 800
P = 16
UNLOADED_REQUESTS = 30
OVERLOAD_REQUESTS = 80
OVERLOAD_FACTOR = 4.0
# Distinct shapes so consecutive open-loop arrivals rarely coalesce
# into one in-flight execution (coalescing is bench_rpc's subject).
DISTINCT_QUERIES = (
    "S1(x,y), S2(y,z)",
    "S2(a,b), S1(b,c)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S3(x,y), S1(y,z)",
    "S1(x,y)",
)
# Gate: admitted p99 within 2x unloaded p99, plus an absolute noise
# floor for event-loop scheduling jitter under task churn.
LATENCY_RATIO_CEILING = 2.0
NOISE_FLOOR_SECONDS = 0.075
MEMORY_CEILING_BYTES = 2 * 1024**3


def _p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _workload(requests: int) -> list[str]:
    return [
        DISTINCT_QUERIES[i % len(DISTINCT_QUERIES)] for i in range(requests)
    ]


async def _request(host: str, port: int, query: str) -> dict:
    """One request on its own connection: the open-loop client unit.

    Returns ``{"latency": seconds}`` on success or
    ``{"shed": error_type}`` on a structured error response.
    """
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (json.dumps({"id": 0, "op": "query", "q": query}) + "\n")
            .encode()
        )
        await writer.drain()
        response = json.loads(await reader.readline())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    if response["ok"]:
        return {"latency": time.perf_counter() - start}
    return {"shed": response.get("error_type", "unknown")}


async def _closed_loop(host: str, port: int, requests: int) -> list[float]:
    """Serial send-await-repeat; returns per-request latencies."""
    latencies = []
    for query in _workload(requests):
        outcome = await _request(host, port, query)
        assert "latency" in outcome, outcome
        latencies.append(outcome["latency"])
    return latencies


async def _open_loop(
    host: str, port: int, requests: int, interval: float
) -> list[dict]:
    """Fire-and-forget arrivals every ``interval`` seconds."""
    tasks = []
    for query in _workload(requests):
        tasks.append(asyncio.create_task(_request(host, port, query)))
        await asyncio.sleep(interval)
    return list(await asyncio.gather(*tasks))


async def _bench(backend: str) -> dict:
    from repro import connect
    from repro.serve.rpc import RpcServer

    vocab = parse_query(VOCAB)
    database = matching_database(vocab, n=N, rng=0)
    # result_cache_size=0: every request is a full route/ship/join
    # execution (only plans are cached), so the open-loop phase
    # genuinely saturates the executor.
    session = connect(database, p=P, backend=backend, result_cache_size=0)
    try:
        # Phase 1 (no admission limits): warm the plan cache, then
        # measure the unloaded latency distribution.
        async with RpcServer(session) as server:
            host, port = server.address
            await _closed_loop(host, port, len(DISTINCT_QUERIES))
            unloaded = await _closed_loop(host, port, UNLOADED_REQUESTS)
        unloaded_mean = sum(unloaded) / len(unloaded)
        unloaded_p99 = _p99(unloaded)

        # Phase 2: a tightly-limited server under 4x open-loop load.
        # max_inflight=1/max_queue=1 bounds what an admitted request
        # can wait behind: one execution in flight plus its own.
        async with RpcServer(
            session, max_inflight=1, max_queue=1
        ) as server:
            host, port = server.address
            outcomes = await _open_loop(
                host,
                port,
                OVERLOAD_REQUESTS,
                unloaded_mean / OVERLOAD_FACTOR,
            )
            shed_overload = server.stats.shed_overload
    finally:
        session.close()

    admitted = [o["latency"] for o in outcomes if "latency" in o]
    shed = [o["shed"] for o in outcomes if "shed" in o]
    assert admitted, "overload run admitted nothing"
    admitted_p99 = _p99(admitted)
    ceiling = max(
        LATENCY_RATIO_CEILING * unloaded_p99,
        unloaded_p99 + NOISE_FLOOR_SECONDS,
    )
    return {
        "unloaded_mean_ms": unloaded_mean * 1e3,
        "unloaded_p99_ms": unloaded_p99 * 1e3,
        "admitted_p99_ms": admitted_p99 * 1e3,
        "latency_ratio": admitted_p99 / unloaded_p99,
        # trend.py trends *speedup* fields (higher = better): headroom
        # of the admitted p99 under the gate ceiling.
        "overload_headroom_speedup": ceiling / admitted_p99,
        "ceiling_ms": ceiling * 1e3,
        "admitted": len(admitted),
        "shed": len(shed),
        "shed_types": sorted(set(shed)),
        "server_shed_overload": shed_overload,
        "arrival_rps": OVERLOAD_FACTOR / unloaded_mean,
    }


def test_overload_shedding(once, bench_backend):
    """p99 of admitted requests bounded while excess load is shed."""

    def timed():
        metrics = asyncio.run(_bench(bench_backend))
        return metrics, {"peak_rss_bytes": peak_rss_bytes()}

    metrics, memory = once(timed)
    emit(
        format_table(
            ["phase", "requests", "p99 ms"],
            [
                ["unloaded", UNLOADED_REQUESTS,
                 f"{metrics['unloaded_p99_ms']:.1f}"],
                [f"{OVERLOAD_FACTOR:.0f}x open loop",
                 f"{metrics['admitted']} adm / {metrics['shed']} shed",
                 f"{metrics['admitted_p99_ms']:.1f}"],
            ],
            title=f"E15: overload shedding, n={N} p={P} "
            f"({bench_backend}); admitted p99 "
            f"{metrics['latency_ratio']:.2f}x unloaded "
            f"(ceiling {metrics['ceiling_ms']:.0f} ms)",
        )
    )
    record_bench(
        "overload",
        {
            "vocab": VOCAB,
            "backend": bench_backend,
            "n": N,
            "p": P,
            "overload_factor": OVERLOAD_FACTOR,
            "overload_requests": OVERLOAD_REQUESTS,
            **metrics,
            **memory,
        },
    )
    assert metrics["admitted_p99_ms"] <= metrics["ceiling_ms"], (
        f"admitted p99 {metrics['admitted_p99_ms']:.1f} ms exceeds "
        f"ceiling {metrics['ceiling_ms']:.1f} ms "
        f"(unloaded p99 {metrics['unloaded_p99_ms']:.1f} ms)"
    )
    assert metrics["shed"] >= OVERLOAD_REQUESTS // 10, (
        f"4x overload shed only {metrics['shed']} of "
        f"{OVERLOAD_REQUESTS} requests"
    )
    assert metrics["shed_types"] == ["ServerOverloaded"], (
        f"shed responses carried {metrics['shed_types']}"
    )
    assert metrics["server_shed_overload"] == metrics["shed"]
    assert memory["peak_rss_bytes"] <= MEMORY_CEILING_BYTES
