"""E15 -- multi-process fan-out: N executor processes vs one.

PR 6's tentpole claim: the RPC front end saturates a single core
because every statement ultimately executes on one session thread
(bench_rpc.py's E14 wins come from *sharing* executions, not from
adding compute).  Statement fan-out (``connect(db, workers=N)``)
breaks that ceiling -- each statement ships whole to one of N
executor processes holding its own session over a shared-memory
column snapshot, bit-identical answers guaranteed.

``test_parallel_fanout`` pins the gate on the bench_rpc workload
(eight closed-loop clients, five query shapes over a shared C_3
vocabulary, result cache off so every request actually executes):

* parity, always: the multi-process server answers exactly what the
  single-process server answers, on any machine;
* speedup, on 4+-core runners only: the fan-out server's aggregate
  wall clock beats the single-process server by >= 3x.  Single-core
  containers still run the parity half -- the speedup assert is
  meaningless where there are no cores to fan out to.

Clients *phase-shift* their query sequences (client ``c`` starts at
shape ``c``) so concurrent requests are mostly distinct: coalescing
stays on, exactly as deployed, but the in-flight mix holds ~5
distinct statements -- real work to spread across processes.
Records BENCH_parallel.json, whose ``parallel_speedup`` field the
trend gate (benchmarks/trend.py) tracks run over run.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from conftest import emit, measure_peak, peak_rss_bytes, record_bench

from repro.analysis.reporting import format_table
from repro.core.query import parse_query
from repro.data.matching import matching_database

VOCAB = "S1(x,y), S2(y,z), S3(z,x)"
N = 300
P = 16
REQUESTS_PER_CLIENT = 40
CLIENTS = 8
WORKERS = 4
DISTINCT_QUERIES = (
    "S1(x,y), S2(y,z)",
    "S2(a,b), S1(b,c)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S3(x,y), S1(y,z)",
    "S1(x,y)",
)
MEMORY_CEILING_BYTES = 4 * 1024**3
SPEEDUP_FLOOR = 3.0
MIN_CORES_FOR_GATE = 4


def _workload(client: int) -> list[str]:
    """Client ``client``'s request sequence, phase-shifted by index.

    Every client serves each shape the same number of times (parity
    between phases is exact), but at any instant the in-flight mix
    across clients covers all five shapes instead of lock-stepping
    onto one.
    """
    return [
        DISTINCT_QUERIES[(index + client) % len(DISTINCT_QUERIES)]
        for index in range(REQUESTS_PER_CLIENT)
    ]


async def _client_loop(host: str, port: int, requests: list[str]) -> int:
    """One closed-loop client: send, await, repeat.  Returns answers."""
    reader, writer = await asyncio.open_connection(host, port)
    answered = 0
    try:
        for index, query in enumerate(requests):
            writer.write(
                (json.dumps({"id": index, "op": "query", "q": query}) + "\n")
                .encode()
            )
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["ok"], response
            answered += response["count"]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return answered


async def _timed_phase(
    host: str, port: int, clients: int
) -> tuple[float, int]:
    """(elapsed seconds, answers served) for ``clients`` closed loops."""
    start = time.perf_counter()
    answered = await asyncio.gather(
        *[
            _client_loop(host, port, _workload(client))
            for client in range(clients)
        ]
    )
    return time.perf_counter() - start, sum(answered)


async def _serve_phase(backend: str, workers: int, database) -> dict:
    """One server at ``workers`` fan-out width, run through the gauntlet."""
    from repro import connect
    from repro.serve.rpc import RpcServer

    # result_cache_size=0: every request routes, ships and joins for
    # real (only plans are cached), so wall clock measures execution
    # throughput, not cache replay (E13/E14 gate those).
    session = connect(
        database,
        p=P,
        backend=backend,
        result_cache_size=0,
        workers=workers,
    )
    try:
        async with RpcServer(session) as server:
            host, port = server.address
            # Warm-up: compile every plan (and, for fan-out, every
            # worker's plans) before the clock starts.
            await _timed_phase(host, port, 1)
            elapsed, answers = await _timed_phase(host, port, CLIENTS)
            fanout = session.fanout
            return {
                "elapsed": elapsed,
                "answers": answers,
                "rps": CLIENTS * REQUESTS_PER_CLIENT / elapsed,
                "dispatch_threads": server.workers,
                "fanout_queries": fanout.queries if fanout else 0,
                "fanout_usable": bool(fanout is not None and fanout.usable),
            }
    finally:
        session.close()


async def _bench(backend: str) -> dict:
    vocab = parse_query(VOCAB)
    database = matching_database(vocab, n=N, rng=0)
    single = await _serve_phase(backend, 1, database)
    multi = await _serve_phase(backend, WORKERS, database)
    return {
        "single_seconds": single["elapsed"],
        "multi_seconds": multi["elapsed"],
        "single_rps": single["rps"],
        "multi_rps": multi["rps"],
        "single_answers": single["answers"],
        "multi_answers": multi["answers"],
        "parallel_speedup": single["elapsed"] / multi["elapsed"],
        "dispatch_threads": multi["dispatch_threads"],
        "fanout_queries": multi["fanout_queries"],
        "fanout_usable": multi["fanout_usable"],
    }


def test_parallel_fanout(once, bench_backend):
    """N executor processes >= 3x one process (4+ cores); parity always."""
    if bench_backend != "numpy":
        import pytest

        pytest.skip("fan-out snapshots require the numpy backend")

    def timed():
        # Memory on a separate untimed run: tracemalloc slows the
        # per-request hot path by an order of magnitude, so the gated
        # timings come from a clean second run.
        _, memory = measure_peak(
            lambda: asyncio.run(_bench(bench_backend))
        )
        metrics = asyncio.run(_bench(bench_backend))
        memory["peak_rss_bytes"] = peak_rss_bytes()
        return metrics, memory

    metrics, memory = once(timed)
    speedup = metrics["parallel_speedup"]
    cores = os.cpu_count() or 1
    emit(
        format_table(
            ["executors", "seconds", "aggregate req/s", "speedup"],
            [
                [1, f"{metrics['single_seconds']:.4f}",
                 f"{metrics['single_rps']:.0f}", "1.0x"],
                [WORKERS, f"{metrics['multi_seconds']:.4f}",
                 f"{metrics['multi_rps']:.0f}", f"{speedup:.1f}x"],
            ],
            title=f"E15: multi-process fan-out, {CLIENTS} clients x "
            f"{REQUESTS_PER_CLIENT} requests, n={N} p={P} "
            f"({bench_backend}, {cores} cores); fan-out queries: "
            f"{metrics['fanout_queries']}",
        )
    )
    record_bench(
        "parallel",
        {
            "vocab": VOCAB,
            "backend": bench_backend,
            "n": N,
            "p": P,
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "workers": WORKERS,
            "cores": cores,
            "speedup_gate_cores": MIN_CORES_FOR_GATE,
            "speedup_gated": cores >= MIN_CORES_FOR_GATE,
            **metrics,
            **memory,
        },
    )
    # Parity is unconditional: fan-out answers must match exactly.
    assert metrics["single_answers"] == metrics["multi_answers"], (
        f"fan-out served {metrics['multi_answers']} answers, "
        f"single-process served {metrics['single_answers']}"
    )
    assert metrics["fanout_usable"], "fan-out pool broke mid-benchmark"
    assert metrics["fanout_queries"] > 0, "no statements reached the pool"
    assert memory["peak_rss_bytes"] <= MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{MEMORY_CEILING_BYTES}"
    )
    # The speedup gate needs cores to fan out to; single-core CI
    # containers still pin parity above.
    if cores >= MIN_CORES_FOR_GATE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{WORKERS}-process wall clock only {speedup:.2f}x "
            f"single-process on a {cores}-core runner"
        )
