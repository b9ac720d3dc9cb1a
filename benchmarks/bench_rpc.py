"""E14 -- async RPC serving: concurrent clients vs one client.

The RPC front end's claim is cross-request *coalescing*: identical
canonicalized statements arriving while one is in flight await the
same execution future, so concurrent clients share work a lone client
must pay for on every request.  (Result-cache amortization -- the
*after-the-fact* dual of coalescing -- is E13's gate in
bench_serving.py; this benchmark disables the result cache so the two
effects are measured separately, and closed-loop clients re-execute
their statements for real.)

``test_rpc_concurrency`` pins the gate: on the cached-plan workload
(five distinct query shapes over a shared C_3 vocabulary, every plan
hot after a warm-up pass) eight concurrent closed-loop clients
achieve >= 2x the aggregate requests/second of a single closed-loop
client against the same server -- the eight naturally lock-step onto
one coalesced execution per statement.  Runs on both backends (the CI
RPC smoke leg exercises ``pure`` and ``numpy``) and records
BENCH_rpc.json -- whose ``rpc_speedup`` field the trend gate
(benchmarks/trend.py) tracks run over run -- under an RSS ceiling.
"""

from __future__ import annotations

import asyncio
import json
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
# The cached-plan workload: every shape compiles once during warm-up;
# the timed phases serve entirely from the plan/result caches.
DISTINCT_QUERIES = (
    "S1(x,y), S2(y,z)",
    "S2(a,b), S1(b,c)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S3(x,y), S1(y,z)",
    "S1(x,y)",
)
MEMORY_CEILING_BYTES = 2 * 1024**3


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
    workload = [
        DISTINCT_QUERIES[i % len(DISTINCT_QUERIES)]
        for i in range(REQUESTS_PER_CLIENT)
    ]
    start = time.perf_counter()
    answered = await asyncio.gather(
        *[_client_loop(host, port, workload) for _ in range(clients)]
    )
    return time.perf_counter() - start, sum(answered)


async def _bench(backend: str) -> dict:
    from repro import connect
    from repro.serve.rpc import RpcServer

    vocab = parse_query(VOCAB)
    database = matching_database(vocab, n=N, rng=0)
    # result_cache_size=0: isolate in-flight coalescing from
    # result-cache replay (bench_serving.py's E13 gates the latter);
    # each uncoalesced request is a full route/ship/join execution.
    session = connect(database, p=P, backend=backend, result_cache_size=0)
    async with RpcServer(session) as server:
        host, port = server.address
        # Warm-up: compile every plan (results are not memoized).
        warm_elapsed, _ = await _timed_phase(host, port, 1)
        single_elapsed, single_answers = await _timed_phase(host, port, 1)
        multi_elapsed, multi_answers = await _timed_phase(
            host, port, CLIENTS
        )
        coalesced = server.stats.coalesced
        plan_compiles = session.stats.plans.misses
        result_hits = session.stats.result_hits
    single_rps = REQUESTS_PER_CLIENT / single_elapsed
    multi_rps = CLIENTS * REQUESTS_PER_CLIENT / multi_elapsed
    assert single_answers * CLIENTS == multi_answers
    return {
        "warm_seconds": warm_elapsed,
        "single_seconds": single_elapsed,
        "multi_seconds": multi_elapsed,
        "single_rps": single_rps,
        "multi_rps": multi_rps,
        "rpc_speedup": multi_rps / single_rps,
        "coalesced": coalesced,
        "plan_compiles": plan_compiles,
        "result_hits": result_hits,
    }


def test_rpc_concurrency(once, bench_backend):
    """8 concurrent clients >= 2x one client's aggregate throughput."""

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
    speedup = metrics["rpc_speedup"]
    emit(
        format_table(
            ["clients", "seconds", "aggregate req/s", "speedup"],
            [
                [1, f"{metrics['single_seconds']:.4f}",
                 f"{metrics['single_rps']:.0f}", "1.0x"],
                [CLIENTS, f"{metrics['multi_seconds']:.4f}",
                 f"{metrics['multi_rps']:.0f}", f"{speedup:.1f}x"],
            ],
            title=f"E14: async RPC, {REQUESTS_PER_CLIENT} requests/client, "
            f"n={N} p={P} ({bench_backend}); plan compiles: "
            f"{metrics['plan_compiles']}, result hits: "
            f"{metrics['result_hits']}, coalesced: {metrics['coalesced']}",
        )
    )
    record_bench(
        "rpc",
        {
            "vocab": VOCAB,
            "backend": bench_backend,
            "n": N,
            "p": P,
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "distinct_queries": len(DISTINCT_QUERIES),
            **metrics,
            **memory,
        },
    )
    # The plan cache serves the whole timed run: at most one compile
    # per isomorphism class of the five shapes.
    assert metrics["plan_compiles"] < len(DISTINCT_QUERIES)
    assert speedup >= 2.0, (
        f"8-client aggregate throughput only {speedup:.2f}x one client"
    )
    assert memory["peak_rss_bytes"] <= MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{MEMORY_CEILING_BYTES}"
    )
