"""E13 -- repeated-query serving: cached plans vs compile-per-query.

The serving layer's claim is that planning is worth amortizing: a
long-lived :class:`~repro.serve.service.QueryService` compiles each
query once (sharing plans across isomorphic requests), keeps pre-
routed columns per database version, and memoizes whole executions,
while a compile-per-query loop pays covers + shares + grid + routing
on every request.

``test_serving_throughput`` pins the gate: on a 100-request mixed
workload (10 distinct query shapes over a shared C_3 vocabulary,
including isomorphic renamings, each repeated 10 times) the service
answers >= 3x faster than per-request compile + execute, with
per-request answers verified equal between the two paths beforehand.
Runs on both backends -- the CI serving smoke leg exercises ``pure``
and ``numpy`` -- and records BENCH_serving.json with throughput,
cache-hit counters and the standard peak-memory fields under an RSS
ceiling.
"""

from __future__ import annotations

import pytest

from conftest import best_of, emit, measure_peak, peak_rss_bytes, record_bench
from conftest import run_pinned

from repro.analysis.reporting import format_table
from repro.core.query import parse_query
from repro.data.matching import matching_database

VOCAB = "S1(x,y), S2(y,z), S3(z,x)"
N = 1_000
P = 16
REPEATS = 10
# 10 distinct shapes x REPEATS = the 100-request mixed workload.
# Several entries are isomorphic renamings of earlier ones -- the
# plan cache must serve those without recompiling.
DISTINCT_QUERIES = (
    "S1(x,y), S2(y,z)",
    "S2(a,b), S1(b,c)",
    "S2(x,y), S3(y,z)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S3(u,v), S1(v,w), S2(w,u)",
    "S1(x,y)",
    "S3(x,y), S1(y,z)",
    "S1(b,c), S2(c,d)",
    "S1(x,y), S3(y,x)",
    "S2(s,t), S3(t,u), S1(u,s)",
)
# Lifetime peak RSS ceiling: the workload is small (n=1e3); 2 GB
# catches runaway caching while leaving CI allocator headroom.
MEMORY_CEILING_BYTES = 2 * 1024**3


def _workload() -> list[str]:
    requests: list[str] = []
    for round_index in range(REPEATS):
        for query in DISTINCT_QUERIES:
            requests.append(query)
    assert len(requests) == 100
    return requests


def test_serving_throughput(once, bench_backend):
    """QueryService >= 3x over compile-per-query on the mixed workload."""
    from repro.serve import QueryService

    vocab = parse_query(VOCAB)
    requests = _workload()

    def timed():
        (database,), memory = measure_peak(
            lambda: (matching_database(vocab, n=N, rng=0),)
        )

        # Correctness first (untimed): the service's answers match a
        # fresh compile-and-execute for every distinct query.  Loads
        # must match bit-for-bit whenever the served plan was compiled
        # for this exact query; an isomorphic hit executes the class
        # representative's plan, whose (equally valid) routing hashes
        # by the canonical variable names, so only answers must agree.
        parity_service = QueryService(database, p=P, backend=bench_backend)
        for query in DISTINCT_QUERIES:
            served = parity_service.execute(query)
            fresh = run_pinned(
                "hypercube", parse_query(query), database, p=P,
                backend=bench_backend,
            )
            assert served.answers == fresh.answers, query
            if served.plan.signature.query_text == str(parse_query(query)):
                assert served.per_server == fresh.per_server, query

        baseline_seconds, _ = best_of(
            1,
            lambda: [
                run_pinned(
                    "hypercube", parse_query(query), database, p=P,
                    backend=bench_backend,
                )
                for query in requests
            ],
        )

        service = QueryService(database, p=P, backend=bench_backend)
        service_seconds, _ = best_of(
            1, lambda: [service.execute(query) for query in requests]
        )
        memory["peak_rss_bytes"] = peak_rss_bytes()
        return baseline_seconds, service_seconds, service, memory

    baseline_seconds, service_seconds, service, memory = once(timed)
    speedup = baseline_seconds / service_seconds
    stats = service.stats
    emit(
        format_table(
            ["serving path", "seconds", "req/s", "speedup"],
            [
                [
                    "compile-per-query",
                    f"{baseline_seconds:.4f}",
                    f"{len(requests) / baseline_seconds:.0f}",
                    "1.0x",
                ],
                [
                    "cached-plan service",
                    f"{service_seconds:.4f}",
                    f"{len(requests) / service_seconds:.0f}",
                    f"{speedup:.1f}x",
                ],
            ],
            title=f"E13: {len(requests)}-query mixed workload, n={N} "
            f"p={P} ({bench_backend}); plan compiles: "
            f"{stats.plans.misses}, isomorphic plan hits: "
            f"{stats.plans.isomorphic_hits}, result hits: "
            f"{stats.result_hits}",
        )
    )
    record_bench(
        "serving",
        {
            "vocab": VOCAB,
            "backend": bench_backend,
            "n": N,
            "p": P,
            "requests": len(requests),
            "distinct_queries": len(DISTINCT_QUERIES),
            "baseline_seconds": baseline_seconds,
            "service_seconds": service_seconds,
            "speedup": speedup,
            "plan_compiles": stats.plans.misses,
            "plan_hits": stats.plans.hits,
            "isomorphic_plan_hits": stats.plans.isomorphic_hits,
            "result_hits": stats.result_hits,
            **memory,
        },
    )
    # The whole point of the serving layer: plans compile once per
    # isomorphism class, repeats answer from the caches.
    assert stats.plans.misses < len(DISTINCT_QUERIES)
    assert stats.result_hits >= len(requests) - len(DISTINCT_QUERIES)
    assert speedup >= 3.0, f"cached-plan serving only {speedup:.2f}x faster"
    assert memory["peak_rss_bytes"] <= MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{MEMORY_CEILING_BYTES}"
    )
