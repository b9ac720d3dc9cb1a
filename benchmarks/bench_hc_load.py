"""E4 -- HyperCube load scaling (Proposition 3.2) and engine speed.

Paper claim: on matching databases HC's maximum per-server load is
``O(n / p^{1-eps(q)})`` tuples, i.e. optimal.  We sweep ``p`` for
``C_3`` (eps = 1/3), ``L_3`` (eps = 1/2) and ``T_2`` (eps = 0) and
check that measured-load / theory stays flat as ``p`` grows -- the
shape that certifies the exponent is right.

The sweep honours ``--backend {pure,numpy,auto}`` (loads are
backend-independent; the flag only changes the execution engine), and
``test_hc_backend_speedup`` pins the engineering claim: the vectorized
numpy engine beats the pure-Python reference by >= 5x on the triangle
query at the largest configured ``n``.
"""

from __future__ import annotations

import pytest

from conftest import best_of, emit, measure_peak, record_bench, run_pinned

from repro.analysis.experiments import sweep_hc_load
from repro.analysis.reporting import format_table
from repro.backend import numpy_available
from repro.core.families import cycle_query, line_query, star_query
from repro.data.matching import matching_database

# Largest n of the speedup benchmark; vectorization wins grow with n.
SPEEDUP_N = 4000
SPEEDUP_P = 64

# The large-n leg: columnar generation + numpy HC at n=10^5, with a
# peak-RSS ceiling (lifetime peak; triangle pools ~1.2M tuples).
LARGE_N = 100_000
LARGE_P = 64
LARGE_N_MEMORY_CEILING_BYTES = 2 * 1024**3


def run_sweeps(backend):
    results = {}
    for query in (cycle_query(3), line_query(3), star_query(2)):
        results[query.name] = sweep_hc_load(
            query, n=300, p_values=(4, 8, 16, 32, 64), trials=2, seed=0,
            backend=backend,
        )
    return results


def test_hc_load_scaling(once, bench_backend):
    results = once(run_sweeps, bench_backend)
    for name, rows in results.items():
        emit(
            format_table(
                ["p", "eps", "max load (tuples)", "theory l*n/p^(1-eps)",
                 "ratio"],
                [
                    [
                        row["p"],
                        row["eps"],
                        row["max_load_tuples"],
                        row["theory_load"],
                        row["ratio"],
                    ]
                    for row in rows
                ],
                title=f"E4: HC max load vs p for {name} (Prop 3.2, "
                f"backend={bench_backend})",
            )
        )
        ratios = [row["ratio"] for row in rows]
        # Shape: ratio flat within a small constant band across p.
        assert max(ratios) <= 3.0, (name, ratios)
        assert max(ratios) / max(min(ratios), 0.01) <= 4.0, (name, ratios)
        # Load strictly decreases as p grows.
        loads = [row["max_load_tuples"] for row in rows]
        assert loads[0] > loads[-1]


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_hc_backend_speedup(once):
    """The columnar numpy engine is >= 5x faster than pure at n=4000."""
    query = cycle_query(3)
    database = matching_database(query, n=SPEEDUP_N, rng=0)

    def run(backend):
        return run_pinned(
            "hypercube", query, database, p=SPEEDUP_P, seed=0, backend=backend
        )

    def timed():
        pure_seconds, pure = best_of(3, lambda: run("pure"))
        numpy_seconds, vectorized = best_of(3, lambda: run("numpy"))
        # Memory on a separate (untimed) run: tracemalloc slows the
        # traced call, so it must never wrap the timed ones.
        _, memory = measure_peak(lambda: run("numpy"))
        return pure_seconds, numpy_seconds, pure, vectorized, memory

    pure_seconds, numpy_seconds, pure, vectorized, memory = once(timed)
    speedup = pure_seconds / numpy_seconds
    emit(
        format_table(
            ["engine", "seconds", "speedup"],
            [
                ["pure", f"{pure_seconds:.4f}", "1.0x"],
                ["numpy", f"{numpy_seconds:.4f}", f"{speedup:.1f}x"],
            ],
            title=f"HC triangle n={SPEEDUP_N} p={SPEEDUP_P}: "
            "pure vs numpy engine",
        )
    )
    record_bench(
        "hc_speedup",
        {
            "query": query.name,
            "n": SPEEDUP_N,
            "p": SPEEDUP_P,
            "pure_seconds": pure_seconds,
            "numpy_seconds": numpy_seconds,
            "speedup": speedup,
            "answers": len(pure.answers),
            **memory,
        },
    )
    # The engines implement the identical protocol.
    assert pure.answers == vectorized.answers
    assert (
        pure.report.rounds[0].received_bits
        == vectorized.report.rounds[0].received_bits
    )
    assert speedup >= 5.0, f"numpy engine only {speedup:.1f}x faster"


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_hc_large_n_memory(once):
    """The n=10^5 leg: columnar generation + numpy HC within its
    memory ceiling, answers verified against the single-node join."""
    from repro.algorithms.localjoin import evaluate_query_table
    from repro.data.generators import matching_database_columnar

    query = cycle_query(3)

    def timed():
        database = matching_database_columnar(query, n=LARGE_N, seed=0)

        def run():
            return run_pinned(
                "hypercube", query, database, p=LARGE_P, seed=0,
                backend="numpy",
            )

        seconds, result = best_of(1, run)
        # Memory on a separate (untimed) run under tracemalloc.
        _, memory = measure_peak(run)
        truth = evaluate_query_table(
            query,
            {
                name: relation.columns
                for name, relation in database.relations.items()
            },
        )
        return seconds, result, truth, memory

    seconds, result, truth, memory = once(timed)
    assert result.answers == tuple(map(tuple, truth.tolist()))
    emit(
        f"E4-large: HC {query.name} n={LARGE_N} p={LARGE_P} numpy "
        f"{seconds:.2f}s, {len(result.answers)} answers, peak RSS "
        f"{memory['peak_rss_bytes'] / 1024**2:.0f} MiB"
    )
    record_bench(
        "hc_large_n",
        {
            "query": query.name,
            "n": LARGE_N,
            "p": LARGE_P,
            "numpy_seconds": seconds,
            "answers": len(result.answers),
            "max_load_tuples": result.report.max_load_tuples,
            **memory,
        },
    )
    assert memory["peak_rss_bytes"] <= LARGE_N_MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{LARGE_N_MEMORY_CEILING_BYTES}"
    )
