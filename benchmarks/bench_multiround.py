"""E6 -- Multi-round plans for L_k (Section 4.1, Example 4.2, Lem 4.6).

Paper claim: ``L_k`` is computed in exactly ``ceil(log_{k_eps} k)``
rounds by the plan of Proposition 4.1, matching the tuple-based lower
bound of Lemma 4.6.  Each plan is *executed* on the simulator and
verified against the exact join; measured rounds must equal theory.

``test_multiround_backend_speedup`` additionally pins the engineering
claim of the shared round engine: executing the same plan with
columnar view materialisation and vectorized re-routing (``numpy``)
beats the tuple-at-a-time reference by >= 3x at n=4000, while
producing bit-identical answers, view sizes and per-round loads.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import best_of, emit, measure_peak, record_bench

from repro.algorithms.multiround import compile_multiround
from repro.analysis.experiments import sweep_multiround_rounds
from repro.analysis.reporting import format_table
from repro.backend import numpy_available
from repro.core.families import line_query
from repro.core.plans import build_plan
from repro.data.matching import matching_database
from repro.engine import execute_plan

# Largest n of the speedup benchmark; vectorization wins grow with n.
SPEEDUP_N = 4000
SPEEDUP_P = 16
SPEEDUP_K = 8

# The large-n leg: columnar inputs + numpy plan execution at n=10^5.
LARGE_N = 100_000
LARGE_P = 16
LARGE_N_MEMORY_CEILING_BYTES = 2 * 1024**3


def test_multiround_rounds(once):
    rows = once(
        sweep_multiround_rounds,
        k_values=(4, 8, 16),
        eps_values=(Fraction(0), Fraction(1, 2), Fraction(2, 3)),
        n=60,
        p=8,
        seed=0,
    )
    emit(
        format_table(
            ["query", "eps", "k_eps", "rounds measured",
             "paper ceil(log_keps k)", "lower bnd", "upper bnd"],
            [
                [
                    row["query"],
                    row["eps"],
                    row["k_eps"],
                    row["rounds_measured"],
                    row["paper_rounds"],
                    row["lower_bound"],
                    row["upper_bound"],
                ]
                for row in rows
            ],
            title="E6: rounds to compute L_k vs eps "
            "(executed plans; answers verified)",
        )
    )
    for row in rows:
        assert row["rounds_measured"] == row["paper_rounds"], row
        assert row["lower_bound"] <= row["rounds_measured"] <= row["upper_bound"]


def _run(plan, database, p, backend):
    """Physical compile + execution of a prebuilt logical plan."""
    physical = compile_multiround(plan, p, seed=0, backend=backend)
    return execute_plan(physical, database)


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_multiround_backend_speedup(once):
    """Columnar plan execution is >= 3x faster than pure at n=4000."""
    query = line_query(SPEEDUP_K)
    plan = build_plan(query, Fraction(1, 2))
    database = matching_database(query, n=SPEEDUP_N, rng=0)

    def timed():
        pure_seconds, pure = best_of(
            3,
            lambda: _run(plan, database, SPEEDUP_P, "pure"),
        )
        numpy_seconds, vectorized = best_of(
            3,
            lambda: _run(plan, database, SPEEDUP_P, "numpy"),
        )
        # Memory on a separate (untimed) run: tracemalloc slows the
        # traced call, so it must never wrap the timed ones.
        _, memory = measure_peak(
            lambda: _run(plan, database, SPEEDUP_P, "numpy")
        )
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
            title=f"E6b: plan execution L_{SPEEDUP_K} eps=1/2 "
            f"n={SPEEDUP_N} p={SPEEDUP_P}: pure vs numpy engine",
        )
    )
    record_bench(
        "multiround_speedup",
        {
            "query": query.name,
            "eps": "1/2",
            "n": SPEEDUP_N,
            "p": SPEEDUP_P,
            "rounds": pure.report.num_rounds,
            "pure_seconds": pure_seconds,
            "numpy_seconds": numpy_seconds,
            "speedup": speedup,
            "answers": len(pure.answers),
            **memory,
        },
    )
    # Identical protocol: answers, view sizes and per-round loads.
    assert pure.answers == vectorized.answers
    assert pure.view_sizes == vectorized.view_sizes
    for round_pure, round_vec in zip(
        pure.report.rounds, vectorized.report.rounds
    ):
        assert round_pure.received_bits == round_vec.received_bits
    assert speedup >= 3.0, f"numpy engine only {speedup:.1f}x faster"


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_multiround_large_n_memory(once):
    """The n=10^5 leg: columnar plan execution within its ceiling."""
    from repro.data.generators import matching_database_columnar

    query = line_query(SPEEDUP_K)
    plan = build_plan(query, Fraction(1, 2))

    def timed():
        database = matching_database_columnar(query, n=LARGE_N, seed=0)
        seconds, result = best_of(
            1,
            lambda: _run(plan, database, LARGE_P, "numpy"),
        )
        # Memory on a separate (untimed) run under tracemalloc.
        _, memory = measure_peak(
            lambda: _run(plan, database, LARGE_P, "numpy")
        )
        return seconds, result, memory

    seconds, result, memory = once(timed)
    emit(
        f"E6-large: plan L_{SPEEDUP_K} eps=1/2 n={LARGE_N} "
        f"p={LARGE_P} numpy {seconds:.2f}s, {result.report.num_rounds} "
        f"rounds, {len(result.answers)} answers, peak RSS "
        f"{memory['peak_rss_bytes'] / 1024**2:.0f} MiB"
    )
    record_bench(
        "multiround_large_n",
        {
            "query": query.name,
            "eps": "1/2",
            "n": LARGE_N,
            "p": LARGE_P,
            "rounds": result.report.num_rounds,
            "numpy_seconds": seconds,
            "answers": len(result.answers),
            **memory,
        },
    )
    # Every matching-database L_k chain joins end to end: n answers.
    assert len(result.answers) == LARGE_N
    assert memory["peak_rss_bytes"] <= LARGE_N_MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{LARGE_N_MEMORY_CEILING_BYTES}"
    )
