"""E6 -- Multi-round plans for L_k (Section 4.1, Example 4.2, Lem 4.6).

Paper claim: ``L_k`` is computed in exactly ``ceil(log_{k_eps} k)``
rounds by the plan of Proposition 4.1, matching the tuple-based lower
bound of Lemma 4.6.  Each plan is *executed* on the simulator and
verified against the exact join; measured rounds must equal theory.

``test_multiround_engine_seconds`` records the engine's absolute time
executing the L_8 plan at n=4000 in BENCH_multiround_speedup.json
(``numpy_seconds``; the file name is kept so the artifact history
stays in one series) next to the peak-memory fields, fails if peak RSS
blows its ceiling, and checks answers, view sizes and per-round loads
against the row-at-a-time oracle (:mod:`repro.oracle`) on a small-n
twin.
"""

from __future__ import annotations

from fractions import Fraction

from conftest import (
    best_of,
    check_oracle_parity,
    emit,
    measure_peak,
    record_bench,
)

from repro.algorithms.multiround import compile_multiround
from repro.analysis.experiments import sweep_multiround_rounds
from repro.analysis.reporting import format_table
from repro.core.families import line_query
from repro.core.plans import build_plan
from repro.data.generators import matching_database
from repro.engine import execute_plan

# The timed leg: the L_8 plan at eps=1/2, n=4000 on 16 servers.
SPEEDUP_N = 4000
SPEEDUP_P = 16
SPEEDUP_K = 8
#: Lifetime peak-RSS ceiling, as in bench_hc_load (measured 128 MiB).
SPEEDUP_MEMORY_CEILING_BYTES = 1024**3
#: The small-n twin the row-at-a-time oracle checks.
ORACLE_N = 500

# The large-n leg: columnar inputs + plan execution at n=10^5.
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


def _run(plan, database, p):
    """Physical compile + execution of a prebuilt logical plan."""
    return execute_plan(compile_multiround(plan, p, seed=0), database)


def test_multiround_engine_seconds(once):
    """The L_8 plan at n=4000: time recorded, RSS ceiling, and oracle
    parity on a small-n twin."""
    query = line_query(SPEEDUP_K)
    plan = build_plan(query, Fraction(1, 2))
    database = matching_database(query, n=SPEEDUP_N, rng=0)

    def timed():
        seconds, result = best_of(
            3, lambda: _run(plan, database, SPEEDUP_P)
        )
        # Memory on a separate (untimed) run: tracemalloc slows the
        # traced call, so it must never wrap the timed ones.
        _, memory = measure_peak(lambda: _run(plan, database, SPEEDUP_P))
        return seconds, result, memory

    seconds, result, memory = once(timed)
    emit(
        f"E6b: plan execution L_{SPEEDUP_K} eps=1/2 n={SPEEDUP_N} "
        f"p={SPEEDUP_P}: {seconds:.4f}s, {result.report.num_rounds} "
        f"rounds, peak RSS {memory['peak_rss_bytes'] / 1024**2:.0f} MiB"
    )
    record_bench(
        "multiround_speedup",
        {
            "query": query.name,
            "eps": "1/2",
            "n": SPEEDUP_N,
            "p": SPEEDUP_P,
            "rounds": result.report.num_rounds,
            "numpy_seconds": seconds,
            "answers": len(result.answers),
            **memory,
        },
    )
    assert len(result.answers) == SPEEDUP_N
    assert memory["peak_rss_bytes"] <= SPEEDUP_MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{SPEEDUP_MEMORY_CEILING_BYTES}"
    )
    check_oracle_parity(
        compile_multiround(plan, SPEEDUP_P, seed=0),
        matching_database(query, n=ORACLE_N, rng=0),
    )


def test_multiround_large_n_memory(once):
    """The n=10^5 leg: columnar plan execution within its ceiling."""
    from repro.data.generators import matching_database_columnar

    query = line_query(SPEEDUP_K)
    plan = build_plan(query, Fraction(1, 2))

    def timed():
        database = matching_database_columnar(query, n=LARGE_N, seed=0)
        seconds, result = best_of(1, lambda: _run(plan, database, LARGE_P))
        # Memory on a separate (untimed) run under tracemalloc.
        _, memory = measure_peak(lambda: _run(plan, database, LARGE_P))
        return seconds, result, memory

    seconds, result, memory = once(timed)
    emit(
        f"E6-large: plan L_{SPEEDUP_K} eps=1/2 n={LARGE_N} "
        f"p={LARGE_P} {seconds:.2f}s, {result.report.num_rounds} "
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
