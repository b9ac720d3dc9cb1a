"""E11 (ablation) -- skew: where the matching assumption is load-bearing.

Section 2.5 restricts the paper's upper bounds to matching databases
and defers skew to [17].  This ablation makes the boundary measurable:

* on a *funnel* instance (every S1 tuple meets every S2 tuple through
  one heavy join value) HyperCube's light plan -- its round with the
  heavy binding removed, i.e. plain hash routing -- piles the entire
  input on one server: max load Theta(n), flat in p;
* HyperCube as compiled binds the heavy value (cartesian split, after
  [17]) and restores decreasing-in-p max load;
* on matching inputs no value is heavy and the two route identically
  (the skew machinery costs nothing when there is no skew).

``test_skew_engine_seconds`` records the engine's absolute time for
HyperCube on skewed data at n=4000 in BENCH_skew_speedup.json
(``numpy_seconds``; the file name is kept so the artifact history
stays in one series)
next to the peak-memory fields, fails if peak RSS blows its ceiling,
and checks answers, heavy hitters and loads against the row-at-a-time
oracle (:mod:`repro.oracle`) on a small-n twin.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import (
    best_of,
    check_oracle_parity,
    emit,
    measure_peak,
    record_bench,
    run_pinned,
)

from repro.algorithms.registry import compile_with
from repro.analysis.reporting import format_table
from repro.core.query import parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.generators import matching_database, skewed_database
from repro.engine import execute_plan
from repro.oracle import evaluate_query

# The timed leg: HyperCube on a skewed n=4000 instance, 64 servers.
SPEEDUP_N = 4000
SPEEDUP_P = 64
SPEEDUP_HEAVY_FRACTION = 0.5
#: Lifetime peak-RSS ceiling, as in bench_hc_load.
SPEEDUP_MEMORY_CEILING_BYTES = 1024**3
#: The small-n twin the row-at-a-time oracle checks.
ORACLE_N = 500

# The large-n leg: chunked columnar skew generation + HyperCube at
# n=10^5.
LARGE_N = 100_000
LARGE_P = 64
LARGE_N_MEMORY_CEILING_BYTES = 3 * 1024**3


def funnel_database(n):
    return ColumnarDatabase.from_relations(
        [
            ColumnarRelation.from_rows(
                "S1", [(i, 1) for i in range(1, n + 1)], n
            ),
            ColumnarRelation.from_rows(
                "S2", [(1, i) for i in range(1, n + 1)], n
            ),
        ]
    )


def run_light(query, database, p, seed):
    """HyperCube with its heavy binding removed: plain hash routing."""
    plan = compile_with("hypercube", query, p, seed=seed)
    rounds = tuple(replace(r, bind_heavy=None) for r in plan.rounds)
    return execute_plan(replace(plan, rounds=rounds), database)


def run_ablation():
    query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
    n = 256
    database = funnel_database(n)
    truth = evaluate_query(
        query, {relation.name: relation.rows() for relation in database}
    )
    rows = []
    for p in (4, 16, 64):
        plain = run_light(query, database, p=p, seed=3)
        aware = run_pinned("hypercube", query, database, p=p, seed=3)
        assert plain.answers == truth
        assert aware.answers == truth
        rows.append(
            {
                "p": p,
                "plain_max_load": plain.report.max_load_tuples,
                "aware_max_load": aware.report.max_load_tuples,
                "plain_imbalance": round(
                    plain.report.rounds[0].load_imbalance, 2
                ),
                "aware_imbalance": round(
                    aware.report.rounds[0].load_imbalance, 2
                ),
            }
        )
    return rows


def test_skew_ablation(once):
    rows = once(run_ablation)
    emit(
        format_table(
            ["p", "light HC max load", "bound HC max load",
             "light imbalance", "bound imbalance"],
            [
                [
                    row["p"],
                    row["plain_max_load"],
                    row["aware_max_load"],
                    row["plain_imbalance"],
                    row["aware_imbalance"],
                ]
                for row in rows
            ],
            title="E11: funnel skew, light vs heavy-binding HC "
            "(n = 256 tuples per relation)",
        )
    )
    # Light HC: max load flat at ~2n regardless of p (all on one server).
    plain = [row["plain_max_load"] for row in rows]
    assert plain[0] == plain[-1] == 512
    # Bound HC: max load strictly decreasing in p.
    aware = [row["aware_max_load"] for row in rows]
    assert aware == sorted(aware, reverse=True)
    assert aware[-1] < plain[-1] / 2
    # And far better balanced.
    for row in rows:
        assert row["aware_imbalance"] <= row["plain_imbalance"]


def test_no_cost_without_skew(once):
    """On matchings the light and bound plans send byte-identical loads."""

    def compare():
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = matching_database(query, n=200, rng=9)
        plain = run_light(query, database, p=16, seed=4)
        aware = run_pinned("hypercube", query, database, p=16, seed=4)
        return plain, aware

    plain, aware = once(compare)
    assert plain.answers == aware.answers
    assert not any(aware.heavy_hitters.values())
    assert (
        plain.report.rounds[0].received_bits
        == aware.report.rounds[0].received_bits
    )
    emit(
        "E11b: matching input -> heavy-binding HC routes byte-identically "
        "to its light plan (no skew, no cost)."
    )


def test_skew_engine_seconds(once):
    """HyperCube on skewed data at n=4000: time recorded, RSS ceiling,
    and oracle parity on a small-n twin."""
    query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")

    def skewed(n):
        return skewed_database(
            query, n=n, rng=1, heavy_fraction=SPEEDUP_HEAVY_FRACTION
        )

    database = skewed(SPEEDUP_N)

    def run():
        return run_pinned("hypercube", query, database, p=SPEEDUP_P, seed=0)

    def timed():
        seconds, result = best_of(3, run)
        # Memory on a separate (untimed) run: tracemalloc slows the
        # traced call, so it must never wrap the timed ones.
        _, memory = measure_peak(run)
        return seconds, result, memory

    seconds, result, memory = once(timed)
    emit(
        f"E11c: heavy-binding HC n={SPEEDUP_N} p={SPEEDUP_P} "
        f"heavy={SPEEDUP_HEAVY_FRACTION}: {seconds:.4f}s, "
        f"{len(result.answers)} answers, peak RSS "
        f"{memory['peak_rss_bytes'] / 1024**2:.0f} MiB"
    )
    record_bench(
        "skew_speedup",
        {
            "query": query.name,
            "n": SPEEDUP_N,
            "p": SPEEDUP_P,
            "heavy_fraction": SPEEDUP_HEAVY_FRACTION,
            "numpy_seconds": seconds,
            "answers": len(result.answers),
            **memory,
        },
    )
    assert any(result.heavy_hitters.values())
    assert memory["peak_rss_bytes"] <= SPEEDUP_MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{SPEEDUP_MEMORY_CEILING_BYTES}"
    )
    check_oracle_parity(
        compile_with("hypercube", query, SPEEDUP_P, seed=0),
        skewed(ORACLE_N),
    )


def test_skew_large_n_memory(once):
    """The n=10^5 leg: chunked skew generation + HyperCube within its
    memory ceiling; heavy-hitter machinery actually engaged."""
    from repro.data.generators import skewed_database_columnar

    query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")

    def timed():
        database = skewed_database_columnar(
            query,
            n=LARGE_N,
            seed=1,
            heavy_fraction=SPEEDUP_HEAVY_FRACTION,
        )

        def run():
            return run_pinned("hypercube", query, database, p=LARGE_P, seed=0)

        seconds, result = best_of(1, run)
        # Memory on a separate (untimed) run under tracemalloc.
        _, memory = measure_peak(run)
        return seconds, result, memory

    seconds, result, memory = once(timed)
    heavy_values = sum(len(v) for v in result.heavy_hitters.values())
    emit(
        f"E11-large: heavy-binding HC n={LARGE_N} p={LARGE_P} "
        f"heavy={SPEEDUP_HEAVY_FRACTION} {seconds:.2f}s, "
        f"{len(result.answers)} answers, {heavy_values} heavy values, "
        f"peak RSS {memory['peak_rss_bytes'] / 1024**2:.0f} MiB"
    )
    record_bench(
        "skew_large_n",
        {
            "query": query.name,
            "n": LARGE_N,
            "p": LARGE_P,
            "heavy_fraction": SPEEDUP_HEAVY_FRACTION,
            "numpy_seconds": seconds,
            "answers": len(result.answers),
            "heavy_values": heavy_values,
            "max_load_tuples": result.report.max_load_tuples,
            **memory,
        },
    )
    assert heavy_values >= 1  # the funnel value was detected
    assert memory["peak_rss_bytes"] <= LARGE_N_MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{LARGE_N_MEMORY_CEILING_BYTES}"
    )
