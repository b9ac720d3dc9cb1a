"""E11 (ablation) -- skew: where the matching assumption is load-bearing.

Section 2.5 restricts the paper's upper bounds to matching databases
and defers skew to [17].  This ablation makes the boundary measurable:

* on a *funnel* instance (every S1 tuple meets every S2 tuple through
  one heavy join value) plain HC piles the entire input on one server
  -- max load Theta(n), flat in p;
* the skew-aware variant (heavy-hitter cartesian split, after [17])
  restores decreasing-in-p max load;
* on matching inputs the two algorithms route identically (the
  skew machinery costs nothing when there is no skew).

``test_skew_backend_speedup`` additionally pins the engine claim: the
vectorized heavy-hitter detection (unique/counts) plus columnar
heavy/light partition routing beat the per-tuple reference by >= 3x
at n=4000 with bit-identical answers, heavy hitters and loads.
"""

from __future__ import annotations

import pytest

from conftest import best_of, emit, measure_peak, record_bench, run_pinned

from repro.algorithms.localjoin import evaluate_query
from repro.analysis.reporting import format_table
from repro.backend import numpy_available
from repro.core.query import parse_query
from repro.data.database import Database, Relation
from repro.data.generators import skewed_database
from repro.data.matching import matching_database

# Largest n of the speedup benchmark; vectorization wins grow with n.
SPEEDUP_N = 4000
SPEEDUP_P = 64
SPEEDUP_HEAVY_FRACTION = 0.5

# The large-n leg: chunked columnar skew generation + numpy skew-aware
# HC at n=10^5.
LARGE_N = 100_000
LARGE_P = 64
LARGE_N_MEMORY_CEILING_BYTES = 3 * 1024**3


def funnel_database(n):
    return Database.from_relations(
        [
            Relation.from_tuples("S1", [(i, 1) for i in range(1, n + 1)], n),
            Relation.from_tuples("S2", [(1, i) for i in range(1, n + 1)], n),
        ]
    )


def run_ablation():
    query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
    n = 256
    database = funnel_database(n)
    truth = evaluate_query(
        query, {name: database[name].tuples for name in database.relations}
    )
    rows = []
    for p in (4, 16, 64):
        plain = run_pinned("hypercube", query, database, p=p, seed=3)
        aware = run_pinned("skewaware", query, database, p=p, seed=3)
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
            ["p", "plain HC max load", "skew-aware max load",
             "plain imbalance", "aware imbalance"],
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
            title="E11: funnel skew, plain vs skew-aware HC "
            "(n = 256 tuples per relation)",
        )
    )
    # Plain HC: max load flat at ~2n regardless of p (all on one server).
    plain = [row["plain_max_load"] for row in rows]
    assert plain[0] == plain[-1] == 512
    # Skew-aware: max load strictly decreasing in p.
    aware = [row["aware_max_load"] for row in rows]
    assert aware == sorted(aware, reverse=True)
    assert aware[-1] < plain[-1] / 2
    # And far better balanced.
    for row in rows:
        assert row["aware_imbalance"] <= row["plain_imbalance"]


def test_no_cost_without_skew(once):
    """On matchings the two algorithms send byte-identical loads."""

    def compare():
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = matching_database(query, n=200, rng=9)
        plain = run_pinned("hypercube", query, database, p=16, seed=4)
        aware = run_pinned("skewaware", query, database, p=16, seed=4)
        return plain, aware

    plain, aware = once(compare)
    assert plain.answers == aware.answers
    assert (
        plain.report.rounds[0].received_bits
        == aware.report.rounds[0].received_bits
    )
    emit(
        "E11b: matching input -> skew-aware routing is byte-identical "
        "to plain HC (no skew, no cost)."
    )


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_skew_backend_speedup(once):
    """Vectorized skew-aware HC is >= 3x faster than pure at n=4000."""
    query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
    database = skewed_database(
        query,
        n=SPEEDUP_N,
        rng=1,
        heavy_fraction=SPEEDUP_HEAVY_FRACTION,
    )

    def run(backend):
        return run_pinned(
            "skewaware", query, database, p=SPEEDUP_P, seed=0, backend=backend
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
            title=f"E11c: skew-aware HC n={SPEEDUP_N} p={SPEEDUP_P} "
            f"heavy={SPEEDUP_HEAVY_FRACTION}: pure vs numpy engine",
        )
    )
    record_bench(
        "skew_speedup",
        {
            "query": query.name,
            "n": SPEEDUP_N,
            "p": SPEEDUP_P,
            "heavy_fraction": SPEEDUP_HEAVY_FRACTION,
            "pure_seconds": pure_seconds,
            "numpy_seconds": numpy_seconds,
            "speedup": speedup,
            "answers": len(pure.answers),
            **memory,
        },
    )
    # Identical protocol: answers, heavy hitters and loads.
    assert pure.answers == vectorized.answers
    assert pure.heavy_hitters == vectorized.heavy_hitters
    assert (
        pure.report.rounds[0].received_bits
        == vectorized.report.rounds[0].received_bits
    )
    assert speedup >= 3.0, f"numpy engine only {speedup:.1f}x faster"


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_skew_large_n_memory(once):
    """The n=10^5 leg: chunked skew generation + skew-aware HC within
    its memory ceiling; heavy-hitter machinery actually engaged."""
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
            return run_pinned(
                "skewaware", query, database, p=LARGE_P, seed=0,
                backend="numpy",
            )

        seconds, result = best_of(1, run)
        # Memory on a separate (untimed) run under tracemalloc.
        _, memory = measure_peak(run)
        return seconds, result, memory

    seconds, result, memory = once(timed)
    heavy_values = sum(len(v) for v in result.heavy_hitters.values())
    emit(
        f"E11-large: skew-aware HC n={LARGE_N} p={LARGE_P} "
        f"heavy={SPEEDUP_HEAVY_FRACTION} numpy {seconds:.2f}s, "
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
