"""E12 -- segmented local evaluation at large n.

After routing unified on the shared round engine, the simulator's
wall-clock became dominated by *local* evaluation.  The numpy backend
evaluates it shard by shard over the round's delivery pools: one
vectorized join per contiguous worker range, worker id prepended to
every join key, sort-free direct-address lookups where the pools are
pre-sorted.  An eager round under the default shard budget is a single
shard spanning the fleet.

``test_segmented_local_eval`` runs that evaluation on ``L_8`` at p=64,
n=10^5 and records its absolute time in BENCH_segmented_speedup.json
(``segmented_seconds``; the file name is kept so the artifact history
stays in one series) next to the peak-memory fields
(``tracemalloc_peak``, ``peak_rss_bytes``); the run fails if peak
memory blows its ceiling.  Answers and per-server counts are checked
against the row-path reference (``evaluate_query`` per worker) on a
small-n twin of the same round.

Set ``REPRO_BENCH_XL=1`` to also run the n=10^6 leg.  Since the
streamed round pipeline landed, that leg routes in column blocks and
evaluates one bounded worker shard at a time, so it fits a 2.5 GB
ceiling instead of the ~5.6 GB the monolithic pools needed; the old
peak is kept as ``monolithic_rss_bytes`` in the JSON for one release
so the trend history shows the drop.
"""

from __future__ import annotations

import os
from fractions import Fraction

import pytest

from conftest import best_of, emit, measure_peak, peak_rss_bytes, record_bench

from repro.backend import numpy_available
from repro.core.covers import fractional_vertex_cover
from repro.core.families import line_query
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.data.columnar import columnar_database
from repro.data.generators import matching_database_columnar
from repro.mpc.model import MPCConfig
from repro.mpc.routing import HashFamily
from repro.mpc.simulator import MPCSimulator

SPEEDUP_N = 100_000
SPEEDUP_P = 64
SPEEDUP_K = 8
# Lifetime peak RSS ceiling for the n=10^5 leg.  The L_8 round pools
# ~16M delivered tuples (~0.7 GB peak on the measured runs); 3 GB
# catches a regression to quadratic blowup while leaving allocator
# headroom on CI runners.
MEMORY_CEILING_BYTES = 3 * 1024**3


def _route_l8(n: int, p: int):
    """One HC round of L_k at (n, p); returns (query, simulator, workers)."""
    from repro.engine import GridSpec, HashRoute, RoundEngine

    query = line_query(SPEEDUP_K)
    database = matching_database_columnar(query, n=n, seed=0)
    cover = fractional_vertex_cover(query)
    allocation = allocate_integer_shares(
        share_exponents(query, cover), p
    )
    grid = GridSpec.from_shares(
        query.variables, allocation.shares, HashFamily(0)
    )
    config = MPCConfig(
        p=p, eps=Fraction(1, 2), c=4.0, backend="numpy"
    )
    simulator = MPCSimulator(
        config, input_bits=database.total_bits, enforce_capacity=False
    )
    engine = RoundEngine(simulator)
    steps = [
        HashRoute(relation=atom.name, atom=atom, grid=grid)
        for atom in query.atoms
    ]
    engine.run_round(steps, columnar_database(database, "numpy"))
    return query, simulator, list(range(allocation.used_servers))


#: The small-n twin the row-path oracle can afford.
ORACLE_N = 2_000


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_segmented_local_eval(once):
    """L_8 local eval at n=1e5: time recorded, RSS ceiling, oracle parity."""
    from repro.engine import worker_answer_rows
    from repro.engine.local import _identity_key, _merged_answer_table

    def evaluate(query, simulator, workers):
        return _merged_answer_table(query, simulator, workers, _identity_key)

    def timed():
        (query, simulator, workers), memory = measure_peak(
            lambda: _route_l8(SPEEDUP_N, SPEEDUP_P)
        )
        seconds, (merged, _) = best_of(
            3, lambda: evaluate(query, simulator, workers)
        )
        # Lifetime peak RSS re-read after the timed path ran, so the
        # ceiling covers local evaluation too (tracemalloc covered
        # only routing -- it must never wrap the timed calls).
        memory["peak_rss_bytes"] = peak_rss_bytes()
        return seconds, len(merged), memory

    segmented_seconds, answers, memory = once(timed)
    emit(
        f"E12: L_{SPEEDUP_K} local eval n={SPEEDUP_N} p={SPEEDUP_P}: "
        f"{segmented_seconds:.4f}s, {answers} answers, peak RSS "
        f"{memory['peak_rss_bytes'] / 1024**2:.0f} MiB"
    )
    record_bench(
        "segmented_speedup",
        {
            "query": f"L{SPEEDUP_K}",
            "n": SPEEDUP_N,
            "p": SPEEDUP_P,
            "segmented_seconds": segmented_seconds,
            "answers": answers,
            **memory,
        },
    )
    assert answers == SPEEDUP_N  # L_k over matchings chains end to end
    assert memory["peak_rss_bytes"] <= MEMORY_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds ceiling "
        f"{MEMORY_CEILING_BYTES}"
    )
    # The same round at oracle size: identical local semantics to the
    # row-path reference, worker by worker.
    query, simulator, workers = _route_l8(ORACLE_N, SPEEDUP_P)
    merged, per_server = evaluate(query, simulator, workers)
    reference = [
        worker_answer_rows(query, simulator, worker) for worker in workers
    ]
    assert per_server == [len(rows) for rows in reference]
    assert list(map(tuple, merged.tolist())) == sorted(
        set().union(*reference)
    )


#: Streamed ceiling for the XL leg (was ~5.6 GB monolithic).
XL_CEILING_BYTES = int(2.5 * 1024**3)
#: The monolithic peak the leg recorded before the streamed pipeline
#: (PR 3's measured ~5.6 GB); kept in the JSON for one release so the
#: artifact history shows the drop, then to be removed.
MONOLITHIC_RSS_BYTES = int(5.6 * 1024**3)


def _stream_l8(n: int, p: int, chunk_rows: int):
    """The streamed twin of :func:`_route_l8` (see bench_streaming)."""
    from repro.engine import GridSpec, HashRoute, RoundEngine

    query = line_query(SPEEDUP_K)
    database = matching_database_columnar(query, n=n, seed=0)
    cover = fractional_vertex_cover(query)
    allocation = allocate_integer_shares(
        share_exponents(query, cover), p
    )
    grid = GridSpec.from_shares(
        query.variables, allocation.shares, HashFamily(0)
    )
    config = MPCConfig(
        p=p, eps=Fraction(1, 2), c=4.0, backend="numpy"
    )
    simulator = MPCSimulator(
        config, input_bits=database.total_bits, enforce_capacity=False
    )
    engine = RoundEngine(simulator, chunk_rows=chunk_rows)
    steps = [
        HashRoute(relation=atom.name, atom=atom, grid=grid)
        for atom in query.atoms
    ]
    engine.run_round(steps, columnar_database(database, "numpy"))
    return query, simulator, list(range(allocation.used_servers))


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_XL"),
    reason="set REPRO_BENCH_XL=1 for the n=10^6 leg",
)
def test_segmented_local_eval_million(once):
    """The n=10^6 leg: streamed route + shard-wise segmented eval."""
    from repro.engine.local import _eval_shard_local, _plan_eval_shards

    n = 1_000_000
    chunk_rows = 262_144
    key_of = lambda name: name  # noqa: E731 - trivial identity

    def timed():
        (query, simulator, workers), memory = measure_peak(
            lambda: _stream_l8(n, SPEEDUP_P, chunk_rows)
        )

        def evaluate():
            shards = _plan_eval_shards(
                query, simulator, len(workers), key_of
            )
            total = 0
            for lo, hi in shards:
                answers, _ = _eval_shard_local(
                    query, simulator, lo, hi, key_of
                )
                total += len(answers)
                del answers
            return total

        seconds, total = best_of(1, evaluate)
        memory["peak_rss_bytes"] = peak_rss_bytes()
        return seconds, total, memory

    seconds, total, memory = once(timed)
    emit(
        f"E12-XL: L_{SPEEDUP_K} n={n} p={SPEEDUP_P} streamed "
        f"shard-wise local eval {seconds:.2f}s, {total} answers, "
        f"peak RSS {memory['peak_rss_bytes'] / 1024**3:.2f} GiB "
        f"(monolithic needed "
        f"{MONOLITHIC_RSS_BYTES / 1024**3:.1f} GiB)"
    )
    record_bench(
        "segmented_million",
        {
            "query": f"L{SPEEDUP_K}",
            "n": n,
            "p": SPEEDUP_P,
            "chunk_rows": chunk_rows,
            "segmented_seconds": seconds,
            "answers": total,
            "rss_ceiling_bytes": XL_CEILING_BYTES,
            "monolithic_rss_bytes": MONOLITHIC_RSS_BYTES,
            **memory,
        },
    )
    assert total == n
    assert memory["peak_rss_bytes"] <= XL_CEILING_BYTES, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds streamed ceiling "
        f"{XL_CEILING_BYTES}"
    )
