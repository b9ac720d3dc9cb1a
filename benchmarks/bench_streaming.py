"""E13 -- streamed round execution at 10x data (ROADMAP item 2).

The monolithic engine materialises every relation's full delivery
pool in parent memory each round -- ``O(n x replication)`` bytes,
which is what capped the repository at n=1e6 (~6 GB peak on the L_8
workload).  The streamed pipeline routes in fixed-size column blocks,
accounts loads from a counting pass, and materialises delivered rows
one bounded worker shard at a time, so peak RSS is
``O(chunk + shard budget)`` independent of ``n``.

Gates pinned here:

* ``test_streaming_l8_memory`` (default CI): L_8 at p=64, n=10^6
  routes + evaluates fully streamed under a **2.5 GB** lifetime peak
  RSS ceiling -- below the ~6 GB the monolithic path needs -- with
  the exact answer count.
* ``test_streaming_l8_xl`` (``REPRO_BENCH_XL=1``): the n=10^7 leg
  completes under **4 GB** (the ROADMAP item 2 target).  ~25 GB of
  delivered tuples never exist at once.

BENCH_streaming*.json records the timings and memory fields.
"""

from __future__ import annotations

import os
from fractions import Fraction

import pytest

from conftest import best_of, emit, measure_peak, peak_rss_bytes, record_bench

from repro.core.covers import fractional_vertex_cover
from repro.core.families import line_query
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.data.generators import matching_database_columnar
from repro.engine.streaming import LazyContribution
from repro.mpc.model import MPCConfig
from repro.mpc.routing import HashFamily
from repro.mpc.simulator import MPCSimulator

STREAM_K = 8
STREAM_P = 64
#: Streaming block size: ~4 MiB of column views per block per arity-2
#: relation -- big enough to amortise per-block dispatch, small enough
#: that transient routing state is noise next to the shard budget.
CHUNK_ROWS = 262_144
#: Default-CI leg: n=10^6 streamed end-to-end under 2.5 GB (the
#: monolithic path needs ~6 GB on this exact workload).
DEFAULT_N = 1_000_000
DEFAULT_CEILING_BYTES = int(2.5 * 1024**3)
#: XL leg: the ROADMAP item 2 gate -- n=10^7 under 4 GB.
XL_N = 10_000_000
XL_CEILING_BYTES = 4 * 1024**3


def _stream_l8(n: int, p: int, chunk_rows: int):
    """One fully streamed HC round of L_k; returns (query, simulator).

    Identical to bench_segmented's ``_route_l8`` except the engine
    runs with ``chunk_rows`` set: every source spans many blocks, so
    deliveries are lazy recipes, loads come from the counting pass,
    and no full pool ever materialises.
    """
    from repro.engine import GridSpec, HashRoute, RoundEngine

    query = line_query(STREAM_K)
    database = matching_database_columnar(query, n=n, seed=0)
    cover = fractional_vertex_cover(query)
    allocation = allocate_integer_shares(
        share_exponents(query, cover), p
    )
    grid = GridSpec.from_shares(
        query.variables, allocation.shares, HashFamily(0)
    )
    config = MPCConfig(
        p=p, eps=Fraction(1, 2), c=4.0
    )
    simulator = MPCSimulator(
        config, input_bits=database.total_bits, enforce_capacity=False
    )
    engine = RoundEngine(simulator, chunk_rows=chunk_rows)
    steps = [
        HashRoute(relation=atom.name, atom=atom, grid=grid)
        for atom in query.atoms
    ]
    engine.run_round(steps, database.relations)
    return query, simulator, list(range(allocation.used_servers))


def _sharded_answer_counts(query, simulator, workers):
    """Total answers + per-server counts, one bounded shard at a time.

    Never holds more than one shard's answers: the XL leg's whole
    point is that neither the delivered pools nor the merged answer
    table exist in full at any moment.
    """
    from repro.engine.local import _eval_shard_local, _plan_eval_shards

    key_of = lambda name: name  # noqa: E731 - trivial identity
    shards = _plan_eval_shards(query, simulator, len(workers), key_of)
    total = 0
    per_server: list[int] = []
    for lo, hi in shards:
        answers, counts = _eval_shard_local(
            query, simulator, lo, hi, key_of
        )
        total += len(answers)
        per_server.extend(counts)
        del answers
    return total, per_server, len(shards)


def _streamed_leg(name: str, n: int, ceiling_bytes: int, once):
    """Route + evaluate one streamed L_8 leg and record its artifact.

    ``SHARD_BYTES_ENV`` sizes the eval shards: evaluation pays one full
    re-routing pass per shard (the documented CPU-for-memory trade),
    so the XL leg raises the budget to keep the pass count -- not
    just the ceiling -- proportionate.
    """

    def timed():
        (query, simulator, workers), memory = measure_peak(
            lambda: _stream_l8(n, STREAM_P, CHUNK_ROWS)
        )
        for atom in query.atoms:  # streamed recipes only, nothing pooled
            assert simulator.has_lazy_deliveries(atom.name)
            assert all(
                isinstance(delivery, LazyContribution)
                for delivery in simulator._delivered[atom.name]
            )
        eval_seconds, (total, per_server, shards) = best_of(
            1,
            lambda: _sharded_answer_counts(query, simulator, workers),
        )
        delivered = sum(
            sum(stats.received_tuples)
            for stats in simulator.report.rounds
        )
        # Lifetime peak RSS re-read after shard-wise eval ran, so the
        # ceiling covers the whole streamed pipeline.
        memory["peak_rss_bytes"] = peak_rss_bytes()
        return total, per_server, shards, delivered, eval_seconds, memory

    total, per_server, shards, delivered, eval_seconds, memory = once(
        timed
    )
    emit(
        f"E13{name}: L_{STREAM_K} n={n} p={STREAM_P} streamed "
        f"(chunk={CHUNK_ROWS}): {total} answers over {shards} eval "
        f"shard(s), {delivered} delivered tuples never pooled at "
        f"once, eval {eval_seconds:.2f}s, peak RSS "
        f"{memory['peak_rss_bytes'] / 1024**3:.2f} GiB "
        f"(ceiling {ceiling_bytes / 1024**3:.1f} GiB)"
    )
    record_bench(
        f"streaming{name.lower().replace('-', '_')}",
        {
            "query": f"L{STREAM_K}",
            "n": n,
            "p": STREAM_P,
            "chunk_rows": CHUNK_ROWS,
            "eval_shards": shards,
            "eval_seconds": eval_seconds,
            "answers": total,
            "delivered_tuples": delivered,
            "rss_ceiling_bytes": ceiling_bytes,
            **memory,
        },
    )
    # A matching database chains every domain value through all k
    # relations exactly once: the streamed pipeline must find each of
    # the n chains at exactly one grid server.
    assert total == n, f"streamed eval found {total} answers, expected {n}"
    assert memory["peak_rss_bytes"] <= ceiling_bytes, (
        f"peak RSS {memory['peak_rss_bytes']} exceeds streamed ceiling "
        f"{ceiling_bytes}"
    )


def test_streaming_l8_memory(once):
    """Streamed L_8 n=10^6 stays under 2.5 GB with exact answers."""
    _streamed_leg("", DEFAULT_N, DEFAULT_CEILING_BYTES, once)


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_XL"),
    reason="set REPRO_BENCH_XL=1 for the n=10^7 leg",
)
def test_streaming_l8_xl(once, monkeypatch):
    """The ROADMAP item 2 gate: n=10^7 under a 4 GB RSS ceiling."""
    from repro.engine.streaming import SHARD_BYTES_ENV

    # 768 MiB shards: ~3 GB peak (sources + shard pool + join
    # temporaries) and ~34 re-routing passes instead of the default
    # budget's ~50.
    monkeypatch.setenv(SHARD_BYTES_ENV, str(768 * 1024**2))
    _streamed_leg("-XL", XL_N, XL_CEILING_BYTES, once)
