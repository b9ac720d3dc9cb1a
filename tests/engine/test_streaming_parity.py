"""Streamed execution is bit-identical to monolithic, everywhere.

The ISSUE's non-negotiable: answers, per-server loads, views and
``CapacityExceeded`` must match the monolithic path for every
algorithm x backend x chunk size -- chunk infinity literally *is* the
monolithic code path, and the ``pure`` backend ignores the knob
entirely.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

numpy = pytest.importorskip("numpy")

from repro import connect
from repro.algorithms.hypercube import compile_hypercube
from repro.algorithms.multiround import compile_multiround
from repro.core.families import cycle_query, line_query
from repro.core.plans import build_plan
from repro.core.query import parse_query
from repro.data.matching import matching_database
from repro.engine.executor import execute_plan
from repro.engine.parallel.engine import ParallelContext
from repro.engine.profile import RoundProfiler
from repro.mpc.simulator import CapacityExceeded
from repro.serve.service import QueryService

CHUNKS = (1, 7, 1000, None)


def _assert_parity(monolithic, streamed, label):
    assert streamed.answers == monolithic.answers, label
    assert streamed.per_server == monolithic.per_server, label
    assert streamed.view_sizes == monolithic.view_sizes, label
    assert (
        streamed.per_server_views == monolithic.per_server_views
    ), label
    mono_rounds = monolithic.report.rounds
    stream_rounds = streamed.report.rounds
    assert len(stream_rounds) == len(mono_rounds), label
    assert [s.received_bits for s in stream_rounds] == [
        s.received_bits for s in mono_rounds
    ], label
    assert [s.received_tuples for s in stream_rounds] == [
        s.received_tuples for s in mono_rounds
    ], label


def _routed_blocks(profiler):
    """Whether any round routed block-wise, i.e. streaming engaged
    (local evaluation records per-shard ``eval`` blocks either way)."""
    return any("route" in phases for phases in profiler.blocks.values())


class TestSerialParity:
    """execute_plan(chunk_rows=...) against the monolithic run."""

    def _cases(self, backend):
        two_hop = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        chain = line_query(4)
        return [
            (
                two_hop,
                compile_hypercube(two_hop, p=8, backend=backend),
            ),
            (
                chain,
                compile_multiround(
                    build_plan(chain, Fraction(0)), p=8, backend=backend
                ),
            ),
        ]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_numpy_backend_parity(self, chunk):
        for query, plan in self._cases("numpy"):
            db = matching_database(query, n=90, rng=17)
            monolithic = execute_plan(plan, db)
            profiler = RoundProfiler()
            streamed = execute_plan(
                plan, db, chunk_rows=chunk, profiler=profiler
            )
            _assert_parity(
                monolithic, streamed, (query.name, chunk)
            )
            # chunk infinity degenerates to the monolithic path: no
            # block is ever routed.
            assert _routed_blocks(profiler) == (chunk is not None)

    def test_pure_backend_ignores_the_knob(self):
        for query, plan in self._cases("pure"):
            db = matching_database(query, n=40, rng=17)
            monolithic = execute_plan(plan, db)
            profiler = RoundProfiler()
            streamed = execute_plan(
                plan, db, chunk_rows=5, profiler=profiler
            )
            _assert_parity(monolithic, streamed, query.name)
            assert not profiler.blocks  # streaming never engaged

    def test_chunk_rows_engages_streaming(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        plan = compile_hypercube(query, p=8, backend="numpy")
        db = matching_database(query, n=50, rng=19)
        monolithic = execute_plan(plan, db)
        profiler = RoundProfiler()
        streamed = execute_plan(plan, db, chunk_rows=9, profiler=profiler)
        _assert_parity(monolithic, streamed, "chunk_rows=9")
        assert _routed_blocks(profiler)


class TestServiceParity:
    """The chunk_rows knob through QueryService, per algorithm."""

    ALGORITHMS = (
        ("hypercube", {}),
        ("skewaware", {}),
        ("multiround", {}),
        ("partial", {"eps": Fraction(1, 4)}),
    )

    @pytest.fixture(scope="class")
    def database(self):
        return matching_database(cycle_query(3), n=60, rng=23)

    @pytest.mark.parametrize(
        "algorithm,overrides", ALGORITHMS, ids=[a for a, _ in ALGORITHMS]
    )
    @pytest.mark.parametrize("chunk", (1, 16, None))
    def test_parity_per_algorithm(
        self, triangle, database, algorithm, overrides, chunk
    ):
        monolithic = QueryService(database, p=8, backend="numpy")
        streamed = QueryService(
            database, p=8, backend="numpy", chunk_rows=chunk
        )
        expected = monolithic.execute(
            triangle, algorithm=algorithm, **overrides
        )
        actual = streamed.execute(
            triangle, algorithm=algorithm, **overrides
        )
        assert actual.answers == expected.answers
        assert actual.per_server == expected.per_server
        assert actual.algorithm == expected.algorithm

    def test_capacity_failure_is_bit_identical(self, triangle, database):
        failures = {}
        for chunk in (None, 4):
            service = QueryService(
                database,
                p=8,
                backend="numpy",
                capacity_c=0.001,
                enforce_capacity=True,
                chunk_rows=chunk,
            )
            with pytest.raises(CapacityExceeded) as info:
                service.execute(triangle)
            failures[chunk] = info.value
            # The pooled simulator stays reusable after the
            # mid-stream abort: the next request fails identically
            # instead of tripping over a half-open round.
            with pytest.raises(CapacityExceeded) as again:
                service.execute(triangle)
            assert again.value.worker == info.value.worker
        monolithic, streamed = failures[None], failures[4]
        assert streamed.worker == monolithic.worker
        assert streamed.received_bits == monolithic.received_bits
        assert streamed.capacity_bits == monolithic.capacity_bits
        assert streamed.round_index == monolithic.round_index


class TestSessionParity:
    """The chunk_rows knob through the Session front door."""

    VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")

    def test_session_threads_the_knob(self):
        database = matching_database(self.VOCAB, n=50, rng=29)
        with connect(database, p=8, backend="numpy") as monolithic:
            expected = monolithic.query("S1(x,y), S2(y,z)").execute()
        with connect(
            database, p=8, backend="numpy", chunk_rows=8
        ) as streamed:
            assert streamed.service.chunk_rows == 8
            actual = streamed.query("S1(x,y), S2(y,z)").execute()
        assert actual.answers == expected.answers
        assert actual.per_server == expected.per_server


class TestParallelStreamingParity:
    """Streamed rounds on the real spawn pool: fan-out plus overlap."""

    @pytest.fixture(scope="class")
    def context(self):
        with ParallelContext(2, min_rows=0) as context:
            yield context

    def _cases(self):
        two_hop = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        chain = line_query(4)
        return [
            (
                two_hop,
                compile_hypercube(two_hop, p=8, backend="numpy"),
            ),
            (
                chain,
                compile_multiround(
                    build_plan(chain, Fraction(0)), p=8, backend="numpy"
                ),
            ),
        ]

    def test_parity_and_counters(self, context):
        for query, plan in self._cases():
            db = matching_database(query, n=400, rng=31)
            monolithic = execute_plan(plan, db)
            before = context.parallel_rounds
            profiler = RoundProfiler()
            streamed = execute_plan(
                plan,
                db,
                parallel=context,
                chunk_rows=64,
                profiler=profiler,
            )
            _assert_parity(monolithic, streamed, query.name)
            assert context.parallel_rounds > before
            assert not context.pool.broken
            assert profiler.blocks
            assert profiler.overlap_seconds >= 0.0

    def test_multiround_views_overlap_with_routing(self, context):
        # The pipelined path: a multi-round plan materialises round
        # r's views while round r+1 routes; the profiler's overlap
        # column records the concurrency.
        chain = line_query(5)
        plan = compile_multiround(
            build_plan(chain, Fraction(0)), p=8, backend="numpy"
        )
        db = matching_database(chain, n=300, rng=37)
        monolithic = execute_plan(plan, db)
        profiler = RoundProfiler()
        streamed = execute_plan(
            plan,
            db,
            parallel=context,
            chunk_rows=32,
            profiler=profiler,
        )
        _assert_parity(monolithic, streamed, "line5 overlap")
        if not context.pool.broken:
            assert profiler.overlap_seconds > 0.0

    def test_broken_pool_falls_back_bit_identically(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        plan = compile_hypercube(query, p=8, backend="numpy")
        db = matching_database(query, n=200, rng=41)
        monolithic = execute_plan(plan, db)
        with ParallelContext(2, min_rows=0) as context:
            context.pool.close()
            context.pool.broken = True
            streamed = execute_plan(
                plan, db, parallel=context, chunk_rows=16
            )
            _assert_parity(monolithic, streamed, "broken pool")
            assert context.parallel_rounds == 0
