"""Streamed execution is bit-identical to monolithic, everywhere.

The ISSUE's non-negotiable: answers, per-server loads, views and
``CapacityExceeded`` must match the monolithic path for every
algorithm x chunk size -- chunk infinity literally *is* the monolithic
code path -- and both must match the row-at-a-time oracle
(:mod:`repro.oracle`).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import connect, oracle
from repro.algorithms.hypercube import compile_hypercube
from repro.algorithms.multiround import compile_multiround
from repro.algorithms.registry import compile_with
from repro.core.families import cycle_query, line_query
from repro.core.plans import build_plan
from repro.core.query import parse_query
from repro.data.generators import matching_database, skewed_database
from repro.engine.executor import execute_plan
from repro.engine.profile import RoundProfiler
from repro.mpc.simulator import CapacityExceeded
from tests.conftest import assert_oracle_parity, capacity_failure

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


def _route_blocks(profiler):
    """How many blocks the rounds routed (local evaluation records its
    per-shard ``eval`` blocks separately)."""
    return sum(
        len(phases.get("route", ())) for phases in profiler.blocks.values()
    )


class TestSerialParity:
    """execute_plan(chunk_rows=...) against the monolithic run and the
    oracle."""

    def _cases(self):
        two_hop = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        chain = line_query(4)
        return [
            (two_hop, compile_hypercube(two_hop, p=8)),
            (
                chain,
                compile_multiround(build_plan(chain, Fraction(0)), p=8),
            ),
        ]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_engine_matches_oracle(self, chunk):
        for query, plan in self._cases():
            db = matching_database(query, n=90, rng=17)
            monolithic = execute_plan(plan, db)
            profiler = RoundProfiler()
            streamed = execute_plan(
                plan, db, chunk_rows=chunk, profiler=profiler
            )
            _assert_parity(
                monolithic, streamed, (query.name, chunk)
            )
            assert_oracle_parity(streamed, oracle.execute_plan(plan, db))
            # Every step routes through the block loop; chunk infinity
            # makes each of its sources exactly one block.
            steps = sum(len(round_.steps) for round_ in plan.rounds)
            assert _route_blocks(profiler) >= steps
            assert (_route_blocks(profiler) > steps) == (chunk in (1, 7))

    def test_chunk_rows_engages_streaming(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        plan = compile_hypercube(query, p=8)
        db = matching_database(query, n=50, rng=19)
        monolithic = execute_plan(plan, db)
        profiler = RoundProfiler()
        streamed = execute_plan(plan, db, chunk_rows=9, profiler=profiler)
        _assert_parity(monolithic, streamed, "chunk_rows=9")
        assert _route_blocks(profiler) == 2 * 6  # two 50-row sources


class TestServiceParity:
    """The chunk_rows knob through a pinned session, per algorithm."""

    ALGORITHMS = (
        ("hypercube", {}),
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
        monolithic = connect(database, p=8, algorithm=algorithm)
        streamed = connect(
            database, p=8, algorithm=algorithm, chunk_rows=chunk
        )
        expected = monolithic.execute(triangle, **overrides)
        actual = streamed.execute(triangle, **overrides)
        assert actual.answers == expected.answers
        assert actual.per_server == expected.per_server
        assert actual.algorithm == expected.algorithm

    def test_capacity_failure_is_bit_identical(self, triangle, database):
        failures = {}
        for chunk in (None, 4):
            session = connect(
                database,
                p=8,
                algorithm="hypercube",
                capacity_c=0.001,
                enforce_capacity=True,
                chunk_rows=chunk,
            )
            with pytest.raises(CapacityExceeded) as info:
                session.execute(triangle)
            failures[chunk] = info.value
            # The session stays usable after the mid-stream abort:
            # the next request fails identically instead of tripping
            # over a half-open round.
            with pytest.raises(CapacityExceeded) as again:
                session.execute(triangle)
            assert again.value.worker == info.value.worker
        monolithic, streamed = failures[None], failures[4]
        assert streamed.worker == monolithic.worker
        assert streamed.received_bits == monolithic.received_bits
        assert streamed.capacity_bits == monolithic.capacity_bits
        assert streamed.round_index == monolithic.round_index
        plan = compile_with(
            "hypercube", triangle, 8, capacity_c=0.001, enforce_capacity=True
        )
        assert capacity_failure(
            lambda: oracle.execute_plan(plan, database)
        ) == (
            streamed.worker,
            streamed.received_bits,
            streamed.capacity_bits,
            streamed.round_index,
        )


class TestHeavyBindingBlocks:
    """Heavy-hitter routing goes through the block loop like any step:
    skewed C3 at every block size equals the oracle."""

    @pytest.fixture(scope="class")
    def database(self):
        return skewed_database(
            cycle_query(3), n=120, rng=3, heavy_fraction=0.5
        )

    @pytest.mark.parametrize("chunk", (1, 7, 50, None))
    def test_answers_and_loads_match_the_oracle(
        self, triangle, database, chunk
    ):
        reference = oracle.execute_plan(
            compile_with("hypercube", triangle, 16), database
        )
        assert any(reference.heavy_hitters.values())
        session = connect(
            database, p=16, algorithm="hypercube", chunk_rows=chunk
        )
        result = session.execute(triangle)
        assert result.answers == reference.answers
        assert result.per_server == reference.per_server

    @pytest.mark.parametrize("chunk", (1, 7, 50, None))
    def test_capacity_failure_matches_the_oracle(
        self, triangle, database, chunk
    ):
        # A budget half a bit under the heaviest worker's round-1 load:
        # only the heaviest workers overflow, and the first of them is
        # the one reported.
        loose = compile_with("hypercube", triangle, 16)
        loads = oracle.execute_plan(loose, database).report.rounds[0]
        capacity_c = loose.signature.capacity_c * (
            (max(loads.received_bits) - 0.5) / loads.capacity_bits
        )
        plan = compile_with(
            "hypercube",
            triangle,
            16,
            capacity_c=capacity_c,
            enforce_capacity=True,
        )
        expected = capacity_failure(
            lambda: oracle.execute_plan(plan, database)
        )
        assert expected[0] == loads.received_bits.index(
            max(loads.received_bits)
        )
        session = connect(
            database,
            p=16,
            algorithm="hypercube",
            capacity_c=capacity_c,
            enforce_capacity=True,
            chunk_rows=chunk,
        )
        assert capacity_failure(lambda: session.execute(triangle)) == (
            expected
        )


class TestSessionParity:
    """The chunk_rows knob through the Session front door."""

    VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")

    def test_session_threads_the_knob(self):
        database = matching_database(self.VOCAB, n=50, rng=29)
        whole = RoundProfiler()
        with connect(database, p=8) as monolithic:
            expected = monolithic.query("S1(x,y), S2(y,z)").execute(whole)
        profiler = RoundProfiler()
        with connect(
            database, p=8, chunk_rows=8
        ) as streamed:
            actual = streamed.query("S1(x,y), S2(y,z)").execute(profiler)
        assert _route_blocks(profiler) > _route_blocks(whole)
        assert actual.answers == expected.answers
        assert actual.per_server == expected.per_server
