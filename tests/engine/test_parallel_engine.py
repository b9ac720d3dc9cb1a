"""The view pool: shardable contract, parity, fallback, pool slicing."""

from __future__ import annotations

from fractions import Fraction

import numpy
import pytest

from repro.algorithms.registry import compile_with
from repro.data.matching import matching_database
from repro.engine.executor import execute_plan
from repro.engine.parallel.engine import ParallelContext
from repro.engine.steps import (
    Broadcast,
    HashRoute,
    HeavyGridRoute,
    RoundRobinGrid,
    ToServer,
)
from repro.mpc.simulator import ColumnPool


class TestShardableContract:
    """The static declarations streamed routing dispatches on."""

    def test_content_only_steps_are_shardable(self, triangle):
        plan = compile_with("hypercube", triangle, 8)
        steps = [step for round_ in plan.rounds for step in round_.steps]
        assert steps and all(isinstance(step, HashRoute) for step in steps)
        assert all(step.shardable for step in steps)

    def test_index_and_signature_steps_are_not(self):
        from repro.engine.steps import RemapRanks, RoutingStep

        # Index- and signature-dependent routes inherit the base's
        # safe False instead of declaring shardability.
        for step_type in (RoundRobinGrid, HeavyGridRoute):
            assert "shardable" not in step_type.__dict__
        assert RoutingStep(relation="S1").shardable is False
        # RemapRanks overrides to delegate to its inner step.
        assert "shardable" in RemapRanks.__dict__
        assert Broadcast(relation="S1").shardable is True
        assert ToServer(relation="S1").shardable is True


class TestColumnPoolShard:
    def _pool(self):
        columns = (
            numpy.arange(10, dtype=numpy.int64),
            numpy.arange(10, 20, dtype=numpy.int64),
        )
        offsets = numpy.array([0, 3, 3, 7, 10], dtype=numpy.int64)
        return ColumnPool(columns=columns, offsets=offsets, source_sorted=True)

    def test_shard_rebases_offsets(self):
        pool = self._pool()
        shard = pool.shard(2, 4)
        assert shard.num_workers == 2
        assert shard.offsets.tolist() == [0, 4, 7]
        assert numpy.array_equal(
            shard.worker_slice(0)[0], pool.worker_slice(2)[0]
        )
        assert numpy.array_equal(
            shard.worker_slice(1)[1], pool.worker_slice(3)[1]
        )
        assert shard.source_sorted is pool.source_sorted

    def test_shards_cover_the_pool(self):
        pool = self._pool()
        left, right = pool.shard(0, 2), pool.shard(2, 4)
        assert len(left) + len(right) == len(pool)
        assert numpy.array_equal(
            numpy.concatenate([left.columns[0], right.columns[0]]),
            pool.columns[0],
        )

    def test_out_of_range_shard_raises(self):
        pool = self._pool()
        with pytest.raises(ValueError):
            pool.shard(3, 5)
        with pytest.raises(ValueError):
            pool.shard(-1, 2)


class TestExecutePlanParallel:
    """End-to-end: the real spawn pool against the serial engine."""

    @pytest.fixture(scope="class")
    def context(self):
        with ParallelContext(2) as context:
            yield context

    def test_parity_and_pool_views(self, triangle, triangle_db, context):
        plan = compile_with("multiround", triangle, 8)
        views = sum(len(round_.views) for round_ in plan.rounds)
        serial = execute_plan(plan, triangle_db)
        before = context.pool_views
        # Eager views never reach the pool; streamed ones all do.
        whole = execute_plan(plan, triangle_db, parallel=context)
        assert context.pool_views == before
        streamed = execute_plan(
            plan, triangle_db, parallel=context, chunk_rows=16
        )
        for parallel in (whole, streamed):
            assert parallel.answers == serial.answers
            assert parallel.per_server_views == serial.per_server_views
        assert context.pool_views == before + views

    ALGORITHMS = (
        ("hypercube", {}),
        ("skewaware", {}),
        ("multiround", {}),
        ("partial", {"eps": Fraction(1, 4)}),
    )

    @pytest.mark.parametrize(
        "algorithm,overrides", ALGORITHMS, ids=[a for a, _ in ALGORITHMS]
    )
    def test_parity_per_route(self, triangle, context, algorithm, overrides):
        from repro.core.families import cycle_query

        database = matching_database(cycle_query(3), n=60, rng=11)
        plan = compile_with(
            algorithm, triangle, 8, **overrides
        )
        views = sum(len(round_.views) for round_ in plan.rounds)
        serial = execute_plan(plan, database)
        before = context.pool_views
        parallel = execute_plan(
            plan, database, parallel=context, chunk_rows=16
        )
        assert parallel.answers == serial.answers
        assert parallel.per_server == serial.per_server
        assert context.pool_views == before + views

    def test_closed_context_is_ignored(self, triangle, triangle_db):
        plan = compile_with("multiround", triangle, 8)
        context = ParallelContext(2)
        context.close()
        assert not context.usable
        execution = execute_plan(
            plan, triangle_db, parallel=context, chunk_rows=16
        )
        serial = execute_plan(plan, triangle_db)
        assert execution.answers == serial.answers
        assert context.pool_views == 0

    def test_workers_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            ParallelContext(1)

    def test_no_segments_leak_after_close(self, triangle, triangle_db):
        from repro.engine.parallel.shm import segment_exists

        plan = compile_with("multiround", triangle, 8)
        context = ParallelContext(2)
        try:
            execute_plan(plan, triangle_db, parallel=context, chunk_rows=16)
            names = list(context.store.names)
            assert names
        finally:
            context.close()
        assert not any(segment_exists(name) for name in names)
