"""Process-parallel routing: shard parity, fallback, pool slicing."""

from __future__ import annotations

import numpy
import pytest

from repro.data.matching import matching_database
from repro.engine.executor import RoundEngine, _reassemble, execute_plan
from repro.engine.parallel.engine import DEFAULT_MIN_ROWS, ParallelContext
from repro.engine.steps import (
    Broadcast,
    HashRoute,
    HeavyGridRoute,
    RoundRobinGrid,
    ToServer,
)
from repro.mpc.simulator import ColumnPool
from repro.serve.service import QueryService


class TestShardableContract:
    """The static declarations the parallel engine dispatches on."""

    def test_content_only_steps_are_shardable(self, triangle, triangle_db):
        service = QueryService(triangle_db, p=8)
        plan = service.compile(triangle)
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


def _shard_results(step, columns, bounds, p):
    """What the pool's workers would return, computed in-process."""
    results = []
    for start, end in bounds:
        shard = tuple(column[start:end] for column in columns)
        routed_columns, destinations, row_indices = step.route_columns(
            shard, p
        )
        kept = len(routed_columns[0]) if routed_columns else 0
        results.append(
            {
                "destinations": destinations,
                "row_indices": row_indices,
                "kept": kept,
                "columns": (
                    None if kept == (end - start) else routed_columns
                ),
                "seconds": 0.0,
            }
        )
    return results


class TestReassembly:
    """Shard-and-concatenate equals the serial route, element for element."""

    P = 8

    def _source(self, relation, database):
        from repro.engine.executor import _plan_sources

        return _plan_sources(database)[relation]

    def _bounds(self, num_rows, shards):
        chunk = -(-num_rows // shards)
        return [
            (start, min(start + chunk, num_rows))
            for start in range(0, num_rows, chunk)
        ]

    def _check(self, step, source, shards=3):
        serial_columns, serial_dest, serial_idx = step.route_columns(
            source.columns, self.P
        )
        bounds = self._bounds(len(source), shards)
        results = _shard_results(step, source.columns, bounds, self.P)
        routed = _reassemble(source, bounds, results)
        assert numpy.array_equal(routed.destinations, serial_dest)
        for rebuilt, serial in zip(routed.columns, serial_columns):
            assert numpy.array_equal(rebuilt, serial)
        if serial_idx is None:
            assert routed.row_indices is None
        else:
            assert numpy.array_equal(routed.row_indices, serial_idx)

    def test_hash_route(self, triangle, triangle_db):
        service = QueryService(triangle_db, p=self.P)
        plan = service.compile(triangle)
        step = plan.rounds[0].steps[0]
        assert isinstance(step, HashRoute)
        self._check(step, self._source(step.relation, triangle_db))

    def test_hash_route_with_filtered_rows(self, triangle_db):
        # A repeated-variable atom drops contradicting rows during
        # routing, exercising the kept-offset arithmetic.
        from repro.core.query import parse_query

        query = parse_query("S1(x,x)")
        service = QueryService(triangle_db, p=self.P)
        plan = service.compile(query)
        step = plan.rounds[0].steps[0]
        source = self._source(step.relation, triangle_db)
        _, _, serial_idx = step.route_columns(source.columns, self.P)
        assert serial_idx is not None  # the filter actually bit
        self._check(step, source)

    def test_to_server(self, triangle_db):
        source = self._source("S1", triangle_db)
        self._check(ToServer(relation="S1", worker=3), source)

    def test_broadcast_is_pool_identical(self, triangle_db):
        # Broadcast's sharded emission is shard-major rather than
        # worker-major, so element identity does not hold -- but the
        # multiset of (destination, row) pairs does, and the
        # simulator's stable sort by receiver makes delivered pools
        # (hence answers and loads) bit-identical.  The end-to-end
        # tests below pin the pool-level equality.
        step = Broadcast(relation="S1")
        source = self._source("S1", triangle_db)
        columns, destinations, row_indices = step.route_columns(
            source.columns, self.P
        )
        bounds = self._bounds(len(source), 3)
        results = _shard_results(step, source.columns, bounds, self.P)
        routed = _reassemble(source, bounds, results)

        def pairs(cols, dest, idx):
            rows = numpy.stack([col[idx] for col in cols], axis=1)
            return sorted(
                (int(d), tuple(int(v) for v in row))
                for d, row in zip(dest, rows)
            )

        assert pairs(
            routed.columns, routed.destinations, routed.row_indices
        ) == pairs(columns, destinations, row_indices)

    def test_single_shard_degenerates_to_serial(self, triangle, triangle_db):
        service = QueryService(triangle_db, p=self.P)
        plan = service.compile(triangle)
        step = plan.rounds[0].steps[0]
        self._check(step, self._source(step.relation, triangle_db), shards=1)


class TestExecutePlanParallel:
    """End-to-end: the real spawn pool against the serial engine."""

    @pytest.fixture(scope="class")
    def context(self):
        with ParallelContext(2, min_rows=0) as context:
            yield context

    def _plan(self, query, database, p=8, **kwargs):
        service = QueryService(database, p=p)
        return service.compile(query, **kwargs)

    def test_parity_and_round_counters(self, triangle, triangle_db, context):
        plan = self._plan(triangle, triangle_db)
        serial = execute_plan(plan, triangle_db)
        before = context.parallel_rounds
        parallel = execute_plan(plan, triangle_db, parallel=context)
        assert parallel.answers == serial.answers
        assert parallel.per_server == serial.per_server
        assert context.parallel_rounds > before

    from fractions import Fraction

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
        from repro.algorithms.registry import compile_with
        from repro.core.families import cycle_query

        database = matching_database(cycle_query(3), n=60, rng=11)
        plan = compile_with(
            algorithm, triangle, 8, **overrides
        )
        serial = execute_plan(plan, database)
        rounds = context.parallel_rounds + context.fallback_rounds
        parallel = execute_plan(plan, database, parallel=context)
        assert parallel.answers == serial.answers
        assert parallel.per_server == serial.per_server
        assert context.parallel_rounds + context.fallback_rounds > rounds

    def test_min_rows_threshold_falls_back(self, triangle, triangle_db):
        plan = self._plan(triangle, triangle_db)
        serial = execute_plan(plan, triangle_db)
        with ParallelContext(2, min_rows=DEFAULT_MIN_ROWS) as context:
            parallel = execute_plan(plan, triangle_db, parallel=context)
            assert parallel.answers == serial.answers
            assert context.parallel_rounds == 0
            assert context.fallback_rounds > 0

    def test_closed_context_is_ignored(self, triangle, triangle_db):
        plan = self._plan(triangle, triangle_db)
        context = ParallelContext(2, min_rows=0)
        context.close()
        assert not context.usable
        execution = execute_plan(plan, triangle_db, parallel=context)
        serial = execute_plan(plan, triangle_db)
        assert execution.answers == serial.answers
        assert context.parallel_rounds == 0

    def test_workers_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            ParallelContext(1)

    def test_no_segments_leak_after_close(self, triangle, triangle_db):
        from repro.engine.parallel.shm import segment_exists

        plan = self._plan(triangle, triangle_db)
        context = ParallelContext(2, min_rows=0)
        try:
            execute_plan(plan, triangle_db, parallel=context)
            names = list(context.store.names)
            assert names
        finally:
            context.close()
        assert not any(segment_exists(name) for name in names)
