"""Streaming data layer: blocks, builders, lazy pools, chunk edges."""

from __future__ import annotations

import dataclasses

import numpy
import pytest

from repro.algorithms.hypercube import compile_hypercube
from repro.core.query import parse_query
from repro.data.columnar import ColumnarRelation
from repro.data.generators import matching_database
from repro.engine.executor import execute_plan
from repro.engine.streaming import (
    DEFAULT_SHARD_BYTES,
    SHARD_BYTES_ENV,
    LazyContribution,
    PoolBuilder,
    bin_block,
    iter_blocks,
    materialize_shard,
    plan_worker_shards,
    resolve_chunk_rows,
    resolve_shard_bytes,
    route_blocks,
)
from repro.mpc.simulator import (
    CapacityExceeded,
    ColumnPool,
    ProtocolError,
)
from tests.conftest import with_relation


class TestResolveChunkRows:
    def test_positive_argument_passes_through(self):
        assert resolve_chunk_rows(64) == 64

    @pytest.mark.parametrize("value", [None, 0, -1])
    def test_non_positive_means_monolithic(self, value):
        assert resolve_chunk_rows(value) is None


class TestResolveShardBytes:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(SHARD_BYTES_ENV, raising=False)
        assert resolve_shard_bytes(None) == DEFAULT_SHARD_BYTES

    def test_env_and_argument(self, monkeypatch):
        monkeypatch.setenv(SHARD_BYTES_ENV, "1024")
        assert resolve_shard_bytes(None) == 1024
        assert resolve_shard_bytes(2048) == 2048

    def test_non_positive_falls_back_to_default(self):
        assert resolve_shard_bytes(0) == DEFAULT_SHARD_BYTES
        assert resolve_shard_bytes(-5) == DEFAULT_SHARD_BYTES

    def test_garbage_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(SHARD_BYTES_ENV, "abc")
        with pytest.raises(ValueError, match=SHARD_BYTES_ENV):
            resolve_shard_bytes(None)


class TestIterBlocks:
    def test_empty_relation_yields_no_blocks(self):
        assert list(iter_blocks(0, 4)) == []

    def test_final_block_may_be_short(self):
        assert list(iter_blocks(10, 4)) == [(0, 4), (4, 8), (8, 10)]

    def test_chunk_one(self):
        assert list(iter_blocks(3, 1)) == [(0, 1), (1, 2), (2, 3)]

    def test_chunk_covers_relation_in_one_block(self):
        assert list(iter_blocks(3, 1000)) == [(0, 3)]

    def test_chunk_below_one_raises(self):
        with pytest.raises(ValueError):
            list(iter_blocks(5, 0))


def _block_pool(rows, destinations, p):
    """A worker-grouped block pool from explicit (row, dest) pairs."""
    columns = tuple(
        numpy.asarray(column, dtype=numpy.int64)
        for column in zip(*rows)
    ) if rows else (numpy.zeros(0, dtype=numpy.int64),) * 2
    dest = numpy.asarray(destinations, dtype=numpy.int64)
    return bin_block(columns, dest, None, p)


class TestPoolBuilder:
    P = 4

    def test_empty_finalize_preserves_arity_and_workers(self):
        builder = PoolBuilder(self.P)
        builder.append(_block_pool([], [], self.P))
        pool = builder.finalize()
        assert len(pool) == 0
        assert pool.num_workers == self.P
        assert len(pool.columns) == 2

    def test_no_blocks_finalizes_to_zero_arity_empty(self):
        pool = PoolBuilder(self.P).finalize()
        assert len(pool) == 0
        assert pool.offsets.tolist() == [0] * (self.P + 1)

    def test_single_block_passes_through(self):
        block = _block_pool([(1, 2), (3, 4)], [2, 0], self.P)
        builder = PoolBuilder(self.P)
        builder.append(block)
        pool = builder.finalize()
        assert pool.source_sorted
        assert numpy.array_equal(pool.columns[0], block.columns[0])
        assert numpy.array_equal(pool.offsets, block.offsets)

    @pytest.mark.parametrize(
        "rows, destinations, cuts",
        [
            pytest.param(
                [(i, 10 + i) for i in range(12)],
                [i % 4 for i in range(12)],
                (0, 5, 10, 12),
                id="round-robin",
            ),
            pytest.param(
                [(i, 10 + i) for i in range(12)],
                [3, 3, 3, 3, 0, 2, 2, 0, 1, 3, 1, 0],
                (0, 4, 8, 12),
                id="workers-empty-inside-blocks",
            ),
            pytest.param(
                [(i, 10 + i) for i in range(12)],
                [i % 3 for i in range(12)],
                (0, 5, 5, 12),
                id="all-empty-middle-block",
            ),
            pytest.param(
                [(i, 10 + i, 20 - i) for i in range(12)],
                [(3 * i) % 4 for i in range(12)],
                (0, 3, 9, 12),
                id="arity-3",
            ),
        ],
    )
    def test_merge_equals_monolithic_grouping(
        self, rows, destinations, cuts
    ):
        monolithic = _block_pool(rows, destinations, self.P)
        builder = PoolBuilder(self.P)
        for start, end in zip(cuts, cuts[1:]):
            builder.append(
                _block_pool(rows[start:end], destinations[start:end], self.P)
            )
        merged = builder.finalize()
        assert len(merged.columns) == len(rows[0])
        assert numpy.array_equal(merged.offsets, monolithic.offsets)
        for merged_col, mono_col in zip(merged.columns, monolithic.columns):
            assert numpy.array_equal(merged_col, mono_col)
        # one stream, source-ordered blocks: sortedness survives
        assert merged.source_sorted

    def test_second_stream_clears_source_sorted(self):
        builder = PoolBuilder(self.P)
        builder.append(_block_pool([(1, 1)], [0], self.P), stream="a")
        builder.append(_block_pool([(2, 2)], [1], self.P), stream="b")
        assert not builder.finalize().source_sorted

    def test_unsorted_block_clears_source_sorted(self):
        builder = PoolBuilder(self.P)
        builder.append(
            _block_pool([(1, 1)], [0], self.P), sorted_block=False
        )
        assert not builder.finalize().source_sorted

    def test_worker_count_mismatch_raises(self):
        builder = PoolBuilder(self.P)
        with pytest.raises(ValueError):
            builder.append(_block_pool([(1, 1)], [0], self.P + 1))


class TestBinBlock:
    P = 5

    def _triple(self):
        columns = (
            numpy.arange(8, dtype=numpy.int64),
            numpy.arange(8, 16, dtype=numpy.int64),
        )
        destinations = numpy.array(
            [4, 0, 2, 0, 3, 2, 1, 4], dtype=numpy.int64
        )
        return columns, destinations

    def test_full_range_groups_stably(self):
        columns, destinations = self._triple()
        pool = bin_block(columns, destinations, None, self.P)
        assert len(pool) == 8
        # worker 0 gets source rows 1 and 3 in source order
        fragment = pool.worker_slice(0)
        assert fragment[0].tolist() == [1, 3]
        fragment = pool.worker_slice(4)
        assert fragment[0].tolist() == [0, 7]

    def test_shard_restriction_drops_outside_rows(self):
        columns, destinations = self._triple()
        pool = bin_block(columns, destinations, None, self.P, lo=2, hi=4)
        assert pool.num_workers == 2
        assert pool.worker_slice(0)[0].tolist() == [2, 5]  # worker 2
        assert pool.worker_slice(1)[0].tolist() == [4]  # worker 3

    def test_single_worker_shard_skips_the_sort(self):
        columns, destinations = self._triple()
        pool = bin_block(columns, destinations, None, self.P, lo=4, hi=5)
        assert pool.num_workers == 1
        assert pool.worker_slice(0)[0].tolist() == [0, 7]

    def test_row_indices_gather_filtered_sources(self):
        columns = (numpy.arange(10, dtype=numpy.int64),)
        destinations = numpy.array([1, 0, 1], dtype=numpy.int64)
        row_indices = numpy.array([2, 5, 9], dtype=numpy.int64)
        pool = bin_block(columns, destinations, row_indices, 2)
        assert pool.worker_slice(0)[0].tolist() == [5]
        assert pool.worker_slice(1)[0].tolist() == [2, 9]

    @pytest.mark.parametrize("width", [2, 256, 257, 65536, 65537])
    def test_narrow_worker_ids_group_like_int64(self, width):
        """Each narrow dtype's radix sort keeps int64's stable order."""
        rng = numpy.random.default_rng(width)
        size = 2000
        columns = (
            numpy.arange(size, dtype=numpy.int64),
            rng.integers(0, 100, size),
        )
        # Sparse: a few workers, the extremes of the id range included.
        workers = numpy.unique([0, 1, width // 2, width - 2, width - 1])
        destinations = rng.choice(workers, size)
        row_indices = rng.permutation(size)
        for lo, hi in ((0, width), (1, width), (0, width - 1)):
            mask = (destinations >= lo) & (destinations < hi)
            local = destinations[mask] - lo
            order = numpy.argsort(local, kind="stable")
            offsets = numpy.searchsorted(
                local[order], numpy.arange(hi - lo + 1)
            )
            for indices in (None, row_indices):
                gather = numpy.arange(size) if indices is None else indices
                pool = bin_block(
                    columns, destinations, indices, width, lo, hi
                )
                assert pool.offsets.tolist() == offsets.tolist()
                for column, pooled in zip(columns, pool.columns):
                    assert numpy.array_equal(
                        pooled, column[gather[mask][order]]
                    )

    def test_shards_concatenate_to_full_pool(self):
        columns, destinations = self._triple()
        full = bin_block(columns, destinations, None, self.P)
        parts = [
            bin_block(columns, destinations, None, self.P, lo, hi)
            for lo, hi in ((0, 2), (2, 4), (4, 5))
        ]
        assert sum(len(part) for part in parts) == len(full)
        rebuilt = numpy.concatenate(
            [part.columns[0] for part in parts]
        )
        assert numpy.array_equal(rebuilt, full.columns[0])


class TestPlanWorkerShards:
    def test_budget_groups_contiguously(self):
        byte_counts = numpy.array([10, 10, 10, 10], dtype=numpy.int64)
        assert plan_worker_shards(byte_counts, 4, 20) == [(0, 2), (2, 4)]

    def test_oversized_worker_gets_its_own_shard(self):
        byte_counts = numpy.array([100, 1, 1], dtype=numpy.int64)
        assert plan_worker_shards(byte_counts, 3, 8) == [(0, 1), (1, 3)]

    def test_everything_fits_one_shard(self):
        byte_counts = numpy.array([1, 1, 1], dtype=numpy.int64)
        assert plan_worker_shards(byte_counts, 3, 1 << 30) == [(0, 3)]

    def test_shards_partition_the_workers(self):
        byte_counts = numpy.array(
            [3, 9, 1, 1, 1, 50, 2], dtype=numpy.int64
        )
        shards = plan_worker_shards(byte_counts, 7, 10)
        assert shards[0][0] == 0 and shards[-1][1] == 7
        for (_, hi), (lo, _) in zip(shards, shards[1:]):
            assert hi == lo


class _BadStep:
    """A fake routing step that emits an out-of-range receiver."""

    def route_columns(self, columns, p, offset):
        destinations = numpy.full(
            len(columns[0]), p, dtype=numpy.int64
        )
        return columns, destinations, None


class TestRouteBlocks:
    def _plan_step_and_source(self, db, query_text="S1(x,y), S2(y,z)"):
        plan = compile_hypercube(parse_query(query_text), p=8)
        step = plan.rounds[0].steps[0]
        from repro.engine.executor import _plan_sources

        return step, _plan_sources(db)[step.relation]

    def test_counts_equal_monolithic_bincount(self, two_hop):
        db = matching_database(two_hop, n=50, rng=3)
        step, source = self._plan_step_and_source(db)
        _, destinations, _ = step.route_columns(source.columns, 8, 0)
        monolithic = numpy.bincount(destinations, minlength=8)
        for chunk in (1, 7, 64, 10_000, None):
            counts, routed = route_blocks(
                step, source.columns, len(source), chunk, 8
            )
            assert numpy.array_equal(counts, monolithic)
            # Only a source that fits in one block keeps its routing.
            assert (routed is not None) == (chunk in (64, 10_000, None))
            if routed is not None:
                assert numpy.array_equal(routed[1], destinations)

    def test_an_empty_source_is_one_routed_block(self, two_hop):
        db = matching_database(two_hop, n=50, rng=3)
        step, source = self._plan_step_and_source(db)
        empty = tuple(column[:0] for column in source.columns)
        counts, routed = route_blocks(step, empty, 0, 4, 8)
        assert not counts.any()
        columns, destinations, _ = routed
        assert len(columns) == len(source.columns)
        assert len(destinations) == 0

    def test_out_of_range_receiver_raises_protocol_error(self):
        columns = (numpy.arange(4, dtype=numpy.int64),)
        for chunk in (2, None):
            with pytest.raises(ProtocolError):
                route_blocks(_BadStep(), columns, 4, chunk, 4)


class TestMaterializeShard:
    def _contribution(self, db, chunk):
        plan = compile_hypercube(parse_query("S1(x,y), S2(y,z)"), p=8)
        step = plan.rounds[0].steps[0]
        from repro.engine.executor import _plan_sources

        source = _plan_sources(db)[step.relation]
        return step, source, LazyContribution(
            step=step,
            columns=source.columns,
            num_rows=len(source),
            chunk_rows=chunk,
            source_sorted=step.preserves_source_order,
        )

    def test_shards_reproduce_the_monolithic_pool(self, two_hop):
        db = matching_database(two_hop, n=60, rng=5)
        step, source, contribution = self._contribution(db, chunk=7)
        columns, destinations, row_indices = step.route_columns(
            source.columns, 8, 0
        )
        monolithic = bin_block(columns, destinations, row_indices, 8)
        pieces = [
            materialize_shard([contribution], lo, hi, 8)
            for lo, hi in ((0, 3), (3, 7), (7, 8))
        ]
        assert sum(len(piece) for piece in pieces) == len(monolithic)
        for position in range(len(monolithic.columns)):
            rebuilt = numpy.concatenate(
                [piece.columns[position] for piece in pieces]
            )
            assert numpy.array_equal(
                rebuilt, monolithic.columns[position]
            )

    def test_empty_contribution_yields_arity_preserving_empty(self, two_hop):
        db = matching_database(two_hop, n=20, rng=5)
        step, source, contribution = self._contribution(db, chunk=4)
        empty = dataclasses.replace(
            contribution,
            columns=tuple(
                column[:0] for column in contribution.columns
            ),
            num_rows=0,
        )
        pool = materialize_shard([empty], 0, 8, 8)
        assert len(pool) == 0
        assert len(pool.columns) == len(source.columns)
        assert pool.num_workers == 8


def _compile(query, db, chunk=None, **kwargs):
    return compile_hypercube(query, p=8, **kwargs)


class TestChunkBoundaries:
    """ISSUE satellite: chunk-edge behaviour of streamed executions."""

    def _parity(self, query, db, plan, chunk):
        monolithic = execute_plan(plan, db)
        streamed = execute_plan(plan, db, chunk_rows=chunk)
        assert streamed.answers == monolithic.answers
        assert streamed.per_server == monolithic.per_server
        mono_rounds = monolithic.report.rounds
        stream_rounds = streamed.report.rounds
        assert [s.received_bits for s in stream_rounds] == [
            s.received_bits for s in mono_rounds
        ]
        return streamed

    def test_relation_smaller_than_one_chunk(self, two_hop):
        db = matching_database(two_hop, n=40, rng=9)
        plan = _compile(two_hop, db)
        self._parity(two_hop, db, plan, chunk=10_000)

    def test_chunk_size_one(self, two_hop):
        db = matching_database(two_hop, n=25, rng=9)
        plan = _compile(two_hop, db)
        self._parity(two_hop, db, plan, chunk=1)

    def test_empty_relation_streams_to_empty_blocks(self, two_hop):
        db = matching_database(two_hop, n=30, rng=9)
        empty_db = with_relation(
            db,
            ColumnarRelation.from_rows(
                "S2", (), domain_size=db.domain_size, arity=2
            ),
        )
        plan = _compile(two_hop, empty_db)
        streamed = self._parity(two_hop, empty_db, plan, chunk=4)
        assert streamed.answers == ()

    def test_blocks_entirely_filtered_by_kept_row_logic(self, triangle_db):
        # A repeated-variable atom drops contradicting rows during
        # routing; with chunk 1, every non-diagonal source row is a
        # block whose kept-row set is empty.
        query = parse_query("S1(x,x)")
        plan = compile_hypercube(query, p=8)
        step = plan.rounds[0].steps[0]
        from repro.engine.executor import _plan_sources

        source = _plan_sources(triangle_db)[step.relation]
        kept_per_row = [
            len(
                step.route_columns(
                    tuple(column[i : i + 1] for column in source.columns),
                    8,
                    i,
                )[1]
            )
            for i in range(len(source))
        ]
        assert 0 in kept_per_row  # some block is entirely filtered
        self._parity(query, triangle_db, plan, chunk=1)

    def test_capacity_exceeded_mid_stream_matches_monolithic(self, two_hop):
        db = matching_database(two_hop, n=50, rng=11)
        plan = _compile(
            two_hop, db, capacity_c=0.001, enforce_capacity=True
        )
        with pytest.raises(CapacityExceeded) as monolithic:
            execute_plan(plan, db)
        with pytest.raises(CapacityExceeded) as streamed:
            execute_plan(plan, db, chunk_rows=8)
        assert streamed.value.worker == monolithic.value.worker
        assert streamed.value.received_bits == monolithic.value.received_bits
        assert streamed.value.round_index == monolithic.value.round_index

    def test_a_plan_that_failed_mid_stream_runs_again_cleanly(self, two_hop):
        # The failure aborted mid-round with lazy recipes staged; that
        # execution's simulator is dropped, so the next one starts clean.
        db = matching_database(two_hop, n=50, rng=11)
        plan = _compile(
            two_hop, db, capacity_c=0.001, enforce_capacity=True
        )
        with pytest.raises(CapacityExceeded):
            execute_plan(plan, db, chunk_rows=8)
        generous = dataclasses.replace(
            plan,
            signature=dataclasses.replace(
                plan.signature, enforce_capacity=False
            ),
        )
        streamed = execute_plan(generous, db, chunk_rows=8)
        monolithic = execute_plan(generous, db)
        assert streamed.answers == monolithic.answers
        assert streamed.per_server == monolithic.per_server
        assert [r.received_bits for r in streamed.report.rounds] == [
            r.received_bits for r in monolithic.report.rounds
        ]


class TestLazySimulatorState:
    def _streamed_simulator(self, two_hop, chunk=6):
        db = matching_database(two_hop, n=40, rng=13)
        plan = _compile(two_hop, db)
        execution = execute_plan(plan, db, chunk_rows=chunk)
        return db, plan, execution.simulator, execution

    def test_streamed_relations_are_lazy_not_eager(self, two_hop):
        _, _, simulator, _ = self._streamed_simulator(two_hop)
        for relation in ("S1", "S2"):
            assert simulator.has_lazy_deliveries(relation)
            assert all(
                isinstance(delivery, LazyContribution)
                for delivery in simulator._delivered[relation]
            )

    def test_pool_worker_counts_match_materialised_pool(self, two_hop):
        _, _, simulator, _ = self._streamed_simulator(two_hop)
        for relation in ("S1", "S2"):
            counts = simulator.pool_worker_counts(relation)
            pool = simulator.relation_pool(relation)
            assert pool is not None
            sizes = (pool.offsets[1:] - pool.offsets[:-1]).tolist()
            assert counts.tolist() == sizes
            bytes_ = simulator.pool_worker_bytes(relation)
            assert bytes_.tolist() == [
                size * len(pool.columns) * 8 for size in sizes
            ]

    def test_pool_shard_equals_full_pool_slice(self, two_hop):
        _, _, simulator, _ = self._streamed_simulator(two_hop)
        pool = simulator.relation_pool("S1")
        shard = simulator.pool_shard("S1", 2, 5)
        assert shard.num_workers == 3
        reference = pool.shard(2, 5)
        assert numpy.array_equal(shard.offsets, reference.offsets)
        for shard_col, reference_col in zip(
            shard.columns, reference.columns
        ):
            assert numpy.array_equal(shard_col, reference_col)
