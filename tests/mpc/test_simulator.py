"""Unit tests for the MPC simulator: rounds, delivery, capacity."""

from __future__ import annotations

from fractions import Fraction

import numpy
import pytest

from repro.mpc.model import MPCConfig
from repro.mpc.simulator import (
    CapacityExceeded,
    ColumnPool,
    MPCSimulator,
    ProtocolError,
    RoutedBlock,
    input_server,
    receiver_counts,
)
from tests.conftest import pooled_rows


def make_simulator(p=4, eps=Fraction(0), c=1.0, input_bits=400, enforce=True):
    return MPCSimulator(
        MPCConfig(p=p, eps=eps, c=c),
        input_bits=input_bits,
        enforce_capacity=enforce,
    )


def as_columns(rows):
    """Parallel int64 columns holding ``rows``."""
    return tuple(
        numpy.asarray(column, dtype=numpy.int64) for column in zip(*rows)
    )


def ship(
    simulator, sender, receivers, rows, bits_per_tuple=8,
    row_indices=None, source_sorted=False,
):
    """Stage ``rows[i] -> receivers[i]`` of relation ``R`` (or
    ``rows[row_indices[i]]``) as one routed block."""
    receivers = numpy.asarray(receivers, dtype=numpy.int64)
    if row_indices is not None:
        row_indices = numpy.asarray(row_indices, dtype=numpy.int64)
    simulator.send(
        sender,
        "R",
        RoutedBlock(as_columns(rows), receivers, row_indices, source_sorted),
        receiver_counts(receivers, simulator.num_workers),
        bits_per_tuple=bits_per_tuple,
    )


class TestRoundLifecycle:
    def test_round_indices_increment(self):
        simulator = make_simulator()
        assert simulator.begin_round() == 1
        simulator.end_round()
        assert simulator.begin_round() == 2

    def test_double_begin_rejected(self):
        simulator = make_simulator()
        simulator.begin_round()
        with pytest.raises(ProtocolError, match="still open"):
            simulator.begin_round()

    def test_end_without_begin_rejected(self):
        with pytest.raises(ProtocolError, match="no round"):
            make_simulator().end_round()

    def test_send_outside_round_rejected(self):
        simulator = make_simulator()
        with pytest.raises(ProtocolError, match="outside"):
            ship(simulator, 0, [1], [(1,)])


class TestDelivery:
    def test_messages_delivered_at_round_end(self):
        simulator = make_simulator()
        simulator.begin_round()
        ship(simulator, 0, [1], [(1, 2)])
        # Not yet delivered mid-round.
        assert simulator.relation_pool("R") is None
        simulator.end_round()
        assert pooled_rows(simulator, 1, "R") == [(1, 2)]

    def test_broadcast_reaches_everyone(self):
        simulator = make_simulator(p=3, eps=Fraction(1))
        simulator.begin_round()
        ship(
            simulator, input_server("R"), [0, 1, 2], [(1, 2)],
            row_indices=[0, 0, 0],
        )
        simulator.end_round()
        for worker in range(3):
            assert pooled_rows(simulator, worker, "R") == [(1, 2)]


class TestEndpointValidation:
    def test_input_server_label(self):
        assert input_server("S1") == "input:S1"

    def test_receiver_range_checked(self):
        simulator = make_simulator(p=2)
        simulator.begin_round()
        with pytest.raises(ProtocolError, match="receiver 5"):
            ship(simulator, 0, [5], [(1,)])

    def test_worker_sender_range_checked(self):
        simulator = make_simulator(p=2)
        simulator.begin_round()
        with pytest.raises(ProtocolError, match="sender"):
            ship(simulator, 7, [0], [(1,)])

    def test_input_server_silent_after_round_one(self):
        simulator = make_simulator()
        simulator.begin_round()
        ship(simulator, input_server("R"), [0], [(1,)])
        simulator.end_round()
        simulator.begin_round()
        with pytest.raises(ProtocolError, match="round 1"):
            ship(simulator, input_server("R"), [0], [(1,)])

    def test_workers_may_send_any_round(self):
        simulator = make_simulator()
        simulator.begin_round()
        simulator.end_round()
        simulator.begin_round()
        ship(simulator, 0, [1], [(1,)])
        simulator.end_round()
        assert pooled_rows(simulator, 1, "R") == [(1,)]


class TestCapacity:
    def test_overload_raises_with_details(self):
        # capacity = 1 * 400 / 4 = 100 bits; send 104.
        simulator = make_simulator()
        simulator.begin_round()
        ship(simulator, 0, [1] * 13, [(i, i) for i in range(1, 14)])
        with pytest.raises(CapacityExceeded) as info:
            simulator.end_round()
        assert info.value.worker == 1
        assert info.value.received_bits == 104
        assert info.value.capacity_bits == 100.0
        assert info.value.round_index == 1

    def test_first_overloaded_worker_is_reported(self):
        simulator = make_simulator()
        simulator.begin_round()
        ship(simulator, 0, [3] * 14 + [2] * 13, [(1, 1)] * 27)
        with pytest.raises(CapacityExceeded) as info:
            simulator.end_round()
        assert (info.value.worker, info.value.received_bits) == (2, 104)

    def test_at_capacity_is_fine(self):
        simulator = make_simulator()
        simulator.begin_round()
        ship(simulator, 0, [1] * 12, [(i, i) for i in range(1, 13)])
        stats = simulator.end_round()
        assert stats.max_received_bits == 96

    def test_enforcement_can_be_disabled(self):
        simulator = make_simulator(enforce=False)
        simulator.begin_round()
        ship(simulator, 0, [1] * 99, [(i, i) for i in range(1, 100)])
        stats = simulator.end_round()
        assert stats.max_received_bits > stats.capacity_bits

    def test_load_splits_across_receivers(self):
        simulator = make_simulator()
        simulator.begin_round()
        ship(simulator, 0, [0, 1, 2, 3], [(1, 1)], row_indices=[0] * 4)
        stats = simulator.end_round()
        assert stats.received_bits == (8, 8, 8, 8)
        assert stats.load_imbalance == pytest.approx(1.0)


class TestStatsPlumbing:
    def test_report_aggregates_rounds(self):
        simulator = make_simulator(enforce=False)
        for _ in range(3):
            simulator.begin_round()
            ship(simulator, 0, [1], [(1, 1)])
            simulator.end_round()
        report = simulator.report
        assert report.num_rounds == 3
        assert report.total_bits == 24
        assert report.max_load_bits == 8
        assert "rounds=3" in report.summary()

    def test_replication_rate(self):
        simulator = make_simulator(p=2, eps=Fraction(1), input_bits=8)
        simulator.begin_round()
        ship(
            simulator, input_server("R"), [0, 1], [(1, 1)],
            row_indices=[0, 0],
        )
        simulator.end_round()
        assert simulator.report.replication_rate == pytest.approx(2.0)


class TestColumnarSends:
    """Vectorized staging: accounting, gathers, argument checks."""

    def test_delivery_and_accounting(self):
        simulator = make_simulator(p=4, enforce=False)
        simulator.begin_round()
        ship(simulator, 0, [1, 1, 2], [(1, 2), (3, 4), (5, 6)])
        stats = simulator.end_round()
        assert stats.received_bits == (0, 16, 8, 0)
        assert stats.received_tuples == (0, 2, 1, 0)
        assert pooled_rows(simulator, 1, "R") == [(1, 2), (3, 4)]
        assert pooled_rows(simulator, 2, "R") == [(5, 6)]

    def test_row_indices_gather(self):
        simulator = make_simulator(p=3, enforce=False)
        simulator.begin_round()
        # Row 0 replicated to workers 0 and 2; row 1 to worker 1.
        ship(
            simulator, 0, [0, 2, 1], [(7, 8), (9, 10)], bits_per_tuple=4,
            row_indices=[0, 0, 1],
        )
        stats = simulator.end_round()
        assert stats.received_tuples == (1, 1, 1)
        assert pooled_rows(simulator, 0, "R") == [(7, 8)]
        assert pooled_rows(simulator, 1, "R") == [(9, 10)]
        assert pooled_rows(simulator, 2, "R") == [(7, 8)]

    def test_empty_send_is_noop(self):
        simulator = make_simulator()
        simulator.begin_round()
        empty = numpy.asarray([], dtype=numpy.int64)
        simulator.send(
            0,
            "R",
            RoutedBlock((empty,), empty),
            receiver_counts(empty, 4),
            bits_per_tuple=8,
        )
        assert simulator.end_round().total_bits == 0
        assert simulator.relation_pool("R") is None

    def test_counts_must_cover_every_worker(self):
        simulator = make_simulator(p=4)
        simulator.begin_round()
        receivers = numpy.asarray([1], dtype=numpy.int64)
        with pytest.raises(ProtocolError, match="3 worker counts for 4"):
            simulator.send(
                0,
                "R",
                RoutedBlock(as_columns([(1,)]), receivers),
                receiver_counts(receivers, 3),
                bits_per_tuple=8,
            )

    def test_negative_receiver_rejected(self):
        with pytest.raises(ProtocolError, match="receiver -1"):
            receiver_counts(numpy.asarray([0, -1], dtype=numpy.int64), 4)

    def test_receiver_row_count_mismatch_rejected(self):
        simulator = make_simulator(p=4, enforce=False)
        simulator.begin_round()
        rows = [(1, 2), (3, 4), (5, 6)]
        with pytest.raises(ProtocolError, match="one destination per row"):
            ship(simulator, 0, [1], rows)
        with pytest.raises(ProtocolError, match="one destination per row"):
            ship(simulator, 0, [1, 2], rows, row_indices=[0])

    def test_row_indices_bounds_checked(self):
        simulator = make_simulator(p=4, enforce=False)
        simulator.begin_round()
        with pytest.raises(ProtocolError, match="row_indices"):
            ship(simulator, 0, [1], [(1, 2)], row_indices=[7])

    def test_negative_bits_per_tuple_rejected(self):
        simulator = make_simulator()
        simulator.begin_round()
        with pytest.raises(ValueError, match="bits_per_tuple"):
            ship(simulator, 0, [1], [(1,)], bits_per_tuple=-8)


class TestColumnPools:
    """The pooled columnar delivery path and its fleet-wide index."""

    def _deliver(self, receivers, rows, p=4, **kwargs):
        simulator = make_simulator(p=p, enforce=False)
        simulator.begin_round()
        ship(simulator, 0, receivers, rows, **kwargs)
        simulator.end_round()
        return simulator

    def test_pool_offsets_and_slices(self):
        simulator = self._deliver(
            [2, 0, 2, 0], [(1, 1), (2, 2), (3, 3), (4, 4)]
        )
        pool = simulator.relation_pool("R")
        assert pool is not None
        assert pool.offsets.tolist() == [0, 2, 2, 4, 4]
        # Stable grouping: staged order preserved within a worker.
        assert pool.worker_slice(0)[0].tolist() == [2, 4]
        assert pool.worker_slice(2)[0].tolist() == [1, 3]
        assert pool.worker_slice(1)[0].tolist() == []
        assert pool.worker_slice(3)[0].tolist() == []

    def test_worker_slices_are_pool_views(self):
        """Worker fragments share the pool's buffer (zero-copy)."""
        simulator = self._deliver(
            [1, 1, 2], [(1, 2), (3, 4), (5, 6)]
        )
        pool = simulator.relation_pool("R")
        for fragment_column, pool_column in zip(
            pool.worker_slice(1), pool.columns
        ):
            assert len(fragment_column) == 2
            assert numpy.shares_memory(fragment_column, pool_column)

    def test_source_sorted_flag_propagates(self):
        rows = [(1, 2), (3, 4), (5, 6)]
        sorted_sim = self._deliver(
            [1, 0, 1], rows, source_sorted=True
        )
        assert sorted_sim.relation_pool("R").source_sorted
        unsorted_sim = self._deliver([1, 0, 1], rows)
        assert not unsorted_sim.relation_pool("R").source_sorted

    def test_multi_stage_pool_merges_stages(self):
        simulator = make_simulator(p=3, enforce=False)
        simulator.begin_round()
        ship(simulator, 0, [1, 2], [(1,), (2,)], source_sorted=True)
        ship(simulator, 1, [1], [(3,)], source_sorted=True)
        simulator.end_round()
        pool = simulator.relation_pool("R")
        assert pool.worker_slice(1)[0].tolist() == [1, 3]
        assert pool.worker_slice(2)[0].tolist() == [2]
        # Interleaved stages cannot promise per-worker source order.
        assert not pool.source_sorted

    def test_pools_merge_across_rounds(self):
        simulator = make_simulator(p=2, enforce=False)
        for batch in ([(1,), (2,)], [(3,)]):
            simulator.begin_round()
            ship(simulator, 0, [1] * len(batch), batch)
            simulator.end_round()
        pool = simulator.relation_pool("R")
        assert pool.worker_slice(1)[0].tolist() == [1, 2, 3]
        # Merged pools are cached until the next delivery.
        assert simulator.relation_pool("R") is pool

    def test_undelivered_relation_has_no_pool(self):
        simulator = self._deliver([1], [(1, 2)], p=2)
        assert simulator.relation_pool("unknown") is None
        assert simulator.pool_worker_counts("unknown") is None
        assert simulator.pool_shard("unknown", 0, 2) is None


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
