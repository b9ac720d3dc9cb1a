"""The round-based MPC network simulator (Sections 2.1 and 2.4).

Usage pattern (one HyperCube round)::

    simulator = MPCSimulator(config, input_bits=database.total_bits)
    simulator.begin_round()
    for relation in database:
        receivers, row_indices = route(relation)  # one entry per copy
        simulator.send(
            input_server(relation.name), relation.name,
            RoutedBlock(relation.columns, receivers, row_indices),
            receiver_counts(receivers, config.p),
            bits_per_tuple=relation.tuple_bits,
        )
    stats = simulator.end_round()
    columns_at_3 = simulator.relation_pool("S1").worker_slice(3)

The network is columnar only, and :meth:`MPCSimulator.send` is its one
staging verb: a send ships one relation's routing decision with its
per-worker tuple counts, which are charged at once.  The delivery is a
:class:`RoutedBlock` -- destination array plus source columns -- or,
for a source routed in several blocks, a re-routable recipe
(:class:`~repro.engine.streaming.LazyContribution`) whose rows are
materialised on demand.

At :meth:`MPCSimulator.end_round` a relation's routed blocks are
gathered into one contiguous :class:`ColumnPool` whose rows are
grouped by receiving worker, with a ``(worker -> offset range)``
index.  Every pool -- a round's blocks at round close, several
deliveries merged for :meth:`MPCSimulator.relation_pool`, a recipe's
blocks in :meth:`MPCSimulator.pool_shard` -- is grouped by the one
constructor in :mod:`repro.engine.streaming`: ``bin_block`` (one
stable sort of a routed row range by receiver) feeding a
``PoolBuilder`` (per-worker merge; a single range passes through as
the pool).  A worker's fragment is a zero-copy basic slice of the
pool: the segmented local join reads contiguous worker ranges of it
via :meth:`MPCSimulator.pool_shard`, and fleet-wide consumers (IVM
state capture, hash-to-min, the dense two-round coordinator) the whole
pool plus the index via :meth:`MPCSimulator.relation_pool`.

The simulator enforces the model's ground rules:

* messages are staged during a round and delivered only at
  :meth:`MPCSimulator.end_round` (communication is synchronous);
* each worker's received bits per round are compared against
  ``c * N / p^{1-eps}``; exceeding the budget raises
  :class:`CapacityExceeded` when enforcement is on (the paper's
  algorithms abort in this event, which occurs with exponentially
  small probability on matching inputs -- Proposition 3.2);
* input servers (one per relation, Section 2.4) may send only during
  round 1, after which they fall silent -- matching the lower-bound
  model;
* workers keep everything they have ever received (servers are
  infinitely powerful; only communication is scarce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy

from repro.mpc.model import MPCConfig
from repro.mpc.stats import RoundStats, SimulationReport

#: A sender: a worker index, or an input-server label (``"input:S1"``).
#: Receivers are always worker indices.
Endpoint = int | str


def input_server(relation: str) -> str:
    """The endpoint label of the input server holding ``relation``."""
    return f"input:{relation}"


class ProtocolError(Exception):
    """Raised when an algorithm violates the MPC ground rules."""


class CapacityExceeded(Exception):
    """A worker received more than ``c * N / p^{1-eps}`` bits in a round.

    Attributes:
        worker: the overloaded worker index.
        received_bits: what it received this round.
        capacity_bits: its budget.
        round_index: the offending round.
    """

    def __init__(
        self,
        worker: int,
        received_bits: int,
        capacity_bits: float,
        round_index: int,
    ) -> None:
        super().__init__(
            f"worker {worker} received {received_bits} bits in round "
            f"{round_index}, capacity {capacity_bits:.0f}"
        )
        self.worker = worker
        self.received_bits = received_bits
        self.capacity_bits = capacity_bits
        self.round_index = round_index


def receiver_counts(receivers: Any, p: int) -> Any:
    """Per-worker tuple counts of one routed block's receivers.

    Raises:
        ProtocolError: when a receiver lies outside ``[0, p)``.
    """
    if len(receivers):
        low = int(receivers.min())
        high = int(receivers.max())
        if low < 0 or high >= p:
            offender = low if low < 0 else high
            raise ProtocolError(f"receiver {offender} outside [0, {p})")
    return numpy.bincount(receivers, minlength=p)


@dataclass(frozen=True)
class RoutedBlock:
    """One routed row block: a destination per row plus source columns.

    ``row_indices`` (optional) indexes into ``columns``; when present
    the block represents ``columns[row_indices[i]] -> receivers[i]``
    without materialising the replicated rows, which is what keeps
    HC's ``p^{1-1/tau}``-fold replication cheap to stage.

    ``source_sorted`` is the sender's promise that, restricted to any
    one receiver, rows appear in ascending source-row order -- true
    for every routing step whose replication pattern is a
    ``repeat``/``tile`` of ``arange`` (see
    :attr:`repro.engine.steps.RoutingStep.preserves_source_order`).
    """

    columns: tuple
    receivers: Any
    row_indices: Any | None = None
    source_sorted: bool = False


@dataclass(frozen=True)
class ColumnPool:
    """One relation's pooled columnar deliveries, grouped by worker.

    Attributes:
        columns: parallel value columns holding every delivered row of
            the relation, ordered by receiving worker (ascending).
        offsets: int64 array of length ``p + 1``; worker ``w``'s rows
            occupy ``columns[:][offsets[w]:offsets[w+1]]`` -- a basic
            (zero-copy) numpy slice.
        source_sorted: True when each worker's slice preserves the
            source relation's row order.  Source relations
            (:class:`~repro.data.columnar.ColumnarRelation`) are
            lexicographically sorted, so a True flag means every
            worker's fragment is lex-sorted too -- the precondition of
            the sort-free join fast path.
    """

    columns: tuple
    offsets: Any
    source_sorted: bool = False

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_workers(self) -> int:
        """Number of workers the offset index covers."""
        return len(self.offsets) - 1

    def worker_slice(self, worker: int) -> tuple:
        """Worker ``w``'s fragment as zero-copy column views."""
        start = int(self.offsets[worker])
        end = int(self.offsets[worker + 1])
        return tuple(column[start:end] for column in self.columns)

    def shard(self, lo: int, hi: int) -> "ColumnPool":
        """The sub-pool of workers ``[lo, hi)`` (zero-copy slices).

        Rows stay worker-grouped and the offset index is rebased to
        the shard, so the result is itself a valid pool over
        ``hi - lo`` workers: local evaluation joins one contiguous
        worker range at a time with the exact same segmented code
        that runs fleet-wide.
        """
        if not 0 <= lo <= hi <= self.num_workers:
            raise ValueError(
                f"shard [{lo}, {hi}) outside [0, {self.num_workers})"
            )
        start = int(self.offsets[lo])
        end = int(self.offsets[hi])
        return ColumnPool(
            columns=tuple(column[start:end] for column in self.columns),
            offsets=self.offsets[lo : hi + 1] - start,
            source_sorted=self.source_sorted,
        )


class MPCSimulator:
    """A synchronous network of ``p`` workers plus input servers.

    Args:
        config: the MPC(eps) parameters.
        input_bits: the input size ``N`` (drives the capacity bound).
        enforce_capacity: raise :class:`CapacityExceeded` on overload
            when True; otherwise loads are recorded but not enforced
            (useful for measuring *how far* an algorithm overshoots).
    """

    def __init__(
        self,
        config: MPCConfig,
        input_bits: int,
        enforce_capacity: bool = True,
    ) -> None:
        self.config = config
        self.input_bits = input_bits
        self.enforce_capacity = enforce_capacity
        self.report = SimulationReport(input_bits=input_bits)
        self._round_index = 0
        self._in_round = False
        # What each relation's workers hold, kept across rounds
        # (workers remember everything they received): per round, one
        # pool binned from its routed blocks, plus one re-routable
        # recipe per multi-block delivery -- and the per-worker tuple
        # counts of all of it.
        self._delivered: dict[str, list[Any]] = {}
        self._counts: dict[str, Any] = {}
        self._merged_pools: dict[str, ColumnPool] = {}
        self._reset_staging()

    def _reset_staging(self) -> None:
        self._staged: list[tuple[str, Any, Any]] = []
        self._received_bits = numpy.zeros(self.config.p, dtype=numpy.int64)
        self._received_tuples = numpy.zeros(self.config.p, dtype=numpy.int64)

    # -- round lifecycle ----------------------------------------------------

    @property
    def round_index(self) -> int:
        """The current round number (1-based once a round begins)."""
        return self._round_index

    @property
    def num_workers(self) -> int:
        """Number of workers ``p``."""
        return self.config.p

    def begin_round(self) -> int:
        """Open a new communication round and return its index."""
        if self._in_round:
            raise ProtocolError("previous round still open")
        self._round_index += 1
        self._in_round = True
        self._reset_staging()
        return self._round_index

    def end_round(self) -> RoundStats:
        """Deliver staged messages, account loads, close the round.

        Raises:
            CapacityExceeded: if enforcement is on and some worker
                exceeded its receive budget this round.
        """
        if not self._in_round:
            raise ProtocolError("no round in progress")
        capacity = self.config.capacity_bits(self.input_bits)
        received_bits = self._received_bits.tolist()
        if self.enforce_capacity:
            for worker, bits in enumerate(received_bits):
                if bits > capacity:
                    raise CapacityExceeded(
                        worker, bits, capacity, self._round_index
                    )
        self._commit()
        stats = RoundStats(
            round_index=self._round_index,
            received_bits=tuple(received_bits),
            received_tuples=tuple(self._received_tuples.tolist()),
            capacity_bits=capacity,
        )
        self.report.rounds.append(stats)
        self._reset_staging()
        self._in_round = False
        return stats

    def _commit(self) -> None:
        """Deliver the round's staged sends as worker state.

        Routed blocks are grouped by receiving worker here, once
        (:func:`~repro.engine.streaming.bin_block`, one stable sort),
        and a relation's blocks merge through a
        :class:`~repro.engine.streaming.PoolBuilder` into the round's
        pool -- one block passes through as the pool.  Recipes are kept
        as they are; their rows are binned one worker shard at a time
        by :meth:`pool_shard`.  Only a round that closed under its
        capacity budget gets here, so a round that raised
        :class:`CapacityExceeded` delivers nothing.
        """
        from repro.engine.streaming import PoolBuilder, bin_block

        p = self.config.p
        builders: dict[str, Any] = {}
        for index, (relation, delivery, counts) in enumerate(self._staged):
            if isinstance(delivery, RoutedBlock):
                builders.setdefault(relation, PoolBuilder(p)).append(
                    bin_block(
                        delivery.columns,
                        delivery.receivers,
                        delivery.row_indices,
                        p,
                    ),
                    stream=index,
                    sorted_block=delivery.source_sorted,
                )
            else:
                self._delivered.setdefault(relation, []).append(delivery)
            self._counts[relation] = self._counts.get(relation, 0) + counts
            self._merged_pools.pop(relation, None)
        for relation, builder in builders.items():
            self._delivered.setdefault(relation, []).append(
                builder.finalize()
            )

    # -- sending --------------------------------------------------------------

    def send(
        self,
        sender: Endpoint,
        relation: str,
        delivery: Any,
        counts: Any,
        bits_per_tuple: int,
    ) -> None:
        """Stage one delivery of ``relation`` for this round.

        Load is accounted now from ``counts``, the per-worker tuple
        counts of the delivery's receivers (:func:`receiver_counts`,
        which range-checks them); the rows reach the workers at
        :meth:`end_round`, after the capacity check.

        Args:
            sender: worker index, or an input-server label.
            relation: relation/view name the rows belong to.
            delivery: a :class:`RoutedBlock` (binned by receiver at
                round close), or a re-routable recipe of several
                blocks (a :class:`~repro.engine.streaming.
                LazyContribution`, binned per worker shard on demand).
            counts: per-worker delivered tuple counts, length ``p``.
            bits_per_tuple: exact per-tuple cost in bits.
        """
        if not self._in_round:
            raise ProtocolError("send outside of a round")
        if bits_per_tuple < 0:
            raise ValueError(
                f"bits_per_tuple must be >= 0, got {bits_per_tuple}"
            )
        p = self.config.p
        if isinstance(sender, int) and not 0 <= sender < p:
            raise ProtocolError(f"worker sender {sender} outside [0, {p})")
        if (
            isinstance(sender, str)
            and sender.startswith("input:")
            and self._round_index > 1
        ):
            raise ProtocolError(
                "input servers may send only during round 1 "
                f"(round {self._round_index})"
            )
        if len(counts) != p:
            raise ProtocolError(f"{len(counts)} worker counts for {p} workers")
        if isinstance(delivery, RoutedBlock):
            _check_block(delivery)
        if not counts.any():
            return
        self._received_tuples += counts
        self._received_bits += counts * bits_per_tuple
        self._staged.append((relation, delivery, counts))

    # -- worker state ---------------------------------------------------------

    def has_lazy_deliveries(self, relation: str) -> bool:
        """Whether ``relation`` holds recipe (multi-block) deliveries.

        True means :meth:`relation_pool` would *materialise* the full
        pool (a memory cliff the streaming mode exists to avoid);
        shard-wise consumers should iterate :meth:`pool_shard` ranges
        instead.
        """
        return any(
            not isinstance(delivery, ColumnPool)
            for delivery in self._delivered.get(relation, ())
        )

    def pool_worker_counts(self, relation: str) -> Any | None:
        """Per-worker delivered tuple counts, without materialising.

        None exactly when :meth:`relation_pool` would return None
        (nothing delivered).
        """
        counts = self._counts.get(relation)
        return None if counts is None else counts.copy()

    def pool_worker_bytes(self, relation: str) -> Any | None:
        """Per-worker pooled bytes of ``relation`` (shard planning)."""
        counts = self._counts.get(relation)
        if counts is None:
            return None
        return counts * (len(self._delivered[relation][0].columns) * 8)

    def pool_shard(
        self, relation: str, lo: int, hi: int
    ) -> ColumnPool | None:
        """Workers ``[lo, hi)`` of one relation's delivery pool.

        The shard-wise counterpart of :meth:`relation_pool`: pools
        contribute zero-copy :meth:`ColumnPool.shard` views, recipes
        are re-routed and binned for this worker range only, and
        several deliveries merge through the streaming
        :class:`~repro.engine.streaming.PoolBuilder`.  Peak memory is
        the shard, never the fleet.  None exactly when
        :meth:`relation_pool` would return None.
        """
        delivered = self._delivered.get(relation)
        if not delivered:
            return None
        if len(delivered) == 1 and isinstance(delivered[0], ColumnPool):
            return delivered[0].shard(lo, hi)
        from repro.engine.streaming import materialize_shard

        return materialize_shard(delivered, lo, hi, self.config.p)

    def relation_pool(self, relation: str) -> ColumnPool | None:
        """The fleet-wide delivery pool of one relation, or None.

        Returns the pooled columns of *every* worker's fragment of
        ``relation`` plus the ``(worker -> offset range)`` index, for
        consumers that read the whole fleet at once (IVM state
        capture, hash-to-min).  Pools from multiple rounds are merged
        (and cached) on demand.

        Returns None when the relation received no deliveries.

        Recipe deliveries are materialised *in full* here -- the
        correctness fallback, never cached.  Memory-conscious
        consumers check :meth:`has_lazy_deliveries` and iterate
        :meth:`pool_shard` worker ranges instead.
        """
        delivered = self._delivered.get(relation)
        if not delivered:
            return None
        if len(delivered) == 1 and isinstance(delivered[0], ColumnPool):
            return delivered[0]
        merged = self._merged_pools.get(relation)
        if merged is None:
            merged = self.pool_shard(relation, 0, self.config.p)
            if not self.has_lazy_deliveries(relation):
                self._merged_pools[relation] = merged
        return merged


def _check_block(block: RoutedBlock) -> None:
    """One destination per staged row, gathers inside the columns."""
    num_source_rows = len(block.columns[0]) if block.columns else 0
    row_indices = block.row_indices
    staged_rows = num_source_rows if row_indices is None else len(row_indices)
    if len(block.receivers) != staged_rows:
        raise ProtocolError(
            f"{len(block.receivers)} receivers for {staged_rows} staged "
            "rows (one destination per row required)"
        )
    if row_indices is not None and len(row_indices):
        if int(row_indices.min()) < 0 or int(row_indices.max()) >= (
            num_source_rows
        ):
            raise ProtocolError(f"row_indices outside [0, {num_source_rows})")
