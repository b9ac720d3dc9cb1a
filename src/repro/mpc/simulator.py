"""The round-based MPC network simulator (Sections 2.1 and 2.4).

Usage pattern (one HyperCube round)::

    simulator = MPCSimulator(config, input_bits=database.total_bits)
    simulator.begin_round()
    for relation in database:
        for row in relation:
            for worker in destinations(row):
                simulator.send_from_input(relation.name, worker, [row],
                                          bits_per_tuple=relation.tuple_bits)
    stats = simulator.end_round()
    rows_at_3 = simulator.mailbox(3).rows("S1")

Staging is columnar-first: row sends accumulate into per-(receiver,
relation) batch buffers and per-worker bit/tuple totals are kept as
running aggregates (no per-message object allocation), while the
vectorized path ships a whole relation's routing decision in one
:meth:`MPCSimulator.send_columns` call -- an array of destination
workers plus the source columns -- and the simulator bin-counts the
load and pools the deliveries at round end.

Columnar delivery is *pooled*: all of a relation's staged column sends
for the round are gathered into one contiguous :class:`ColumnPool`
whose rows are grouped by receiving worker, with a
``(worker -> offset range)`` index.  Every pool -- a round's stages at
:meth:`MPCSimulator.end_round`, several rounds' pools merged for
:meth:`MPCSimulator.relation_pool`, a streamed recipe's blocks in
:meth:`MPCSimulator.pool_shard` -- is grouped by the one constructor in
:mod:`repro.engine.streaming`: ``bin_block`` (one stable sort of a
routed row range by receiver) feeding a ``PoolBuilder`` (per-worker
merge; a single range passes through as the pool).  Each
worker's mailbox fragment is then a zero-copy basic slice of the pool;
the segmented local join reads contiguous worker ranges of it via
:meth:`MPCSimulator.pool_shard`, and fleet-wide consumers (IVM state
capture, hash-to-min) the whole pool plus the index via
:meth:`MPCSimulator.relation_pool`, without any per-worker
concatenation.

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
from typing import Any, Iterable, Sequence

from repro.backend import require_numpy
from repro.mpc.message import Endpoint, Mailbox, input_server
from repro.mpc.model import MPCConfig
from repro.mpc.stats import RoundStats, SimulationReport


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


@dataclass
class _ColumnStage:
    """One vectorized send: destination per row plus source columns.

    ``row_indices`` (optional) indexes into ``columns``; when present
    the stage represents ``columns[row_indices[i]] -> receivers[i]``
    without materialising the replicated rows, which is what keeps
    HC's ``p^{1-1/tau}``-fold replication cheap to stage.

    ``source_sorted`` is the sender's promise that, restricted to any
    one receiver, staged rows appear in ascending source-row order --
    true for every routing step whose replication pattern is a
    ``repeat``/``tile`` of ``arange`` (see
    :attr:`repro.engine.steps.RoutingStep.preserves_source_order`).
    """

    relation: str
    receivers: Any
    columns: tuple
    bits_per_tuple: int
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

    def worker_count(self, worker: int) -> int:
        """Number of rows delivered to one worker."""
        return int(self.offsets[worker + 1]) - int(self.offsets[worker])

    def shard(self, lo: int, hi: int) -> "ColumnPool":
        """The sub-pool of workers ``[lo, hi)`` (zero-copy slices).

        Rows stay worker-grouped and the offset index is rebased to
        the shard, so the result is itself a valid pool over
        ``hi - lo`` workers: a parallel consumer can hand each
        executor process one contiguous worker range and evaluate it
        with the exact same segmented code that runs fleet-wide.
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
        self._mailboxes = [Mailbox() for _ in range(config.p)]
        self._round_index = 0
        self._in_round = False
        # Columnar deliveries pooled per relation (kept across rounds,
        # like mailboxes: workers remember everything they received).
        self._pools: dict[str, list[ColumnPool]] = {}
        self._merged_pools: dict[str, ColumnPool] = {}
        # Streamed (lazy) deliveries per relation: re-routable recipes
        # plus per-worker delivered tuple counts.  Loads were accounted
        # when the contribution was staged; rows are materialised on
        # demand one worker shard at a time (never into mailboxes).
        self._lazy: dict[str, list[Any]] = {}
        self._lazy_counts: dict[str, Any] = {}
        # Relations that ever received row-path deliveries; their
        # pools (if any) are incomplete, so pooled consumers get None
        # and only the per-worker mailbox view holds every row.
        self._row_delivered: set[str] = set()
        self._reset_staging()

    def _reset_staging(self) -> None:
        p = self.config.p
        self._staged_rows: dict[tuple[int, str], list[tuple[int, ...]]] = {}
        self._staged_columns: list[_ColumnStage] = []
        self._staged_lazy: list[tuple[str, Any, Any]] = []
        self._received_bits = [0] * p
        self._received_tuples = [0] * p

    def reset(
        self,
        input_bits: int | None = None,
        enforce_capacity: bool | None = None,
    ) -> None:
        """Return the simulator to its just-constructed state.

        The serving layer reuses one simulator across many plan
        executions instead of allocating ``p`` mailboxes per request;
        a reset drops every mailbox, delivery pool and report while
        keeping the configuration.  Optionally rebinds the input size
        (databases mutate between requests) and capacity enforcement.

        An open round is aborted: a :class:`CapacityExceeded` raise
        leaves the simulator mid-round by design (the algorithm died
        there), and a reset is exactly how a serving layer recovers
        the pooled simulator afterwards.
        """
        self._in_round = False
        if input_bits is not None:
            self.input_bits = input_bits
        if enforce_capacity is not None:
            self.enforce_capacity = enforce_capacity
        self.report = SimulationReport(input_bits=self.input_bits)
        for mailbox in self._mailboxes:
            mailbox.clear()
        self._round_index = 0
        self._pools.clear()
        self._merged_pools.clear()
        self._lazy.clear()
        self._lazy_counts.clear()
        self._row_delivered.clear()
        self._reset_staging()

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
        if self.enforce_capacity:
            for worker, bits in enumerate(self._received_bits):
                if bits > capacity:
                    raise CapacityExceeded(
                        worker, bits, capacity, self._round_index
                    )
        for (receiver, relation), rows in self._staged_rows.items():
            self._mailboxes[receiver].deliver_rows(relation, rows)
            self._row_delivered.add(relation)
        self._deliver_column_pools()
        self._commit_lazy()
        stats = RoundStats(
            round_index=self._round_index,
            received_bits=tuple(self._received_bits),
            received_tuples=tuple(self._received_tuples),
            capacity_bits=capacity,
        )
        self.report.rounds.append(stats)
        self._reset_staging()
        self._in_round = False
        return stats

    def _deliver_column_pools(self) -> None:
        """Pool the round's column stages per relation and deliver.

        Every stage is one routed row range: it is grouped by receiving
        worker with the bin consumer the streamed path uses
        (:func:`~repro.engine.streaming.bin_block`, one stable sort)
        and a relation's stages merge through a
        :class:`~repro.engine.streaming.PoolBuilder` -- which hands a
        single stage's grouping through as the pool.  Each worker's
        mailbox fragment is then a zero-copy basic slice of the pooled
        columns, and the pool plus its offset index stays available
        fleet-wide through :meth:`relation_pool`.
        """
        if not self._staged_columns:
            return
        from repro.engine.streaming import PoolBuilder, bin_block

        p = self.config.p
        builders: dict[str, Any] = {}
        for index, stage in enumerate(self._staged_columns):
            builders.setdefault(stage.relation, PoolBuilder(p)).append(
                bin_block(
                    stage.columns, stage.receivers, stage.row_indices, p
                ),
                stream=index,
                sorted_block=stage.source_sorted,
            )
        for relation, builder in builders.items():
            pool = builder.finalize()
            self._pools.setdefault(relation, []).append(pool)
            self._merged_pools.pop(relation, None)
            for worker in range(p):
                if pool.worker_count(worker):
                    self._mailboxes[worker].deliver_columns(
                        relation, pool.worker_slice(worker)
                    )

    def _commit_lazy(self) -> None:
        """Commit the round's streamed deliveries as worker state.

        Mirrors pool delivery semantics: contributions staged during a
        round only become part of the fleet's delivered state once the
        round closes under its capacity budget -- a round that raises
        :class:`CapacityExceeded` leaves the contribution unstaged,
        exactly as a whole-shipped delivery would never have pooled.
        """
        if not self._staged_lazy:
            return
        numpy = require_numpy()
        for relation, contribution, counts in self._staged_lazy:
            self._lazy.setdefault(relation, []).append(contribution)
            existing = self._lazy_counts.get(relation)
            if existing is None:
                self._lazy_counts[relation] = counts.astype(numpy.int64)
            else:
                self._lazy_counts[relation] = existing + counts
            self._merged_pools.pop(relation, None)

    # -- sending --------------------------------------------------------------

    def _validate_send(
        self,
        sender: Endpoint,
        receiver: int | None,
        bits_per_tuple: int,
    ) -> None:
        if not self._in_round:
            raise ProtocolError("send outside of a round")
        if bits_per_tuple < 0:
            raise ValueError(
                f"bits_per_tuple must be >= 0, got {bits_per_tuple}"
            )
        if receiver is not None and not 0 <= receiver < self.config.p:
            raise ProtocolError(
                f"receiver {receiver} outside [0, {self.config.p})"
            )
        if isinstance(sender, int) and not 0 <= sender < self.config.p:
            raise ProtocolError(
                f"worker sender {sender} outside [0, {self.config.p})"
            )
        if (
            isinstance(sender, str)
            and sender.startswith("input:")
            and self._round_index > 1
        ):
            raise ProtocolError(
                "input servers may send only during round 1 "
                f"(round {self._round_index})"
            )

    def send(
        self,
        sender: Endpoint,
        receiver: int,
        relation: str,
        rows: Iterable[Sequence[int]],
        bits_per_tuple: int,
    ) -> None:
        """Stage a batch of tuples for delivery at round end.

        Args:
            sender: worker index, or an input-server label.
            receiver: destination worker index.
            relation: relation/view name the rows belong to.
            rows: the tuples.
            bits_per_tuple: exact per-tuple cost in bits.
        """
        self._validate_send(sender, receiver, bits_per_tuple)
        materialised = [tuple(row) for row in rows]
        if not materialised:
            return
        self._staged_rows.setdefault((receiver, relation), []).extend(
            materialised
        )
        self._received_bits[receiver] += len(materialised) * bits_per_tuple
        self._received_tuples[receiver] += len(materialised)

    def send_columns(
        self,
        sender: Endpoint,
        receivers: Any,
        relation: str,
        columns: tuple,
        bits_per_tuple: int,
        row_indices: Any | None = None,
        source_sorted: bool = False,
    ) -> None:
        """Stage a whole routing decision in one vectorized call.

        Row ``i`` of the batch goes to worker ``receivers[i]``; its
        values are ``columns[:][i]`` directly, or
        ``columns[:][row_indices[i]]`` when ``row_indices`` is given
        (replication without materialising the copies).  Load is
        accounted immediately via a bincount; per-receiver fragments
        are sliced out of the round's :class:`ColumnPool` at delivery
        time.

        Args:
            sender: worker index, or an input-server label.
            receivers: int array of destination workers, one per row.
            relation: relation/view name the rows belong to.
            columns: parallel value columns (numpy int64 arrays).
            bits_per_tuple: exact per-tuple cost in bits.
            row_indices: optional gather indices into ``columns``.
            source_sorted: sender's promise that rows staged for any
                one receiver appear in ascending source-row order
                (lets the pool keep worker fragments pre-sorted; see
                :class:`ColumnPool`).
        """
        numpy = require_numpy()
        self._validate_send(sender, None, bits_per_tuple)
        receivers = numpy.asarray(receivers, dtype=numpy.int64)
        if row_indices is not None:
            row_indices = numpy.asarray(row_indices, dtype=numpy.int64)
        num_source_rows = len(columns[0]) if columns else 0
        staged_rows = (
            len(row_indices) if row_indices is not None else num_source_rows
        )
        if len(receivers) != staged_rows:
            raise ProtocolError(
                f"{len(receivers)} receivers for {staged_rows} staged "
                "rows (one destination per row required)"
            )
        if len(receivers) == 0:
            return
        if row_indices is not None and len(row_indices):
            if (
                int(row_indices.min()) < 0
                or int(row_indices.max()) >= num_source_rows
            ):
                raise ProtocolError(
                    f"row_indices outside [0, {num_source_rows})"
                )
        low = int(receivers.min())
        high = int(receivers.max())
        if low < 0 or high >= self.config.p:
            offender = low if low < 0 else high
            raise ProtocolError(
                f"receiver {offender} outside [0, {self.config.p})"
            )
        counts = numpy.bincount(receivers, minlength=self.config.p)
        for worker, count in enumerate(counts.tolist()):
            if count:
                self._received_bits[worker] += count * bits_per_tuple
                self._received_tuples[worker] += count
        self._staged_columns.append(
            _ColumnStage(
                relation=relation,
                receivers=receivers,
                columns=columns,
                bits_per_tuple=bits_per_tuple,
                row_indices=row_indices,
                source_sorted=source_sorted,
            )
        )

    def stage_lazy_columns(
        self,
        sender: Endpoint,
        relation: str,
        contribution: Any,
        counts: Any,
        bits_per_tuple: int,
    ) -> None:
        """Stage one streamed routing step without materialising rows.

        The streaming engine's ship verb: ``counts`` is the per-worker
        delivered-tuple bincount its counting pass computed (identical
        totals to :meth:`send_columns`' own bincount by construction),
        and ``contribution`` is a re-routable delivery recipe (a
        :class:`~repro.engine.streaming.LazyContribution`).  Load is
        accounted immediately; the recipe becomes part of the fleet's
        delivered state at :meth:`end_round` -- after the capacity
        check, like every other delivery -- and its rows are
        materialised on demand, one worker shard at a time, through
        :meth:`pool_shard`.  Mailboxes are never populated: streamed
        relations are consumed through the pool/shard interface only.
        """
        self._validate_send(sender, None, bits_per_tuple)
        if len(counts) != self.config.p:
            raise ProtocolError(
                f"{len(counts)} worker counts for {self.config.p} workers"
            )
        for worker, count in enumerate(counts.tolist()):
            if count:
                self._received_bits[worker] += count * bits_per_tuple
                self._received_tuples[worker] += count
        self._staged_lazy.append((relation, contribution, counts))

    def send_from_input(
        self,
        relation: str,
        receiver: int,
        rows: Iterable[Sequence[int]],
        bits_per_tuple: int,
    ) -> None:
        """Convenience: send from the input server of ``relation``."""
        self.send(
            input_server(relation), receiver, relation, rows, bits_per_tuple
        )

    def send_columns_from_input(
        self,
        relation: str,
        receivers: Any,
        columns: tuple,
        bits_per_tuple: int,
        row_indices: Any | None = None,
    ) -> None:
        """Vectorized :meth:`send_columns` from a relation's input server."""
        self.send_columns(
            input_server(relation),
            receivers,
            relation,
            columns,
            bits_per_tuple,
            row_indices=row_indices,
        )

    def broadcast_from_input(
        self,
        relation: str,
        rows: Iterable[Sequence[int]],
        bits_per_tuple: int,
    ) -> None:
        """Send the same rows to every worker (round-1 broadcast)."""
        materialised = tuple(tuple(row) for row in rows)
        for worker in range(self.config.p):
            self.send_from_input(
                relation, worker, materialised, bits_per_tuple
            )

    # -- worker state ------------------------------------------------------------

    def mailbox(self, worker: int) -> Mailbox:
        """The accumulated storage of one worker."""
        return self._mailboxes[worker]

    def worker_rows(self, worker: int, relation: str) -> list[tuple[int, ...]]:
        """Rows of ``relation`` held by ``worker`` (ever received)."""
        return self._mailboxes[worker].rows(relation)

    def worker_column_batches(self, worker: int, relation: str) -> list[tuple]:
        """Columnar fragments of ``relation`` held by ``worker``."""
        return self._mailboxes[worker].column_batches(relation)

    def has_lazy_deliveries(self, relation: str) -> bool:
        """Whether ``relation`` has streamed (recipe-only) deliveries.

        True means :meth:`relation_pool` would *materialise* the full
        pool (a memory cliff the streaming mode exists to avoid);
        shard-wise consumers should iterate :meth:`pool_shard` ranges
        instead.
        """
        return relation in self._lazy

    def has_row_deliveries(self, relation: str) -> bool:
        """Whether ``relation`` ever received row-path deliveries."""
        return relation in self._row_delivered

    def has_eager_pools(self, relation: str) -> bool:
        """Whether ``relation`` holds materialised delivery pools."""
        return bool(self._pools.get(relation))

    def lazy_contributions(self, relation: str) -> tuple:
        """The streamed delivery recipes of one relation (may be empty)."""
        return tuple(self._lazy.get(relation, ()))

    def pool_worker_counts(self, relation: str) -> Any | None:
        """Per-worker delivered tuple counts, without materialising.

        Covers eager pools and streamed contributions alike; None
        exactly when :meth:`relation_pool` would return None (row-path
        deliveries present, or nothing columnar delivered).
        """
        if relation in self._row_delivered:
            return None
        pools = self._pools.get(relation)
        lazy_counts = self._lazy_counts.get(relation)
        if not pools and lazy_counts is None:
            return None
        numpy = require_numpy()
        counts = numpy.zeros(self.config.p, dtype=numpy.int64)
        for pool in pools or ():
            counts += pool.offsets[1:] - pool.offsets[:-1]
        if lazy_counts is not None:
            counts += lazy_counts
        return counts

    def pool_worker_bytes(self, relation: str) -> Any | None:
        """Per-worker pooled bytes of ``relation`` (shard planning)."""
        counts = self.pool_worker_counts(relation)
        if counts is None:
            return None
        arity = 0
        pools = self._pools.get(relation)
        if pools:
            arity = len(pools[0].columns)
        for contribution in self._lazy.get(relation, ()):
            arity = max(arity, len(contribution.columns))
        return counts * (arity * 8)

    def pool_shard(
        self, relation: str, lo: int, hi: int
    ) -> ColumnPool | None:
        """Workers ``[lo, hi)`` of one relation's delivery pool.

        The shard-wise counterpart of :meth:`relation_pool`: eager
        pools contribute zero-copy :meth:`ColumnPool.shard` views,
        streamed contributions are re-routed and materialised for this
        worker range only, and multiple sources merge through the
        streaming :class:`~repro.engine.streaming.PoolBuilder`.  Peak
        memory is the shard, never the fleet.  None exactly when
        :meth:`relation_pool` would return None.
        """
        if relation in self._row_delivered:
            return None
        pools = self._pools.get(relation)
        lazy = self._lazy.get(relation)
        if not pools and not lazy:
            return None
        if not lazy and len(pools) == 1:
            return pools[0].shard(lo, hi)
        from repro.engine.streaming import materialize_shard

        return materialize_shard(
            lazy or (),
            lo,
            hi,
            self.config.p,
            extra_blocks=[pool.shard(lo, hi) for pool in pools or ()],
        )

    def relation_pool(self, relation: str) -> ColumnPool | None:
        """The fleet-wide delivery pool of one relation, or None.

        Returns the pooled columns of *every* worker's fragment of
        ``relation`` plus the ``(worker -> offset range)`` index, for
        consumers that read the whole fleet at once (IVM state
        capture, hash-to-min).  Pools from multiple rounds are merged
        (and cached) on demand.

        Returns None when the relation received no columnar deliveries
        or when any delivery travelled the row path (mixed storage:
        the pool would be incomplete; only the per-worker mailbox view
        holds every row).

        Streamed deliveries (see :meth:`stage_lazy_columns`) are
        materialised *in full* here -- the correctness fallback, never
        cached.  Memory-conscious consumers check
        :meth:`has_lazy_deliveries` and iterate :meth:`pool_shard`
        worker ranges instead.
        """
        if relation in self._row_delivered:
            return None
        if relation in self._lazy:
            return self.pool_shard(relation, 0, self.config.p)
        pools = self._pools.get(relation)
        if not pools:
            return None
        if len(pools) == 1:
            return pools[0]
        merged = self._merged_pools.get(relation)
        if merged is None:
            merged = self.pool_shard(relation, 0, self.config.p)
            self._merged_pools[relation] = merged
        return merged
