"""The one route primitive, block-wise routing, and lazy delivery pools.

In the tuple-based MPC model a tuple's destinations depend on the tuple
alone and a round charges each *server* for what it receives, so
routing any row range of a relation in isolation and summing per-worker
counts is exact -- whether the range is the whole relation or one
``chunk_rows`` block.  The engine therefore has one route primitive,
:func:`route_range`, and one consumer of it, :func:`route_blocks`: it
walks a source in blocks (the whole source is one block when
``chunk_rows`` is None), range-checks and bincounts each block's
destinations, and hands back the per-worker counts -- plus the routed
block itself when there was only one.  The engine stages that as one
delivery: a one-block source as a
:class:`~repro.mpc.simulator.RoutedBlock`, binned by receiver at round
close; a longer source as a :class:`LazyContribution` *recipe*, whose
routed arrays were dropped block by block (``O(chunk_rows x
replication)`` transient memory) and which :func:`materialize_shard`
re-routes for one worker subrange at local-evaluation time.

The rest of this module is the data-structure layer:

* :func:`iter_blocks` -- the ``[start, end)`` block schedule of a
  relation under a ``chunk_rows`` budget.  Blocks are numpy *views*
  over the source columns (no row copies).
* :func:`bin_block` -- groups one routed range by receiving worker.
* :class:`PoolBuilder` -- k-way per-worker merge of worker-grouped
  blocks (one scatter per block and column, freeing each block as it
  goes).  Because blocks arrive in ascending source order, a single
  source-sorted stream stays source-sorted through the merge -- the
  sort-free join keeps its precondition; several interleaved streams
  clear ``source_sorted``.
* :func:`plan_worker_shards` -- contiguous worker ranges whose pooled
  bytes fit a budget, so shard-wise evaluation's peak memory is
  ``O(shard budget)`` independent of ``n``.

Parity contract: every block goes through the same
:meth:`~repro.engine.steps.RoutingStep.route_columns` code with its
global row offset, so the multiset of (row, destination) pairs -- and
therefore answers, per-server loads and capacity behaviour -- is
identical for every block size by construction.  The cost of a recipe
is recomputation: each worker shard re-routes the source blocks, an
accepted CPU-for-memory trade bounded by ``1 + num_shards`` routing
passes.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy

from repro.mpc.simulator import ColumnPool, receiver_counts

#: Environment knob for the shard-wise evaluation budget: target bytes
#: of pooled rows materialised per worker shard.
SHARD_BYTES_ENV = "REPRO_SHARD_BYTES"

#: Default shard budget: large enough that the join's transient arrays
#: stay cache-friendly multiples of it, small enough that budget plus
#: ~2-3x join temporaries fits the streaming RSS gates.
DEFAULT_SHARD_BYTES = 512 * 1024 * 1024


def resolve_chunk_rows(chunk_rows: int | None = None) -> int | None:
    """The effective streaming block size, or None for one block.

    None and non-positive values both mean "the whole relation is one
    block".
    """
    if chunk_rows is None or chunk_rows <= 0:
        return None
    return int(chunk_rows)


def resolve_shard_bytes(shard_bytes: int | None = None) -> int:
    """The effective shard-wise evaluation budget in bytes."""
    if shard_bytes is None:
        raw = os.environ.get(SHARD_BYTES_ENV, "").strip()
        if raw:
            try:
                shard_bytes = int(raw)
            except ValueError:
                raise ValueError(
                    f"{SHARD_BYTES_ENV} must be an integer, got {raw!r}"
                ) from None
    if shard_bytes is None or shard_bytes <= 0:
        return DEFAULT_SHARD_BYTES
    return int(shard_bytes)


def iter_blocks(
    num_rows: int, chunk_rows: int
) -> Iterator[tuple[int, int]]:
    """The ``[start, end)`` block schedule of ``num_rows`` rows.

    An empty relation yields no blocks; the final block may be short.
    """
    if chunk_rows < 1:
        raise ValueError(f"need chunk_rows >= 1, got {chunk_rows}")
    for start in range(0, num_rows, chunk_rows):
        yield start, min(start + chunk_rows, num_rows)


class PoolBuilder:
    """Accumulate worker-grouped block pools; merge once at the end.

    Each appended block is already grouped by receiving worker (a
    small per-block stable sort); :meth:`finalize` k-way merges the
    blocks per worker with one allocation and one scatter per block
    and column.  Within each worker, rows keep block order -- blocks are
    appended in ascending source order, so a single source-sorted
    stream's fragments stay sorted through the merge.

    Appending pools from more than one ``stream`` (distinct routing
    steps feeding one relation) clears ``source_sorted``: interleaved
    streams break within-worker source order.
    """

    def __init__(
        self, num_workers: int, arity: int | None = None
    ) -> None:
        self.num_workers = num_workers
        self._blocks: list[ColumnPool] = []
        self._streams: set[Any] = set()
        self._sorted = True
        self._arity = arity

    def append(
        self, block: ColumnPool, stream: Any = None, sorted_block: bool = True
    ) -> None:
        """Add one worker-grouped block pool (in source order)."""
        if block.num_workers != self.num_workers:
            raise ValueError(
                f"block covers {block.num_workers} workers, "
                f"builder covers {self.num_workers}"
            )
        if self._arity is None:
            self._arity = len(block.columns)
        self._streams.add(stream)
        if not sorted_block or len(self._streams) > 1:
            self._sorted = False
        if len(block):
            self._blocks.append(block)

    def finalize(self) -> ColumnPool:
        """Merge the appended blocks into one worker-grouped pool.

        Blocks are released as their rows are copied out, so the peak
        is the final pool plus one block -- not twice the pool.
        """
        p = self.num_workers
        blocks = self._blocks
        self._blocks = []
        if not blocks:
            arity = self._arity or 0
            return ColumnPool(
                columns=tuple(
                    numpy.zeros(0, dtype=numpy.int64) for _ in range(arity)
                ),
                offsets=numpy.zeros(p + 1, dtype=numpy.int64),
                source_sorted=self._sorted,
            )
        if len(blocks) == 1:
            block = blocks[0]
            return ColumnPool(
                columns=block.columns,
                offsets=block.offsets,
                source_sorted=self._sorted and block.source_sorted,
            )
        counts = numpy.zeros(p, dtype=numpy.int64)
        for block in blocks:
            counts += block.offsets[1:] - block.offsets[:-1]
        offsets = numpy.zeros(p + 1, dtype=numpy.int64)
        numpy.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        columns = tuple(
            numpy.empty(total, dtype=numpy.int64) for _ in blocks[0].columns
        )
        cursor = offsets[:-1].copy()
        while blocks:
            block = blocks.pop(0)
            block_counts = block.offsets[1:] - block.offsets[:-1]
            # Row r of worker w's group lands at cursor[w] + r: one
            # scatter per column moves the whole block.
            targets = numpy.arange(len(block)) + numpy.repeat(
                cursor - block.offsets[:-1], block_counts
            )
            for column, source in zip(columns, block.columns):
                column[targets] = source
            cursor += block_counts
        return ColumnPool(
            columns=columns, offsets=offsets, source_sorted=self._sorted
        )


def bin_block(
    columns: tuple,
    destinations: Any,
    row_indices: Any,
    num_workers: int,
    lo: int = 0,
    hi: int | None = None,
) -> ColumnPool:
    """Group one routed block by receiving worker, rebased to [lo, hi).

    ``columns``/``destinations``/``row_indices`` are one
    :meth:`~repro.engine.steps.RoutingStep.route_columns` triple.
    Destinations outside ``[lo, hi)`` are dropped (the shard
    restriction); the stable grouping keeps the step's per-worker
    emission order, so order-preserving steps yield source-sorted
    fragments.
    """
    if hi is None:
        hi = num_workers
    width = hi - lo
    if lo == 0 and hi == num_workers:
        local = destinations
        mask = None
    else:
        mask = (destinations >= lo) & (destinations < hi)
        local = destinations[mask] - lo
    if row_indices is None:
        gather = (
            None
            if mask is None
            else numpy.nonzero(mask)[0]
        )
    else:
        gather = row_indices if mask is None else row_indices[mask]
    if width == 1:
        # Single-worker shard: every kept row lands in the one bucket,
        # in emission order -- no sort needed.
        selected = gather
        offsets = numpy.array([0, len(local)], dtype=numpy.int64)
    else:
        # Worker ids below ``width`` fit a narrow unsigned dtype, on
        # which numpy's stable argsort is a radix sort.
        order = numpy.argsort(
            local.astype(numpy.min_scalar_type(width - 1)), kind="stable"
        )
        selected = order if gather is None else gather[order]
        offsets = numpy.searchsorted(
            local[order] if len(local) else local,
            numpy.arange(width + 1, dtype=numpy.int64),
        ).astype(numpy.int64)
    if selected is None:
        pooled = columns
    else:
        pooled = tuple(column[selected] for column in columns)
    return ColumnPool(columns=pooled, offsets=offsets, source_sorted=True)


@dataclass(frozen=True)
class LazyContribution:
    """One multi-block delivery, as a re-routable recipe.

    Attributes:
        step: the routing step that produced the delivery.
        columns: the source relation's value columns at routing time
            (sources are immutable for the execution's life, so
            holding the views is safe and free).
        num_rows: source row count (blocks are planned from it).
        chunk_rows: the block size the counting pass used; shard
            materialisation re-routes with the same schedule.
        source_sorted: the step's per-receiver order promise
            (:attr:`~repro.engine.steps.RoutingStep.preserves_source_order`).
    """

    step: Any
    columns: tuple
    num_rows: int
    chunk_rows: int
    source_sorted: bool


def route_range(step: Any, columns: tuple, start: int, end: int, p: int):
    """Route rows ``[start, end)`` of a source: the one route primitive.

    Returns the :meth:`~repro.engine.steps.RoutingStep.route_columns`
    triple of the range's zero-copy column views; row indices are local
    to the range's kept rows.
    """
    return step.route_columns(
        tuple(column[start:end] for column in columns), p, start
    )


def route_blocks(
    step: Any,
    columns: tuple,
    num_rows: int,
    chunk_rows: int | None,
    p: int,
    block_hook: Any = nullcontext,
) -> tuple[Any, tuple | None]:
    """Route a source block by block: per-worker counts, one block kept.

    Every block goes through :func:`route_range` and
    :func:`~repro.mpc.simulator.receiver_counts` (which range-checks
    its destinations).  ``chunk_rows`` None makes the whole source one
    block.  Returns ``(counts, routed)``: ``routed`` is the
    ``route_columns`` triple when the source is one block (an empty
    source too), and None otherwise -- each block's arrays are dropped
    once counted, so transient memory is ``O(chunk x replication)``.
    ``block_hook`` returns a context manager entered around every block
    (the engine's deadline check, fault delay and block timing).
    """
    blocks = list(iter_blocks(num_rows, chunk_rows or max(num_rows, 1)))
    counts = numpy.zeros(p, dtype=numpy.int64)
    routed = None
    for start, end in blocks or [(0, 0)]:
        with block_hook():
            routed = route_range(step, columns, start, end, p)
            counts += receiver_counts(routed[1], p)
            if len(blocks) > 1:
                routed = None
    return counts, routed


def materialize_shard(
    deliveries: Sequence[Any], lo: int, hi: int, p: int
) -> ColumnPool:
    """Materialise workers ``[lo, hi)`` of one relation's deliveries.

    A delivered :class:`~repro.mpc.simulator.ColumnPool` contributes
    its zero-copy shard; a :class:`LazyContribution` re-routes its
    blocks and keeps only destinations in the shard.  Everything
    merges through a :class:`PoolBuilder`, in delivery order; more
    than one delivery clears ``source_sorted``.
    """
    builder = PoolBuilder(
        hi - lo, arity=len(deliveries[0].columns) if deliveries else None
    )
    for index, delivery in enumerate(deliveries):
        if isinstance(delivery, ColumnPool):
            builder.append(
                delivery.shard(lo, hi),
                stream=index,
                sorted_block=delivery.source_sorted,
            )
            continue
        for start, end in iter_blocks(delivery.num_rows, delivery.chunk_rows):
            routed = route_range(
                delivery.step, delivery.columns, start, end, p
            )
            builder.append(
                bin_block(*routed, p, lo, hi),
                stream=index,
                sorted_block=delivery.source_sorted,
            )
    return builder.finalize()


def plan_worker_shards(
    byte_counts: Any, num_workers: int, shard_bytes: int
) -> list[tuple[int, int]]:
    """Contiguous worker ranges whose pooled bytes fit the budget.

    ``byte_counts`` holds the pooled bytes each worker's fragments
    would occupy; ranges are grown greedily until adding the next
    worker would exceed ``shard_bytes`` (every range holds at least
    one worker, so oversized single workers still evaluate -- just
    over budget, which is the best any contiguous split can do).
    """
    shards: list[tuple[int, int]] = []
    lo = 0
    while lo < num_workers:
        hi = lo + 1
        running = int(byte_counts[lo])
        while (
            hi < num_workers
            and running + int(byte_counts[hi]) <= shard_bytes
        ):
            running += int(byte_counts[hi])
            hi += 1
        shards.append((lo, hi))
        lo = hi
    return shards
