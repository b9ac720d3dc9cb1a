"""The process-parallel round engine: route shards across OS processes.

:class:`ParallelRoundEngine` is a drop-in :class:`RoundEngine` whose
route phase fans shardable steps out over a persistent spawn pool:
the source's columns are published once through the context's
:class:`~repro.engine.parallel.shm.SharedColumnStore`, each worker
routes a contiguous ``[start, end)`` row range against zero-copy
views, and the parent reassembles the shard triples into one
:class:`~repro.engine.executor.RoutedStep`.  Ship, deliver and local
evaluation stay in the parent, so results reduce through the existing
:class:`~repro.mpc.simulator.ColumnPool`/segmented-join path
untouched.

Parity is the design invariant, not an aspiration:

* Only steps whose :attr:`~repro.engine.steps.RoutingStep.shardable`
  contract holds are dispatched -- their routing decision depends on
  row content alone, so routing shard ``i`` in isolation and
  concatenating (with row indices offset by the cumulative kept-row
  count of earlier shards) reproduces the serial multiset of
  (row, destination) pairs.  For :class:`~repro.engine.steps.HashRoute`
  the reassembled arrays are element-identical to the serial ones;
  for :class:`~repro.engine.steps.Broadcast` the staged layout is
  shard-major rather than worker-major, but the simulator's stable
  sort by receiver restores the exact serial per-worker row order, so
  delivered pools -- and therefore answers, loads and capacity
  behaviour -- are bit-identical either way.
* Non-shardable steps (:class:`~repro.engine.steps.RoundRobinGrid`'s
  global row index, :class:`~repro.engine.steps.HeavyGridRoute`'s
  global signature grouping), the ``pure`` backend, and sources below
  the ``min_rows`` threshold all route in-process exactly like the
  serial engine -- falling back is always correct, dispatching is an
  optimisation.

The :class:`ParallelContext` owns the long-lived resources (segment
store, shard pool) and the ``parallel_rounds``/``fallback_rounds``
counters the serving layer surfaces.  A broken pool (worker OOM-killed
mid-round) flips the context into permanent fallback: queries keep
answering on one core rather than failing.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.backend import NUMPY
from repro.data.columnar import ColumnarRelation
from repro.engine.deadline import Deadline
from repro.engine.executor import RoundEngine, RoutedStep
from repro.engine.parallel.pool import PoolBroken, ShardPool
from repro.engine.parallel.shm import SegmentHandle, SharedColumnStore
from repro.engine.profile import RoundProfiler
from repro.engine.steps import RoutingStep
from repro.mpc.simulator import MPCSimulator

#: Below this many source rows a round trip to the pool costs more
#: than routing in-process; chosen so the pure-Python overhead of one
#: dispatch (~a few hundred microseconds) stays well under the
#: vectorised routing time it replaces.
DEFAULT_MIN_ROWS = 4096

#: How many distinct column tuples the context keeps published in
#: shared memory at once; beyond this the least recently shared
#: segment is released (ephemeral per-query views would otherwise
#: accumulate segments for the context's whole lifetime).
_SEGMENT_CACHE_LIMIT = 32

#: How many recently-released segment names the context replays to
#: shard workers (each dispatch carries the current list; workers
#: ignore names they hold no mapping for).  Old entries simply fall
#: off -- the workers' own bounded attachment cache covers anything
#: displaced before every worker saw it.
_EVICTION_LOG_LIMIT = 4 * _SEGMENT_CACHE_LIMIT


class ParallelContext:
    """Shared state of process-parallel execution (pool + segments).

    One context serves many plan executions: the segment store dedups
    snapshot columns across queries and the spawn pool stays warm.

    Args:
        workers: shard/executor process count; must be >= 2 (one
            worker would just be the serial engine with IPC overhead).
        min_rows: sources smaller than this route in-process.
    """

    def __init__(
        self, workers: int, min_rows: int = DEFAULT_MIN_ROWS
    ) -> None:
        if workers < 2:
            raise ValueError(
                f"parallel execution needs workers >= 2, got {workers}"
            )
        self.workers = workers
        self.min_rows = min_rows
        self.store = SharedColumnStore()
        self.pool = ShardPool(workers)
        self.parallel_rounds = 0
        self.fallback_rounds = 0
        #: id(columns) -> (columns strong ref, handle), insertion-ordered
        #: so eviction is oldest-first.
        self._handles: dict[int, tuple[Any, SegmentHandle]] = {}
        #: Released segment names still to be broadcast to workers.
        self._evicted: deque[str] = deque(maxlen=_EVICTION_LOG_LIMIT)
        self._closed = False

    @property
    def usable(self) -> bool:
        """Whether dispatch is currently possible at all."""
        return not self._closed and not self.pool.broken

    def handle_for(self, columns: tuple) -> SegmentHandle:
        """The shared segment publishing ``columns`` (cached)."""
        key = id(columns)
        cached = self._handles.get(key)
        if cached is not None and cached[0] is columns:
            return cached[1]
        handle = self.store.share(columns)
        self._handles[key] = (columns, handle)
        while len(self._handles) > _SEGMENT_CACHE_LIMIT:
            oldest = next(iter(self._handles))
            _, evicted = self._handles.pop(oldest)
            if self.store.release(evicted):
                # The segment is gone in the parent; tell the workers
                # with the next dispatch so their mmaps stop pinning
                # the (now unlinked) physical pages.
                self._evicted.append(evicted.name)
        return handle

    def evicted_names(self) -> tuple[str, ...]:
        """Recently-released segment names to replay to shard workers."""
        return tuple(self._evicted)

    def close(self) -> None:
        """Release the pool and unlink every published segment."""
        self._closed = True
        self.pool.close()
        self._handles.clear()
        self.store.close()

    def __enter__(self) -> "ParallelContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ParallelRoundEngine(RoundEngine):
    """A :class:`RoundEngine` that routes shardable steps in parallel.

    Behaviour is identical to the base engine except that the route
    phase of eligible steps runs on the context's process pool; every
    fallback path literally *is* the base engine's code.
    """

    def __init__(
        self,
        simulator: MPCSimulator,
        context: ParallelContext,
        backend: str | None = None,
        profiler: RoundProfiler | None = None,
        chunk_rows: int | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        super().__init__(
            simulator,
            backend=backend,
            profiler=profiler,
            chunk_rows=chunk_rows,
            deadline=deadline,
        )
        self.context = context
        self._round_parallel = False

    # -- round bookkeeping ---------------------------------------------------

    def run_round(self, steps, sources):
        """Execute one round, counting it as parallel or fallback.

        A round increments ``parallel_rounds`` when at least one step
        fanned out, ``fallback_rounds`` when every step routed
        in-process.
        """
        self._round_parallel = False
        try:
            return super().run_round(steps, sources)
        finally:
            if self._round_parallel:
                self.context.parallel_rounds += 1
            elif steps:
                self.context.fallback_rounds += 1

    # -- routing -------------------------------------------------------------

    def _eligible(self, step: RoutingStep, source: ColumnarRelation) -> bool:
        return (
            self.backend == NUMPY
            and self.context.usable
            and step.shardable
            and bool(source.columns)
            and len(source) >= self.context.min_rows
        )

    def route_step(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> RoutedStep:
        if not self._eligible(step, source):
            return super().route_step(step, source)
        with self._measure("route"):
            decision = self._route_sharded(step, source)
        if decision is None:  # pool died mid-round: route serially.
            return super().route_step(step, source)
        self._round_parallel = True
        return decision

    def _stream_counts(self, step: RoutingStep, source: ColumnarRelation):
        """The streamed counting pass, fanned out per row shard.

        Each pool worker routes a contiguous row range in
        ``chunk_rows`` blocks and returns its bincount; bincount is
        additive over any row partition, so the summed counts -- and
        therefore loads and capacity behaviour -- equal the serial
        counting pass exactly.  Ineligible steps and a broken pool
        fall back to the serial pass.
        """
        if not self._eligible(step, source):
            return super()._stream_counts(step, source)
        if self.deadline is not None:
            # The fanned-out pass has no per-block checkpoint in the
            # parent; check once before dispatching the shards.
            self.deadline.check("streamed step dispatch")
        counts = self._stream_counts_sharded(step, source)
        if counts is None:
            return super()._stream_counts(step, source)
        self._round_parallel = True
        return counts

    def _stream_counts_sharded(
        self, step: RoutingStep, source: ColumnarRelation
    ):
        from repro.backend import require_numpy
        from repro.engine.parallel.pool import count_shard_task

        numpy = require_numpy()
        num_rows = len(source)
        workers = self.context.workers
        chunk = -(-num_rows // workers)  # ceil division
        bounds = [
            (start, min(start + chunk, num_rows))
            for start in range(0, num_rows, chunk)
        ]
        handle = self.context.handle_for(source.columns)
        p = self.simulator.num_workers
        detach = self.context.evicted_names()
        try:
            results = self.context.pool.collect(
                [
                    self.context.pool.submit(
                        count_shard_task,
                        step,
                        handle,
                        start,
                        end,
                        p,
                        self.chunk_rows,
                        detach,
                    )
                    for start, end in bounds
                ]
            )
        except PoolBroken:
            return None
        if self.profiler is not None:
            round_index = self.simulator.round_index
            for shard_index, result in enumerate(results):
                self.profiler.add_shard(
                    round_index, shard_index, result["seconds"]
                )
                self.profiler.add_block(
                    round_index, "route", result["seconds"]
                )
        counts = numpy.zeros(p, dtype=numpy.int64)
        for result in results:
            counts += result["counts"]
        return counts

    def _route_sharded(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> RoutedStep | None:
        from repro.backend import require_numpy

        numpy = require_numpy()
        num_rows = len(source)
        workers = self.context.workers
        chunk = -(-num_rows // workers)  # ceil division
        bounds = [
            (start, min(start + chunk, num_rows))
            for start in range(0, num_rows, chunk)
        ]
        handle = self.context.handle_for(source.columns)
        p = self.simulator.num_workers
        try:
            results = self.context.pool.route_shards(
                step, handle, bounds, p,
                detach=self.context.evicted_names(),
            )
        except PoolBroken:
            return None
        if self.profiler is not None:
            round_index = self.simulator.round_index
            for shard_index, result in enumerate(results):
                self.profiler.add_shard(
                    round_index, shard_index, result["seconds"]
                )
        return self._reassemble(numpy, source, bounds, results)

    @staticmethod
    def _reassemble(
        numpy: Any,
        source: ColumnarRelation,
        bounds: list[tuple[int, int]],
        results: list[dict],
    ) -> RoutedStep:
        """Concatenate shard triples into one serial-equivalent triple.

        Shard row indices are local to the shard's *kept* rows, so
        each shard's index array is offset by the cumulative kept-row
        count before it; a shard returning ``columns=None`` kept every
        row, letting the parent substitute its own zero-copy slice.
        """
        destinations = numpy.concatenate(
            [result["destinations"] for result in results]
        )
        filtered = any(result["columns"] is not None for result in results)
        if filtered:
            pieces = []
            for (start, end), result in zip(bounds, results):
                if result["columns"] is not None:
                    pieces.append(result["columns"])
                else:
                    pieces.append(
                        tuple(
                            column[start:end] for column in source.columns
                        )
                    )
            columns = tuple(
                numpy.concatenate([piece[i] for piece in pieces])
                for i in range(len(source.columns))
            )
        else:
            columns = source.columns

        if all(result["row_indices"] is None for result in results):
            row_indices = None
        else:
            offset = 0
            indexed = []
            for result in results:
                indices = result["row_indices"]
                if indices is None:
                    indices = numpy.arange(
                        result["kept"], dtype=numpy.int64
                    )
                indexed.append(indices + offset)
                offset += result["kept"]
            row_indices = numpy.concatenate(indexed)
        return RoutedStep(
            columns=columns,
            destinations=destinations,
            row_indices=row_indices,
        )
