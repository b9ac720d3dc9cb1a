"""The process-parallel executor of the round engine's row ranges.

:class:`~repro.engine.executor.RoundEngine` routes every numpy step as
a list of ``[start, end)`` row ranges.  Given a
:class:`ParallelContext`, a shardable step over a large enough source
becomes one contiguous range per pool worker: the source's columns are
published once through the context's
:class:`~repro.engine.parallel.shm.SharedColumnStore`, each worker
runs the range's consumer against zero-copy views
(:func:`~repro.engine.parallel.pool.range_task`), and the parent joins
the results.  Ship, deliver and local evaluation stay in the parent,
so results reduce through the existing
:class:`~repro.mpc.simulator.ColumnPool`/segmented-join path
untouched.

Parity is the design invariant, not an aspiration:

* Only steps whose :attr:`~repro.engine.steps.RoutingStep.shardable`
  contract holds are split -- their routing decision depends on row
  content alone, so routing range ``i`` in isolation and concatenating
  (with row indices offset by the cumulative kept-row count of earlier
  ranges) reproduces the whole-source multiset of (row, destination)
  pairs; see :func:`~repro.engine.executor._reassemble`.
* Non-shardable steps (:class:`~repro.engine.steps.RoundRobinGrid`'s
  global row index, :class:`~repro.engine.steps.HeavyGridRoute`'s
  global signature grouping), the ``pure`` backend, and sources that
  are empty or below the ``min_rows`` threshold are the single range
  ``[0, n)``, run in-process -- one range is always correct, several
  are an optimisation.

The :class:`ParallelContext` owns the long-lived resources (segment
store, shard pool) and the ``parallel_rounds``/``fallback_rounds``
counters the serving layer surfaces.  A broken pool (worker OOM-killed
mid-round) flips the context into permanent fallback: queries keep
answering on one core rather than failing.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.engine.parallel.pool import ShardPool
from repro.engine.parallel.shm import SegmentHandle, SharedColumnStore

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
