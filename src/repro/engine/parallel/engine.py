"""The process pool that evaluates a streamed round's views.

In a streamed execution (``chunk_rows`` set) a round's views are
evaluated from re-routable delivery recipes, one bounded worker shard
at a time.  Given a :class:`ParallelContext`,
:func:`~repro.engine.executor.execute_plan` submits those shards to
the context's pool (:func:`~repro.engine.local.materialise_view_async`)
and routes the next round while they run; a view resolves only when a
step first reads it.  The recipes' source columns are published once
through the context's
:class:`~repro.engine.parallel.shm.SharedColumnStore` and each worker
evaluates against zero-copy views
(:func:`~repro.engine.parallel.pool.eval_shard_task`).

That overlap is the pool's only use, because it is the only one that
was measured to pay: routing is a few percent of a streamed read, and
on a 2-core host sharding routing or answer collection over the pool
never measurably beat running it inline (n from 2e4 to 1e6; README's
Parallel execution section has the table).  Routing, shipping,
delivery, eager views and answer collection all stay in the parent.  Parity holds by construction: a pool task runs
the in-process shard loop's own code on an immutable snapshot of the
recipes, and a task that fails is recomputed in-process from the same
snapshot.

The :class:`ParallelContext` owns the long-lived resources (segment
store, shard pool) and the ``pool_views`` counter.  A broken pool
(worker OOM-killed mid-round) flips the context into permanent
fallback: queries keep answering on one core rather than failing.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.engine.parallel.pool import ShardPool
from repro.engine.parallel.shm import SegmentHandle, SharedColumnStore

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
        workers: view-evaluation process count; must be >= 2 (one
            worker would just be the serial engine with IPC overhead).
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError(
                f"parallel execution needs workers >= 2, got {workers}"
            )
        self.workers = workers
        self.store = SharedColumnStore()
        self.pool = ShardPool(workers)
        #: Views whose answers came back from pool futures (an
        #: in-process recomputation after a pool failure does not count).
        self.pool_views = 0
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
