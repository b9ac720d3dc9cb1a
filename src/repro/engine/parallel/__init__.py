"""Process-parallel execution: shared-memory columns and the shard pool.

Public surface:

* :class:`~repro.engine.parallel.shm.SharedColumnStore` /
  :func:`~repro.engine.parallel.shm.attach_columns` -- zero-copy int64
  column transport over ``multiprocessing.shared_memory``.
* :class:`~repro.engine.parallel.engine.ParallelContext` -- the pool
  and segment store on which a streamed round's views evaluate while
  the next round routes (pass a context to
  :func:`repro.engine.executor.execute_plan` via ``parallel=``).
  Routing always stays in the parent process.

The statement-level fan-out the RPC front end uses (one full session
per worker process over a shared snapshot) lives with its only caller,
in :mod:`repro.api.fanout`.
"""

from repro.engine.parallel.engine import ParallelContext
from repro.engine.parallel.pool import PoolBroken, ShardPool
from repro.engine.parallel.shm import (
    DatabaseExport,
    SegmentHandle,
    SharedColumnStore,
    SharedMemoryUnavailable,
    attach_columns,
    attach_snapshot,
    detach_all,
    export_snapshot,
    segment_exists,
)

__all__ = [
    "DatabaseExport",
    "ParallelContext",
    "PoolBroken",
    "SegmentHandle",
    "ShardPool",
    "SharedColumnStore",
    "SharedMemoryUnavailable",
    "attach_columns",
    "attach_snapshot",
    "detach_all",
    "export_snapshot",
    "segment_exists",
]

