"""The persistent spawn-based process pool evaluating streamed views.

One :class:`ShardPool` wraps a
:class:`concurrent.futures.ProcessPoolExecutor` built on the ``spawn``
start method -- fork would duplicate the parent's arbitrary state
(open sockets, numpy thread pools, a possibly multi-gigabyte heap)
into every worker; spawn gives each executor a clean interpreter that
reads its inputs exclusively through shared-memory segments.

Workers are long-lived: the first task pays the interpreter + import
cost, every later task reuses the warm process and its cached segment
attachments (:mod:`repro.engine.parallel.shm` maps each segment once
per process).  The one task, :func:`eval_shard_task`, evaluates a
worker range of one streamed view from its delivery recipes -- the
shared code the in-process shard loop runs -- while the parent routes
the next round.  A round's routing never runs here: the task re-routes
recipe blocks only to rebuild its shard's delivery pools.

A worker death (OOM kill, segfault) surfaces as
:class:`PoolBroken`; the pending view recomputes its shards
in-process and the owning
:class:`~repro.engine.parallel.engine.ParallelContext` never trusts
the pool again until rebuilt -- a crashed pool degrades to in-process
execution instead of failing the query.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Sequence

from repro.engine.parallel.shm import attach_columns, detach_names


class PoolBroken(RuntimeError):
    """The process pool lost a worker and cannot be trusted further."""


def eval_shard_task(
    query: Any,
    atom_specs: Sequence[tuple],
    lo: int,
    hi: int,
    p: int,
    detach: Sequence[str] = (),
) -> dict:
    """Evaluate workers ``[lo, hi)`` from streamed recipes (worker side).

    ``atom_specs`` holds, per query atom, the relation's streamed
    delivery recipes with their source columns replaced by shared
    segment handles: ``(name, ((step, handle, num_rows, chunk_rows,
    source_sorted), ...))``.  The task re-routes the recipes for the
    worker range, merges them into shard pools and runs the exact
    segmented join the in-process shard loop runs
    (:func:`repro.engine.local.evaluate_shard_pools` is shared code),
    so answers and per-worker counts are identical by construction.

    ``detach`` lists segment names the parent has released since --
    this worker drops any cached mappings of them before attaching, so
    unlinked segments stop pinning physical pages here (the bounded
    attachment cache in :mod:`repro.engine.parallel.shm` is the
    backstop for workers that receive no further tasks).
    """
    began = time.perf_counter()
    if detach:
        detach_names(detach)
    from repro.engine.local import evaluate_shard_pools
    from repro.engine.streaming import LazyContribution, materialize_shard

    pools = {}
    for name, contribs in atom_specs:
        if not contribs:
            pools[name] = None
            continue
        contributions = [
            LazyContribution(
                step=step,
                columns=attach_columns(handle),
                num_rows=num_rows,
                chunk_rows=chunk_rows,
                source_sorted=source_sorted,
            )
            for step, handle, num_rows, chunk_rows, source_sorted in contribs
        ]
        pools[name] = materialize_shard(contributions, lo, hi, p)
    answers, per_server = evaluate_shard_pools(query, pools, hi - lo)
    return {
        "answers": answers,
        "per_server": per_server,
        "seconds": time.perf_counter() - began,
    }


class ShardPool:
    """A lazily-started persistent pool of shard-task executors."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need workers >= 1, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self.broken = False

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            import multiprocessing

            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._executor

    def submit(self, task: Any, /, *args: Any) -> Any:
        """Submit one task; :class:`PoolBroken` if the pool is gone."""
        if self.broken:
            raise PoolBroken("shard pool previously lost a worker")
        try:
            return self._ensure().submit(task, *args)
        except BrokenProcessPool as error:
            self.broken = True
            self.close()
            raise PoolBroken(str(error)) from error

    def collect(self, futures: Sequence[Any]) -> list[Any]:
        """Resolve futures in order, converting a pool death.

        Raises:
            PoolBroken: a worker died; the pool is marked broken and
                shut down (callers fall back to in-process execution).
        """
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as error:
            self.broken = True
            self.close()
            raise PoolBroken(str(error)) from error

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
