"""Statement-level fan-out: a pool of executor processes, each
holding a full session over a shared-memory snapshot.

The in-engine shard pool (:mod:`repro.engine.parallel.engine`)
parallelises *inside* one query; this module parallelises *across*
queries -- the axis the RPC front end actually saturates, where many
concurrent clients issue independent statements.  Each
:class:`SessionWorkerPool` worker is a spawned process that attaches
the parent's column snapshot (zero-copy, read-only), rebuilds a
:class:`~repro.data.versioned.VersionedDatabase` at the parent's
version, and opens its own planner-backed
:class:`~repro.api.session.Session` with identical options -- so a
statement executed on any worker is bit-identical to the parent
executing it (same data, same seed, same deterministic planner).

One caveat inherited from the serving stack, not introduced here:
an isomorphic plan-cache hit rebinds an earlier sibling's plan, whose
hash family keys off *that* sibling's names -- same answers, but a
different (equally legal) per-server load split than a fresh compile.
Which sibling compiled first depends on request order in a
single-process server and on per-worker request order here; per-
statement results are always bit-identical to *a* single-process
session that saw the same statements in the same order.

Dispatch protocol (one duplex pipe per worker, parent side guarded by
an idle-worker queue):

* ``query`` -- execute one statement; replies with the pickled
  ``(ServiceResult, Explain)`` pair, or a structured error.
  :class:`~repro.mpc.simulator.CapacityExceeded` crosses the process
  boundary as a field dict (its ``__init__`` signature defeats
  default exception pickling) and is re-raised in the parent with the
  exact worker/bits/round payload.
* ``update`` -- apply one delta; the parent broadcasts updates to
  *every* worker behind a full barrier (all workers idle), so no
  query can ever observe a torn version.  Workers apply the delta
  first and the parent's version bump is the *last* step inside the
  barrier, so a statement that observes the new parent version can
  only ever reach workers already at that version (see
  :meth:`SessionWorkerPool.apply_delta`).  Updated relations become
  worker-local copies (copy-on-write against the shared snapshot).
* ``stats`` / ``close`` -- introspection and shutdown; ``close``
  replies with the worker's peak RSS so process-tree memory
  accounting (:data:`WORKER_PEAK_RSS`) can include executors that no
  longer exist.

A dead worker (kill -9, OOM) marks the pool broken; the owning
session falls back to in-process execution and the parent's segment
store still unlinks every shared segment -- crash-safety never
depends on children.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from typing import Any

from repro.engine.parallel.shm import (
    DatabaseExport,
    SharedColumnStore,
    export_snapshot,
)

#: Peak RSS (bytes) reported by fan-out workers as they closed, for
#: process-tree benchmark accounting after the processes are gone.
#: Drained by :func:`drain_worker_peaks`.
WORKER_PEAK_RSS: list[int] = []
_PEAK_LOCK = threading.Lock()


def drain_worker_peaks() -> list[int]:
    """Pop every recorded worker peak RSS (benchmark harness hook)."""
    with _PEAK_LOCK:
        peaks = list(WORKER_PEAK_RSS)
        WORKER_PEAK_RSS.clear()
    return peaks


class FanoutBroken(RuntimeError):
    """A fan-out worker died; the pool can no longer be used."""


def _worker_main(
    connection: Any, export: DatabaseExport, options: dict
) -> None:
    """One executor process: a session over the shared snapshot."""
    import os
    import resource

    from repro.api.session import Session, Statement
    from repro.data.versioned import VersionedDatabase
    from repro.engine.deadline import DeadlineExceeded
    from repro.engine.parallel.shm import attach_snapshot, detach_all
    from repro.mpc.simulator import CapacityExceeded
    from repro.engine.faults import worker_death_after

    death_after = worker_death_after()
    queries_handled = 0
    try:
        snapshot = attach_snapshot(export)
        database = VersionedDatabase(
            snapshot,
            backend=options.get("backend"),
            initial_version=export.version,
        )
        session = Session(database, **options)
    except Exception as error:  # noqa: BLE001 - reported, not raised
        connection.send(("failed", f"{type(error).__name__}: {error}"))
        connection.close()
        return
    connection.send(("ready", None))
    try:
        while True:
            try:
                op, payload = connection.recv()
            except EOFError:
                break
            if op == "query":
                queries_handled += 1
                if death_after is not None and queries_handled >= death_after:
                    # Injected fault: die hard (no reply, no cleanup),
                    # exactly like an OOM kill at the worst moment.
                    os._exit(1)
                try:
                    statement = Statement(
                        session=session,
                        query=payload["query"],
                        eps=payload["eps"],
                        algorithm=payload["algorithm"],
                        allow_partial=payload["allow_partial"],
                        deadline_ms=payload.get("deadline_ms"),
                    )
                    result = statement.execute()
                    connection.send(
                        ("result", (result.raw, result.explain))
                    )
                except DeadlineExceeded as error:
                    connection.send(
                        (
                            "deadline",
                            {
                                "where": error.where,
                                "elapsed_ms": error.elapsed_ms,
                                "budget_ms": error.budget_ms,
                            },
                        )
                    )
                except CapacityExceeded as error:
                    connection.send(
                        (
                            "capacity",
                            {
                                "worker": error.worker,
                                "received_bits": error.received_bits,
                                "capacity_bits": error.capacity_bits,
                                "round_index": error.round_index,
                            },
                        )
                    )
                except Exception as error:  # noqa: BLE001 - reported
                    connection.send(
                        ("error", (type(error).__name__, str(error)))
                    )
            elif op == "update":
                try:
                    version = session.apply_delta(payload)
                    connection.send(("version", version))
                except Exception as error:  # noqa: BLE001 - reported
                    connection.send(
                        ("error", (type(error).__name__, str(error)))
                    )
            elif op == "stats":
                connection.send(("stats", session.stats))
            elif op == "close":
                peak = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    * 1024
                )
                connection.send(("closed", peak))
                break
            else:
                connection.send(("error", ("ValueError", f"bad op {op!r}")))
    finally:
        detach_all()
        connection.close()


def _raise_worker_error(kind: str, value: Any) -> None:
    """Re-raise a worker-reported failure with its original type."""
    from repro.engine.deadline import DeadlineExceeded
    from repro.mpc.simulator import CapacityExceeded

    if kind == "capacity":
        raise CapacityExceeded(**value)
    if kind == "deadline":
        raise DeadlineExceeded(**value)
    name, message = value
    from repro.core.query import QueryError
    from repro.data.database import DataError

    by_name = {
        "QueryError": QueryError,
        "DataError": DataError,
        "ValueError": ValueError,
        "KeyError": KeyError,
    }
    raise by_name.get(name, RuntimeError)(message)


class SessionWorkerPool:
    """N executor processes, each a session over the shared snapshot.

    Thread-safe on the query path: any number of dispatcher threads
    may call :meth:`execute` concurrently (an idle-worker queue hands
    each call a private worker).  :meth:`apply_delta` and
    :meth:`close` must come from a single control thread -- the
    contract the RPC front end already keeps.

    Args:
        database: the parent's
            :class:`~repro.data.versioned.VersionedDatabase`; its
            current snapshot is exported to shared memory once.
        options: the parent session's constructor options, replayed
            verbatim in every worker (workers are always built with
            ``workers=1`` -- fan-out does not nest).
        workers: executor process count (>= 2).
        join_timeout: seconds to wait for each worker process at
            shutdown before terminating it; stragglers that had to be
            killed are counted in :attr:`killed_stragglers` rather
            than silently ignored.
    """

    def __init__(
        self,
        database: Any,
        options: dict,
        workers: int,
        join_timeout: float = 5.0,
    ) -> None:
        if workers < 2:
            raise ValueError(
                f"statement fan-out needs workers >= 2, got {workers}"
            )
        if join_timeout <= 0:
            raise ValueError(
                f"need join_timeout > 0, got {join_timeout}"
            )
        self.workers = workers
        self.join_timeout = float(join_timeout)
        self.broken = False
        self._closed = False
        self.queries = 0
        #: Workers that ignored the shutdown join and had to be killed.
        self.killed_stragglers = 0
        #: Guards ``queries``: N dispatcher threads bump it.
        self._stats_lock = threading.Lock()
        self._store = SharedColumnStore(prefix="reprofan")
        worker_options = dict(options)
        worker_options["workers"] = 1
        export = export_snapshot(
            database.snapshot, self._store, version=database.version
        )
        context = multiprocessing.get_context("spawn")
        self._processes: list[Any] = []
        self._connections: list[Any] = []
        try:
            for _ in range(workers):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child_end, export, worker_options),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self._processes.append(process)
                self._connections.append(parent_end)
            for connection in self._connections:
                kind, value = connection.recv()
                if kind != "ready":
                    raise FanoutBroken(f"worker failed to start: {value}")
        except Exception:
            self._teardown()
            raise
        self._idle: queue.Queue[int] = queue.Queue()
        for index in range(workers):
            self._idle.put(index)

    @property
    def usable(self) -> bool:
        """Whether queries can still be dispatched.

        A worker that died since the last check (kill -9, OOM) flips
        the pool broken here, so callers deciding *whether* to use the
        pool (the RPC server choosing its dispatch width, the session
        choosing fan-out vs local) see the death before paying a
        round-trip for it.  Liveness can still race -- a worker alive
        now may be dead at send time -- and that window is covered by
        the :class:`FanoutBroken` path in :meth:`execute`.
        """
        if self.broken or self._closed:
            return False
        if any(not process.is_alive() for process in self._processes):
            self.broken = True
            return False
        return True

    @property
    def alive_workers(self) -> int:
        """Worker processes currently alive (liveness gauge)."""
        return sum(
            1 for process in self._processes if process.is_alive()
        )

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Live shared-segment names (leak assertions in tests)."""
        return self._store.names

    # -- query path (any thread) --------------------------------------------

    def execute(
        self,
        query: Any,
        eps: Any,
        algorithm: str | None,
        allow_partial: bool,
        deadline_ms: float | None = None,
    ) -> tuple[Any, Any]:
        """Execute one statement on an idle worker.

        Returns the worker's ``(ServiceResult, Explain)`` pair.

        Raises:
            FanoutBroken: the worker died mid-request (the pool is
                marked broken; the caller should fall back to local
                execution).
            CapacityExceeded / QueryError / DataError: exactly what
                the statement would have raised locally.
        """
        if not self.usable:
            raise FanoutBroken("fan-out pool is broken or closed")
        index = self._idle.get()
        try:
            connection = self._connections[index]
            connection.send(
                (
                    "query",
                    {
                        "query": query,
                        "eps": eps,
                        "algorithm": algorithm,
                        "allow_partial": allow_partial,
                        "deadline_ms": deadline_ms,
                    },
                )
            )
            kind, value = connection.recv()
        except (EOFError, OSError, BrokenPipeError) as error:
            self.broken = True
            raise FanoutBroken(
                f"fan-out worker {index} died: {error}"
            ) from error
        finally:
            self._idle.put(index)
        with self._stats_lock:
            self.queries += 1
        if kind == "result":
            return value
        _raise_worker_error(kind, value)
        raise AssertionError("unreachable")

    # -- control path (single thread) ---------------------------------------

    def _acquire_all(self) -> list[int]:
        """Block until every worker is idle; claim them all."""
        return [self._idle.get() for _ in range(self.workers)]

    def _release_all(self, indices: list[int]) -> None:
        for index in indices:
            self._idle.put(index)

    def apply_delta(self, delta: Any, apply_parent: Any) -> int:
        """Broadcast one update to the workers, then publish the parent's.

        The barrier is the version contract: every worker is held
        idle, the delta goes to the *workers* first, and
        ``apply_parent`` -- a callable applying the same delta to the
        owning session's service and returning its new version -- runs
        *last*, still inside the barrier.  Any thread that reads the
        bumped parent version afterwards can therefore only reach
        workers already at that version; a query dispatched just
        before the bump may execute one version fresh (query and
        update were concurrent, so either serialization is legal), but
        a stale result can never be published under the new version.

        ``apply_parent`` is always invoked exactly once, even when
        workers die or diverge mid-broadcast -- the parent must never
        lose a delta.  Such failures mark the pool broken (``usable``
        -> False; the owning session falls back to in-process
        execution) instead of raising.  Returns the parent's new
        version.
        """
        if not self.usable:
            return apply_parent()
        indices = self._acquire_all()
        try:
            failure = None
            worker_versions: list[int] = []
            try:
                for index in indices:
                    self._connections[index].send(("update", delta))
                for index in indices:
                    kind, value = self._connections[index].recv()
                    if kind == "version":
                        worker_versions.append(value)
                    else:
                        failure = (
                            f"fan-out worker {index} failed update: "
                            f"{kind} {value!r}"
                        )
            except (EOFError, OSError, BrokenPipeError) as error:
                failure = f"fan-out worker died during update: {error}"
            version = apply_parent()
            if failure is None and any(
                worker != version for worker in worker_versions
            ):
                failure = (
                    f"fan-out workers diverged on update: "
                    f"{worker_versions!r} != parent version {version}"
                )
            if failure is not None:
                self.broken = True
            return version
        finally:
            self._release_all(indices)

    def worker_stats(self) -> list[Any]:
        """Each worker's ServiceStats (idle workers polled in turn)."""
        if not self.usable:
            return []
        stats = []
        indices = self._acquire_all()
        try:
            for index in indices:
                self._connections[index].send(("stats", None))
                kind, value = self._connections[index].recv()
                if kind == "stats":
                    stats.append(value)
        except (EOFError, OSError, BrokenPipeError):
            self.broken = True
        finally:
            self._release_all(indices)
        return stats

    def close(self) -> None:
        """Shut workers down, record their peak RSS, unlink segments.

        Idempotent; safe to call on a broken pool (dead workers are
        terminated rather than asked nicely).
        """
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(("close", None))
            except (OSError, BrokenPipeError):
                continue
        for connection in self._connections:
            try:
                if connection.poll(self.join_timeout):
                    kind, value = connection.recv()
                    if kind == "closed":
                        with _PEAK_LOCK:
                            WORKER_PEAK_RSS.append(int(value))
            except (EOFError, OSError, BrokenPipeError):
                pass
        self._teardown()

    def _teardown(self) -> None:
        for connection in self._connections:
            try:
                connection.close()
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=self.join_timeout)
            if process.is_alive():
                self.killed_stragglers += 1
                process.terminate()
                process.join(timeout=self.join_timeout)
        self._store.close()

    def __enter__(self) -> "SessionWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
