"""Shared-memory column segments: how statement fan-out hands its
worker processes one snapshot without copying it.

The parent copies each relation's int64 columns once into a
:class:`multiprocessing.shared_memory.SharedMemory` block and hands
each spawned worker a tiny picklable :class:`DatabaseExport`; the
worker :func:`attach_snapshot`\\ s it and gets read-only numpy views
directly over the shared pages.  The paper's servers "keep everything
they receive" -- here the analogue is that a snapshot's columns exist
once in physical memory no matter how many executor processes read
them.

Lifecycle rules (the crash-safety contract the tests pin):

* The **parent owns every segment**: it creates, registers and --
  exactly once -- unlinks it.  :class:`SharedColumnStore` tracks every
  segment it created and unlinks all of them on
  :meth:`SharedColumnStore.close`, on garbage collection and at
  interpreter exit (``atexit``), so a crashed or killed *child* never
  leaks ``/dev/shm`` space: the parent's cleanup does not depend on
  children behaving.
* Children only ever attach (and, at teardown, :func:`detach_all`);
  they never unlink.  Attaching keeps the block out of the child's
  ``resource_tracker`` so the tracker does not unlink (or warn about)
  a segment the parent still owns -- the double-unlink race that makes
  naive shared-memory pools flaky.
* Every attachment is a snapshot the worker reads for the rest of its
  life, so a mapping is never closed before :func:`detach_all`:
  closing a ``SharedMemory`` under live numpy views does not fail, it
  leaves them dangling.
* Segment names carry a creation nonce
  (``<prefix>_<pid>_<counter>_<nonce>``), so a recycled OS name can
  never alias a stale handle.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Iterable, Mapping

import numpy

#: int64 everywhere: the engine's only column dtype.
ITEMSIZE = 8


def _attach_untracked(name: str) -> Any:
    """Open an existing segment without resource-tracker registration.

    On Python 3.13+ ``SharedMemory(name=..., track=False)`` does this
    natively.  Before that, every attach registers the segment with
    the attaching process's resource tracker; spawn children share the
    parent's tracker, so attach-then-unregister would strip the
    *parent's* registration and the parent's eventual unlink would
    double unregister.  Ownership here is strictly parental, so
    attaches suppress registration by patching
    ``resource_tracker.register`` out for the duration of the attach.
    The patch is process-global, so it (and every ``SharedMemory``
    creation in this module) runs under :data:`_ATTACH_LOCK` -- a
    concurrent create in another thread must never land while
    registration is disabled, or its segment would silently escape the
    tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        pass
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class SegmentHandle:
    """A picklable reference to one shared column segment.

    Attributes:
        name: the OS-level shared-memory name.
        lengths: row count of each column, in order (columns are laid
            out back-to-back as int64).
    """

    name: str
    lengths: tuple[int, ...]


#: Process-local attached mappings: segment name -> SharedMemory.  Each
#: segment is mapped at most once per process, and the mapping lives
#: until :func:`detach_all` (numpy views over ``shm.buf`` do not keep
#: the SharedMemory object alive on their own).
_ATTACHED: dict[str, Any] = {}
_ATTACH_LOCK = threading.Lock()


def attach_columns(handle: SegmentHandle) -> tuple:
    """Zero-copy numpy views over a handle's columns (child side).

    Views are marked read-only: shared snapshots are immutable by
    contract, and an accidental in-place write in one process must not
    silently corrupt every other process's input.
    """
    shm = _ATTACHED.get(handle.name)
    if shm is None:
        shm = _attach_untracked(handle.name)
        _ATTACHED[handle.name] = shm
    views = []
    offset = 0
    for length in handle.lengths:
        view = numpy.ndarray(
            (length,), dtype=numpy.int64, buffer=shm.buf, offset=offset
        )
        view.flags.writeable = False
        views.append(view)
        offset += length * ITEMSIZE
    return tuple(views)


def detach_all() -> None:
    """Close every attached mapping (process teardown: the caller
    guarantees no view is read afterwards)."""
    mappings = list(_ATTACHED.values())
    _ATTACHED.clear()
    for shm in mappings:
        try:
            shm.close()
        except Exception:  # noqa: BLE001 - cleanup must never raise
            pass


class SharedColumnStore:
    """The parent-side registry of the shared column segments it made.

    Every created segment is tracked until the store closes; closing
    (or interpreter exit) unlinks everything, so segments never
    outlive the parent even when children crashed.
    """

    def __init__(self, prefix: str = "repro") -> None:
        self._prefix = prefix
        self._lock = threading.Lock()
        self._counter = 0
        #: name -> SharedMemory
        self._segments: dict[str, Any] = {}
        self._closed = False
        atexit.register(self.close)

    @property
    def names(self) -> tuple[str, ...]:
        """Names of every live segment (leak assertions)."""
        with self._lock:
            return tuple(self._segments)

    def share(self, columns: Iterable[Any]) -> SegmentHandle:
        """Copy ``columns`` into a new shared segment; returns its handle."""
        arrays = [
            numpy.ascontiguousarray(column, dtype=numpy.int64)
            for column in columns
        ]
        lengths = tuple(len(array) for array in arrays)
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedColumnStore is closed")
            self._counter += 1
            name = (
                f"{self._prefix}_{os.getpid()}_{self._counter}_"
                f"{secrets.token_hex(4)}"
            )
            # Under _ATTACH_LOCK: on pre-3.13 Pythons an attach in
            # another thread patches resource_tracker.register out, and
            # a create landing in that window would never be tracked.
            with _ATTACH_LOCK:
                shm = shared_memory.SharedMemory(
                    create=True,
                    name=name,
                    size=max(1, sum(lengths) * ITEMSIZE),
                )
            self._segments[name] = shm
        offset = 0
        for array, length in zip(arrays, lengths):
            numpy.ndarray(
                (length,), dtype=numpy.int64, buffer=shm.buf, offset=offset
            )[:] = array
            offset += length * ITEMSIZE
        return SegmentHandle(name=name, lengths=lengths)

    def close(self) -> None:
        """Unlink every live segment (idempotent; runs at exit too)."""
        atexit.unregister(self.close)  # closed stores must not pile up
        with self._lock:
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
        for shm in segments:
            for release in (shm.close, shm.unlink):
                try:
                    release()
                except Exception:  # noqa: BLE001 - already gone is fine
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()

    def __enter__(self) -> "SharedColumnStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- whole-snapshot export / attach -----------------------------------------


@dataclass(frozen=True)
class RelationExport:
    """One relation's shared transport form: its columns' segment."""

    name: str
    arity: int
    domain_size: int
    handle: SegmentHandle


@dataclass(frozen=True)
class DatabaseExport:
    """A whole snapshot's transport form plus version metadata."""

    relations: tuple[RelationExport, ...]
    domain_size: int
    version: int


def export_snapshot(
    snapshot: Any, store: SharedColumnStore, version: int = 0
) -> DatabaseExport:
    """Export a columnar snapshot's int64 columns through ``store``."""
    relations: Mapping[str, Any] = snapshot.relations
    return DatabaseExport(
        relations=tuple(
            RelationExport(
                name=name,
                arity=relation.arity,
                domain_size=relation.domain_size,
                handle=store.share(relation.columns),
            )
            for name, relation in relations.items()
        ),
        domain_size=snapshot.domain_size,
        version=version,
    )


def attach_snapshot(export: DatabaseExport) -> Any:
    """Rebuild a :class:`ColumnarDatabase` from an export (child side).

    Relations become zero-copy read-only views.  Invariants (dedup,
    sort) were established before export, so relations are constructed
    directly without re-finalising.
    """
    from repro.data.columnar import ColumnarDatabase, ColumnarRelation

    relations = {
        spec.name: ColumnarRelation(
            name=spec.name,
            arity=spec.arity,
            columns=attach_columns(spec.handle),
            domain_size=spec.domain_size,
        )
        for spec in export.relations
    }
    return ColumnarDatabase(
        relations=relations, domain_size=export.domain_size
    )


def segment_exists(name: str) -> bool:
    """Whether an OS segment with ``name`` still exists (leak tests)."""
    try:
        probe = _attach_untracked(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True
