"""Shared-memory column segments: the zero-copy transport of the
process-parallel execution layer.

Routed int64 columns move between OS processes without serialisation:
the parent copies a relation's columns once into a
:class:`multiprocessing.shared_memory.SharedMemory` block and hands
child processes a tiny picklable :class:`SegmentHandle`; children
:func:`attach_columns` and get read-only numpy views directly over the
shared pages.  The paper's servers "keep everything they receive" --
here the analogue is that a snapshot's columns exist once in physical
memory no matter how many executor processes read them.

Lifecycle rules (the crash-safety contract the tests pin):

* The **parent owns every segment**: it creates, registers and --
  exactly once -- unlinks it.  :class:`SharedColumnStore` tracks every
  live segment and unlinks all of them on :meth:`SharedColumnStore.close`,
  on garbage collection and at interpreter exit (``atexit``), so a
  crashed or killed *child* never leaks ``/dev/shm`` space: the
  parent's cleanup does not depend on children behaving.
* Children only ever :meth:`~SegmentHandle` -> attach -> ``close()``;
  they never unlink.  Attaching unregisters the block from the child's
  ``resource_tracker`` so the tracker does not unlink (or warn about)
  a segment the parent still owns -- the double-unlink race that makes
  naive shared-memory pools flaky.
* Handles carry a creation nonce in the segment name
  (``repro_<pid>_<counter>_<nonce>``), so a recycled OS name can never
  alias a stale handle.

The store is also the **refcounted registry**: :meth:`SharedColumnStore.share`
returns an existing segment for the same column tuple (identity-based,
safe because engine sources are immutable), and :meth:`SharedColumnStore.release`
drops one reference, unlinking at zero.  ``__len__``/: attr:`names`
expose the live set for leak assertions.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy

try:  # pragma: no cover - platform guard (POSIX + Windows both have it)
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None

#: int64 everywhere: the engine's only column dtype.
ITEMSIZE = 8


class SharedMemoryUnavailable(RuntimeError):
    """Raised when the platform lacks ``multiprocessing.shared_memory``."""


def _require_shared_memory():
    if _shared_memory is None:  # pragma: no cover - exotic platforms
        raise SharedMemoryUnavailable(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    return _shared_memory


_TRACK_SUPPORTED: bool | None = None


def _supports_untracked_attach() -> bool:
    """Whether ``SharedMemory(track=False)`` exists (Python >= 3.13)."""
    global _TRACK_SUPPORTED
    if _TRACK_SUPPORTED is None:
        import inspect

        shared = _require_shared_memory()
        try:
            parameters = inspect.signature(shared.SharedMemory).parameters
            _TRACK_SUPPORTED = "track" in parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins
            _TRACK_SUPPORTED = False
    return _TRACK_SUPPORTED


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
    from multiprocessing import resource_tracker

    shared = _require_shared_memory()
    if _supports_untracked_attach():
        return shared.SharedMemory(name=name, track=False)
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared.SharedMemory(name=name)
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

    @property
    def num_columns(self) -> int:
        return len(self.lengths)

    @property
    def total_bytes(self) -> int:
        return sum(self.lengths) * ITEMSIZE


#: Process-local cache of attached mappings: segment name -> SharedMemory,
#: insertion-ordered least-recently-used first.  Each segment is mapped
#: at most once per process no matter how many tasks read it, and the
#: mapping outlives any individual view (numpy views over ``shm.buf``
#: do not keep the SharedMemory object alive on their own).  The cache
#: is bounded: a long-running shard worker churning distinct per-query
#: column tuples must not accumulate mappings -- and therefore physical
#: pages of segments the parent already unlinked -- for its whole
#: lifetime.
_ATTACHED: dict[str, Any] = {}
#: RLock: :func:`attach_columns` holds it while calling
#: :func:`_attach_untracked`, which takes it again around the
#: resource-tracker patch on pre-3.13 Pythons.
_ATTACH_LOCK = threading.RLock()

#: Mapping-cache bound; matches the parent-side segment cache so a
#: worker holds at most as many mappings as the parent keeps published.
_ATTACH_LIMIT = 32

#: Names whose mappings must never be closed by eviction or
#: :func:`detach_names`: closing a SharedMemory mapping does NOT fail
#: under live numpy views -- the views silently dangle and the next
#: read is a use-after-free -- so attachments whose views outlive a
#: single task (a fan-out worker's snapshot relations live for the
#: whole process) are pinned explicitly at attach time.
_PINNED: set[str] = set()


def _close_attachment(name: str) -> bool:
    """Close one cached mapping; caller holds :data:`_ATTACH_LOCK`.

    Pinned names are refused (their views are still live by contract).
    Returns True when actually closed.
    """
    if name in _PINNED:
        return False
    shm = _ATTACHED.pop(name, None)
    if shm is None:
        return False
    try:
        shm.close()
    except Exception:  # noqa: BLE001 - cleanup must never raise
        pass
    return True


def _evict_attachments(keep: str | None = None) -> None:
    """LRU-evict cached mappings over :data:`_ATTACH_LIMIT` (lock held)."""
    excess = len(_ATTACHED) - _ATTACH_LIMIT
    if excess <= 0:
        return
    for name in list(_ATTACHED):
        if excess <= 0:
            break
        if name == keep:
            continue
        if _close_attachment(name):
            excess -= 1


def attach_columns(handle: SegmentHandle, pin: bool = False) -> tuple:
    """Zero-copy numpy views over a handle's columns (child side).

    The underlying mapping is cached process-locally (one ``mmap`` per
    segment per process) in a bounded LRU and stays alive until
    evicted, :func:`detach_names` / :func:`detach_all`, or process
    exit.  Pass ``pin=True`` when the returned views outlive the
    current task (snapshot relations attached for a worker process's
    lifetime): pinned mappings are exempt from eviction and
    :func:`detach_names`, because closing a mapping under live views
    dangles them silently.  Unpinned callers must drop their views
    before the next task runs -- the shard-pool tasks do (results are
    pickled across the pipe, and the executor deletes its local
    reference before the next dispatch).

    Views are marked read-only: shared snapshots are immutable by
    contract, and an accidental in-place write in one process must not
    silently corrupt every other process's input.
    """
    with _ATTACH_LOCK:
        shm = _ATTACHED.pop(handle.name, None)
        if shm is None:
            shm = _attach_untracked(handle.name)
        _ATTACHED[handle.name] = shm  # (re)inserted most recently used
        if pin:
            _PINNED.add(handle.name)
        _evict_attachments(keep=handle.name)
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


def detach_names(names: Iterable[str]) -> None:
    """Close specific cached attachments (parent evicted the segments).

    The shard pool replays the parent's segment evictions here with
    the next task payload, so a worker's mmaps -- and the physical
    pages of already-unlinked segments -- go away promptly instead of
    waiting for LRU pressure.  Unknown names are ignored; pinned
    mappings are kept (see :func:`attach_columns`).
    """
    with _ATTACH_LOCK:
        for name in names:
            _close_attachment(name)


def detach_all() -> None:
    """Drop every cached attachment, pinned included (process teardown:
    the caller guarantees no view is read afterwards)."""
    with _ATTACH_LOCK:
        mappings = list(_ATTACHED.values())
        _ATTACHED.clear()
        _PINNED.clear()
    for shm in mappings:
        try:
            shm.close()
        except Exception:  # noqa: BLE001 - cleanup must never raise
            pass


class SharedColumnStore:
    """The parent-side registry of live shared column segments.

    Thread-safe (the RPC front end shares one store across its worker
    threads).  Every created segment is tracked until released or the
    store closes; closing (or interpreter exit) unlinks everything, so
    segments never outlive the parent even when children crashed
    mid-round.
    """

    def __init__(self, prefix: str = "repro") -> None:
        self._prefix = prefix
        self._lock = threading.Lock()
        self._counter = 0
        #: name -> (SharedMemory, handle, refcount)
        self._segments: dict[str, list] = {}
        #: id(columns tuple) -> (columns strong ref, segment name)
        self._by_identity: dict[int, tuple[Any, str]] = {}
        self._closed = False
        atexit.register(self.close)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def names(self) -> tuple[str, ...]:
        """Names of every live segment (leak assertions)."""
        with self._lock:
            return tuple(self._segments)

    # -- share / release ----------------------------------------------------

    def share(self, columns: Iterable[Any]) -> SegmentHandle:
        """Copy ``columns`` into shared memory; returns the handle.

        Passing the *same tuple object* again returns the existing
        segment with its refcount bumped (engine sources are immutable,
        so identity implies content equality); the store keeps a strong
        reference to the tuple so the identity key cannot be recycled
        while the segment lives.
        """
        shared = _require_shared_memory()
        columns = columns if isinstance(columns, tuple) else tuple(columns)
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedColumnStore is closed")
            known = self._by_identity.get(id(columns))
            if known is not None and known[0] is columns:
                entry = self._segments[known[1]]
                entry[2] += 1
                return entry[1]
            arrays = [
                numpy.ascontiguousarray(column, dtype=numpy.int64)
                for column in columns
            ]
            lengths = tuple(len(array) for array in arrays)
            total = max(1, sum(lengths) * ITEMSIZE)
            self._counter += 1
            name = (
                f"{self._prefix}_{os.getpid()}_{self._counter}_"
                f"{secrets.token_hex(4)}"
            )
            # Under _ATTACH_LOCK: on pre-3.13 Pythons an attach in
            # another thread patches resource_tracker.register out, and
            # a create landing in that window would never be tracked.
            with _ATTACH_LOCK:
                shm = shared.SharedMemory(create=True, name=name, size=total)
            offset = 0
            for array, length in zip(arrays, lengths):
                if not length:
                    continue
                destination = numpy.ndarray(
                    (length,),
                    dtype=numpy.int64,
                    buffer=shm.buf,
                    offset=offset,
                )
                destination[:] = array
                offset += length * ITEMSIZE
            handle = SegmentHandle(name=name, lengths=lengths)
            self._segments[name] = [shm, handle, 1]
            self._by_identity[id(columns)] = (columns, name)
            return handle

    def release(self, handle: SegmentHandle) -> bool:
        """Drop one reference; unlink at zero.  Returns True if unlinked."""
        with self._lock:
            entry = self._segments.get(handle.name)
            if entry is None:
                return False
            entry[2] -= 1
            if entry[2] > 0:
                return False
            del self._segments[handle.name]
            for key, (_, name) in list(self._by_identity.items()):
                if name == handle.name:
                    del self._by_identity[key]
            self._destroy(entry[0])
            return True

    @staticmethod
    def _destroy(shm: Any) -> None:
        try:
            shm.close()
        except Exception:  # noqa: BLE001 - cleanup must never raise
            pass
        try:
            shm.unlink()
        except Exception:  # noqa: BLE001 - already gone is fine
            pass

    def close(self) -> None:
        """Unlink every live segment (idempotent; runs at exit too)."""
        atexit.unregister(self.close)  # closed stores must not pile up
        with self._lock:
            if self._closed and not self._segments:
                return
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
            self._by_identity.clear()
        for entry in segments:
            self._destroy(entry[0])

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
        # Pinned: these views live inside the worker's relations for
        # the whole process, so eviction must never close the mapping
        # under them.
        spec.name: ColumnarRelation(
            name=spec.name,
            arity=spec.arity,
            columns=attach_columns(spec.handle, pin=True),
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
