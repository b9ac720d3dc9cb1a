"""Shared-memory column transport: lifecycle, refcounts, crash safety."""

from __future__ import annotations

import multiprocessing
import time

import numpy
import pytest

from repro.engine.parallel.shm import (
    _ATTACH_LIMIT,
    _ATTACHED,
    SharedColumnStore,
    attach_columns,
    attach_snapshot,
    detach_all,
    detach_names,
    export_snapshot,
    segment_exists,
)


def _columns(rows: int = 100, arity: int = 3) -> tuple:
    rng = numpy.random.default_rng(7)
    return tuple(
        rng.integers(1, 1000, size=rows, dtype=numpy.int64)
        for _ in range(arity)
    )


class TestSharedColumnStore:
    def test_share_attach_roundtrip(self):
        columns = _columns()
        with SharedColumnStore() as store:
            handle = store.share(columns)
            views = attach_columns(handle)
            assert len(views) == len(columns)
            for view, column in zip(views, columns):
                assert numpy.array_equal(view, column)
                # Zero-copy views of a shared snapshot are read-only.
                with pytest.raises(ValueError):
                    view[0] = 0
            detach_all()
        assert not segment_exists(handle.name)

    def test_identity_dedup_and_refcount(self):
        columns = _columns()
        store = SharedColumnStore()
        try:
            first = store.share(columns)
            second = store.share(columns)
            assert first.name == second.name
            store.release(first)
            assert segment_exists(first.name)  # one reference left
            store.release(second)
            assert not segment_exists(first.name)
        finally:
            store.close()

    def test_close_unlinks_everything(self):
        store = SharedColumnStore()
        handles = [store.share(_columns(rows)) for rows in (10, 20, 30)]
        assert all(segment_exists(handle.name) for handle in handles)
        store.close()
        assert not any(segment_exists(handle.name) for handle in handles)
        store.close()  # idempotent

    def test_release_of_unknown_handle_is_harmless(self):
        store = SharedColumnStore()
        handle = store.share(_columns())
        store.release(handle)
        store.release(handle)  # refcount already zero: no-op
        store.close()


class TestSnapshotExport:
    def test_export_attach_roundtrip(self, triangle):
        from repro.data.matching import matching_database
        from repro.data.versioned import VersionedDatabase

        database = VersionedDatabase(
            matching_database(triangle, n=30, rng=3)
        )
        with SharedColumnStore() as store:
            export = export_snapshot(
                database.snapshot, store, version=database.version
            )
            assert export.version == database.version
            rebuilt = attach_snapshot(export)
            for name, relation in database.snapshot.relations.items():
                assert sorted(rebuilt.relations[name].rows()) == sorted(
                    relation.rows()
                )
            detach_all()


class TestAttachmentCache:
    """The child-side mapping cache must stay bounded (review: a
    long-running worker churning per-query segments held every mmap --
    and the physical pages of already-unlinked segments -- forever)."""

    def test_cache_is_lru_bounded(self):
        detach_all()
        with SharedColumnStore() as store:
            for _ in range(_ATTACH_LIMIT + 8):
                attach_columns(store.share(_columns(rows=4)))
            assert len(_ATTACHED) <= _ATTACH_LIMIT
            detach_all()

    def test_detach_names_closes_targeted_mappings(self):
        detach_all()
        with SharedColumnStore() as store:
            handle = store.share(_columns(rows=4))
            attach_columns(handle)
            assert handle.name in _ATTACHED
            detach_names([handle.name, "repro_no_such_segment"])
            assert handle.name not in _ATTACHED

    def test_pinned_mappings_survive_detach_and_eviction(self):
        # A fan-out worker's snapshot views live for the process, so
        # their mappings are pinned: neither targeted detaches nor LRU
        # pressure may close the mmap under them.
        detach_all()
        with SharedColumnStore() as store:
            handle = store.share(_columns(rows=4))
            views = attach_columns(handle, pin=True)
            detach_names([handle.name])
            assert handle.name in _ATTACHED
            for _ in range(_ATTACH_LIMIT + 8):
                attach_columns(store.share(_columns(rows=4)))
            assert handle.name in _ATTACHED
            assert int(views[0][0]) >= 0  # still readable
            detach_all()  # teardown closes pinned mappings too
            assert handle.name not in _ATTACHED


def _attach_and_hang(name: str, lengths, ready) -> None:
    from repro.engine.parallel.shm import SegmentHandle, attach_columns

    attach_columns(SegmentHandle(name=name, lengths=tuple(lengths)))
    ready.set()
    time.sleep(60)


class TestCrashSafety:
    def test_killed_child_does_not_block_unlink(self):
        columns = _columns()
        store = SharedColumnStore()
        handle = store.share(columns)
        context = multiprocessing.get_context("spawn")
        ready = context.Event()
        child = context.Process(
            target=_attach_and_hang,
            args=(handle.name, handle.lengths, ready),
            daemon=True,
        )
        child.start()
        try:
            assert ready.wait(timeout=30), "child never attached"
            child.kill()
            child.join(timeout=30)
            assert not child.is_alive()
        finally:
            store.close()
        # The parent's close unlinked the segment even though a child
        # died while attached -- crash safety never depends on children.
        assert not segment_exists(handle.name)
