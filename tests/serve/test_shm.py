"""Shared-memory snapshot transport of statement fan-out: lifecycle and
crash safety."""

from __future__ import annotations

import multiprocessing
import time

import numpy
import pytest

from repro.api.shm import (
    SegmentHandle,
    SharedColumnStore,
    attach_columns,
    attach_snapshot,
    detach_all,
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

    def test_close_unlinks_everything(self):
        store = SharedColumnStore()
        handles = [store.share(_columns(rows)) for rows in (10, 20, 30)]
        assert all(segment_exists(handle.name) for handle in handles)
        assert set(store.names) == {handle.name for handle in handles}
        store.close()
        assert not any(segment_exists(handle.name) for handle in handles)
        assert store.names == ()
        store.close()  # idempotent

    def test_empty_columns_round_trip(self):
        # An empty relation still gets a (one-byte) segment of its own.
        empty = (numpy.empty(0, dtype=numpy.int64),) * 2
        with SharedColumnStore() as store:
            handle = store.share(empty)
            assert handle.lengths == (0, 0)
            assert [len(view) for view in attach_columns(handle)] == [0, 0]
            detach_all()
        assert not segment_exists(handle.name)

    def test_each_segment_is_mapped_once_per_process(self):
        columns = _columns()
        with SharedColumnStore() as store:
            handle = store.share(columns)
            first = attach_columns(handle)
            second = attach_columns(handle)
            # Both attaches read the one mapping, not two of a segment.
            assert all(
                numpy.shares_memory(a, b) for a, b in zip(first, second)
            )
            detach_all()

    def test_attachments_live_until_detach_all(self):
        # No eviction: every attached snapshot stays readable for the
        # life of the process, however many segments it maps.
        with SharedColumnStore() as store:
            shared = [_columns(rows) for rows in range(1, 41)]
            views = [attach_columns(store.share(c)) for c in shared]
            for columns, attached in zip(shared, views):
                for view, column in zip(attached, columns):
                    assert numpy.array_equal(view, column)
            detach_all()


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

    def test_each_relation_is_shared_once(self, triangle):
        from repro.data.matching import matching_database
        from repro.data.versioned import VersionedDatabase

        database = VersionedDatabase(
            matching_database(triangle, n=30, rng=3)
        )
        store = SharedColumnStore()
        export = export_snapshot(database.snapshot, store)
        names = [spec.handle.name for spec in export.relations]
        assert sorted(names) == sorted(store.names)
        assert len(names) == len(database.snapshot.relations) == 3
        store.close()
        assert not any(segment_exists(name) for name in names)


def _attach_and_hang(name: str, lengths, ready) -> None:
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
