"""A mutating columnar database with explicit versioning.

The serving layer executes cached plans repeatedly over a database
that changes between requests.  Cache safety hinges on one question --
"is this the same data the cached artifact was computed from?" -- and
:class:`VersionedDatabase` answers it with a monotonically increasing
integer version: every :meth:`VersionedDatabase.apply_delta` installs
a fresh immutable :class:`~repro.data.columnar.ColumnarDatabase`
snapshot and bumps the version, so any cache entry stamped with an
older version is stale by construction.

Snapshots are immutable and shared: readers mid-request keep the
snapshot they started with; a concurrent update never mutates arrays
under them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy

from repro.data.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    DataError,
    absent_rows,
    locate_rows,
    sorted_unique_rows,
)

Rows = Iterable[Sequence[int]]


@dataclass(frozen=True)
class DatabaseDelta:
    """One update's worth of row-level changes.

    Edge semantics (pinned by ``tests/data/test_versioned.py``):

    - Deleting an absent row is a no-op -- deletion is idempotent,
      never an error (deleting from an *unknown relation* is an
      error, because the arity cannot be inferred).
    - Duplicate inserts collapse to one row, and inserting a row that
      already exists leaves the relation unchanged (relations are
      sets).
    - When the same row appears in both ``inserts`` and ``deletes``
      of one delta, the insert wins: deletes filter the old snapshot
      first, then inserts are added, so the row is present afterwards.
    - Nothing is coerced.  A value that is not an ``int`` or a numpy
      integer (a float, a string, a ``bool``), a row of the wrong
      arity -- inserted or deleted -- and an inserted value below 1
      are :class:`~repro.data.columnar.DataError`; a rejected delta
      commits nothing and leaves the version where it was.

    Attributes:
        inserts: relation name -> rows to add (new relation names are
            allowed; arity is inferred from the first row).
        deletes: relation name -> rows to remove (absent rows are
            ignored -- deletion is idempotent).
    """

    inserts: Mapping[str, tuple[tuple[int, ...], ...]] = field(
        default_factory=dict
    )
    deletes: Mapping[str, tuple[tuple[int, ...], ...]] = field(
        default_factory=dict
    )

    @classmethod
    def of(
        cls,
        inserts: Mapping[str, Rows] | None = None,
        deletes: Mapping[str, Rows] | None = None,
    ) -> "DatabaseDelta":
        """Normalise loose row iterables into an immutable delta."""
        return cls(
            inserts={
                name: tuple(tuple(row) for row in rows)
                for name, rows in (inserts or {}).items()
            },
            deletes={
                name: tuple(tuple(row) for row in rows)
                for name, rows in (deletes or {}).items()
            },
        )


@dataclass(frozen=True)
class DeltaRecord:
    """The *effective* change between two snapshot versions: one per
    :meth:`~VersionedDatabase.apply_delta`, or a span composed by
    :meth:`~VersionedDatabase.delta_between`.

    Unlike the raw :class:`DatabaseDelta`, a record holds only rows that
    changed membership: ``new = (old - removed) + added`` per relation,
    ``added`` disjoint from ``old`` and ``removed`` a subset of it.
    Incremental view maintenance routes these instead of relations.

    Attributes:
        old_version: version the change applies to.
        new_version: version it produced.
        added: relation name -> rows newly present.
        removed: relation name -> rows no longer present.
        bits_changed: True when per-tuple bit accounting moved -- a
            relation was created, a relation's domain grew, or the
            database-wide domain grew.  Consumers that patch load
            arithmetic must fall back to full recompute past such a
            record.
    """

    old_version: int
    new_version: int
    added: Mapping[str, frozenset[tuple[int, ...]]]
    removed: Mapping[str, frozenset[tuple[int, ...]]]
    bits_changed: bool

    @property
    def is_noop(self) -> bool:
        """True when no row changed membership (pure version bump)."""
        return not any(self.added.values()) and not any(
            self.removed.values()
        )


#: How many :class:`DeltaRecord` entries a database retains.  Bounded
#: so long-lived services cannot accumulate unbounded provenance; a
#: consumer asking across a trimmed gap simply gets ``None`` and falls
#: back to full recompute.
DELTA_HISTORY_LIMIT = 64


def _delta_table(rows_by_name, name: str, arity: int, kind: str):
    """``name``'s delta rows as a sorted unique int64 table.

    Nothing is coerced (the RPC's rule): every value is an ``int`` or a
    numpy integer, never a ``bool``, and every row has ``arity`` values.
    """
    rows = rows_by_name.get(name, ())
    for row in rows:
        if len(row) != arity:
            raise DataError(
                f"{name}: {kind} {tuple(row)} has arity {len(row)}, "
                f"expected {arity}"
            )
        if not all(
            type(value) is int or isinstance(value, numpy.integer)
            for value in row
        ):
            raise DataError(
                f"{name}: {kind} {tuple(row)} holds a non-integer value"
            )
    try:
        table = numpy.array(rows, dtype=numpy.int64)
    except OverflowError as error:
        raise DataError(f"{name}: {kind} value {error}") from None
    return sorted_unique_rows(table.reshape(len(rows), arity))


def _splice(column, gone_at, at, values):
    """``column`` less the rows at ``gone_at``, ``values`` inserted at
    ``at``; each pass runs only if it moves something."""
    if len(gone_at):
        column = numpy.delete(column, gone_at)
    if len(at):
        column = numpy.insert(column, at, values)
    return numpy.ascontiguousarray(column)


class VersionedDatabase:
    """A columnar database that mutates through numbered versions.

    Args:
        database: the initial contents -- a
            :class:`~repro.data.columnar.ColumnarDatabase`, or a
            mapping of name to
            :class:`~repro.data.columnar.ColumnarRelation` (each key
            its relation's name).  Every later snapshot (and every
            plan execution over it) reads the same arrays.

    Raises:
        DataError: when a key is not its relation's name, or a relation
            fails ``validate()`` (once, here: writes keep them valid).
    """

    def __init__(
        self,
        database: ColumnarDatabase | Mapping[str, ColumnarRelation],
    ) -> None:
        if isinstance(database, Mapping):
            relations = dict(database)
            domain = max(
                (r.domain_size for r in relations.values()), default=1
            )
        else:
            relations = dict(database.relations)
            domain = database.domain_size
        for relation in relations.values():
            relation.validate()
        self._snapshot = ColumnarDatabase(
            relations=relations, domain_size=domain
        )
        self._version = 0
        self._history: deque[DeltaRecord] = deque(
            maxlen=DELTA_HISTORY_LIMIT
        )

    # -- read side ----------------------------------------------------------

    @property
    def version(self) -> int:
        """The current version number (0 for the initial contents)."""
        return self._version

    @property
    def snapshot(self) -> ColumnarDatabase:
        """The current immutable snapshot (never mutated in place)."""
        return self._snapshot

    @property
    def domain_size(self) -> int:
        """The snapshot's domain bound ``n``."""
        return self._snapshot.domain_size

    @property
    def total_bits(self) -> int:
        """The snapshot's input size ``N`` in bits."""
        return self._snapshot.total_bits

    def __getitem__(self, name: str) -> ColumnarRelation:
        return self._snapshot[name]

    def __contains__(self, name: str) -> bool:
        return name in self._snapshot

    def __iter__(self) -> Iterator[ColumnarRelation]:
        return iter(self._snapshot)

    def __len__(self) -> int:
        return len(self._snapshot)

    # -- write side ---------------------------------------------------------

    def apply_delta(self, delta: DatabaseDelta) -> int:
        """Install a new snapshot with the delta applied; bump version.

        Each touched relation's delta rows become sorted unique int64
        tables; one ``searchsorted`` per side locates them in the stored
        table (:func:`~repro.data.columnar.locate_rows`), and the
        effective changes are spliced into each column -- the columns a
        full rebuild would produce, with no stored row becoming a tuple.
        The domain grows with inserted values (which moves per-tuple bit
        accounting).  An empty delta still bumps the version: the caller
        said "the data may have changed", and cache safety errs on
        invalidation.

        Returns:
            The new version number.

        Raises:
            DataError: on a rejection :class:`DatabaseDelta` lists;
                nothing is committed.
        """
        relations = dict(self._snapshot.relations)
        domain = self._snapshot.domain_size
        added: dict[str, frozenset[tuple[int, ...]]] = {}
        removed: dict[str, frozenset[tuple[int, ...]]] = {}
        bits_changed = False
        for name in dict.fromkeys([*delta.inserts, *delta.deletes]):
            existing = relations.get(name)
            if existing is None:
                first = next(iter(delta.inserts.get(name, ())), None)
                if first is None:
                    raise DataError(
                        f"{name}: cannot delete from an unknown relation"
                    )
                existing = ColumnarRelation(
                    name, len(first), ((),) * len(first), domain_size=1
                )
                bits_changed = True
            arity = existing.arity
            inserts = _delta_table(delta.inserts, name, arity, "tuple")
            # Insert wins: a row in both lists is kept.
            deletes = absent_rows(
                _delta_table(delta.deletes, name, arity, "delete row"), inserts
            )
            relation_domain = max(
                existing.domain_size, int(inserts.max(initial=1))
            )
            low = int(inserts.min(initial=1))
            if low < 1:
                raise DataError(
                    f"{name}: value {low} outside domain "
                    f"[1, {relation_domain}]"
                )
            bits_changed |= relation_domain != existing.domain_size
            domain = max(domain, relation_domain)
            stored = numpy.column_stack(existing.columns)
            at, present = locate_rows(stored, inserts)
            fresh, at = inserts[~present], at[~present]
            gone_at, present = locate_rows(stored, deletes)
            gone, gone_at = deletes[present], gone_at[present]
            # Insertion points index the stored table; shift each past
            # the removals before it.
            at = at - numpy.searchsorted(gone_at, at)
            relations[name] = replace(
                existing,
                columns=tuple(
                    _splice(column, gone_at, at, values)
                    for column, values in zip(existing.columns, fresh.T)
                ),
                domain_size=relation_domain,
            )
            if len(fresh):
                added[name] = frozenset(map(tuple, fresh.tolist()))
            if len(gone):
                removed[name] = frozenset(map(tuple, gone.tolist()))
        bits_changed |= domain != self._snapshot.domain_size
        self._snapshot = ColumnarDatabase(
            relations=relations, domain_size=domain
        )
        record = DeltaRecord(
            old_version=self._version,
            new_version=self._version + 1,
            added=added,
            removed=removed,
            bits_changed=bits_changed,
        )
        self._history.append(record)
        self._version += 1
        return self._version

    # -- provenance ---------------------------------------------------------

    @property
    def last_record(self) -> DeltaRecord | None:
        """The provenance record of the most recent delta, if any."""
        return self._history[-1] if self._history else None

    def delta_between(
        self, old_version: int, new_version: int
    ) -> DeltaRecord | None:
        """Net effective change from one version to a later one.

        Composes the retained per-version :class:`DeltaRecord` chain.
        Returns ``None`` when the span is not fully covered by history
        (too old, trimmed, or from a foreign version) -- callers must
        then treat the old version's derived state as unusable.
        """
        if old_version > new_version or new_version > self._version:
            return None
        records = [
            record
            for record in self._history
            if old_version < record.new_version <= new_version
        ]
        if len(records) != new_version - old_version:
            return None
        added: dict[str, frozenset[tuple[int, ...]]] = {}
        removed: dict[str, frozenset[tuple[int, ...]]] = {}
        for record in records:
            for name in {*record.added, *record.removed}:
                step_added = record.added.get(name, frozenset())
                step_removed = record.removed.get(name, frozenset())
                net_added = added.get(name, frozenset())
                net_removed = removed.get(name, frozenset())
                # Relative to the *old* snapshot: a row removed now
                # either undoes a prior add or is a genuine removal;
                # a row added now either undoes a prior removal or is
                # a genuine addition.
                added[name] = (net_added - step_removed) | (
                    step_added - net_removed
                )
                removed[name] = (
                    net_removed | (step_removed - net_added)
                ) - step_added
        return DeltaRecord(
            old_version=old_version,
            new_version=new_version,
            added=added,
            removed=removed,
            bits_changed=any(record.bits_changed for record in records),
        )

    def update(
        self,
        inserts: Mapping[str, Rows] | None = None,
        deletes: Mapping[str, Rows] | None = None,
    ) -> int:
        """Convenience wrapper: build the delta and apply it."""
        return self.apply_delta(DatabaseDelta.of(inserts, deletes))
