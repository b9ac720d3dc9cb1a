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
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.data.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    columnar_database,
)
from repro.data.database import Database, DataError

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

    @property
    def is_empty(self) -> bool:
        """True when the delta changes nothing."""
        return not any(self.inserts.values()) and not any(
            self.deletes.values()
        )


@dataclass(frozen=True)
class DeltaRecord:
    """The *effective* change one :meth:`~VersionedDatabase.apply_delta`
    made, as provenance between two adjacent snapshot versions.

    Unlike the raw :class:`DatabaseDelta` (whose inserts may already
    exist and whose deletes may be absent), a record stores only rows
    that actually changed membership, so ``new = (old - removed) +
    added`` holds exactly per relation.  Incremental view maintenance
    consumes these to route deltas instead of whole relations.

    Attributes:
        old_version: version the delta was applied to.
        new_version: version it produced (``old_version + 1``).
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


@dataclass(frozen=True)
class ComposedDelta:
    """Net effective change between two (not necessarily adjacent)
    versions, composed from consecutive :class:`DeltaRecord` entries.

    Satisfies ``snapshot(new) = (snapshot(old) - removed) + added``
    per relation, with ``added`` disjoint from ``snapshot(old)`` and
    ``removed`` a subset of it.
    """

    old_version: int
    new_version: int
    added: Mapping[str, frozenset[tuple[int, ...]]]
    removed: Mapping[str, frozenset[tuple[int, ...]]]
    bits_changed: bool

    @property
    def is_noop(self) -> bool:
        """True when the versions hold identical contents."""
        return not any(self.added.values()) and not any(
            self.removed.values()
        )

    def touched(self) -> frozenset[str]:
        """Relations whose contents differ between the versions."""
        return frozenset(
            name
            for name, rows in list(self.added.items())
            + list(self.removed.items())
            if rows
        )

    def change_count(self) -> int:
        """Total rows that changed membership, across relations."""
        return sum(len(rows) for rows in self.added.values()) + sum(
            len(rows) for rows in self.removed.values()
        )


class VersionedDatabase:
    """A columnar database that mutates through numbered versions.

    Args:
        database: the initial contents -- a row
            :class:`~repro.data.database.Database`, a
            :class:`~repro.data.columnar.ColumnarDatabase`, or a
            mapping of name to
            :class:`~repro.data.columnar.ColumnarRelation`.  Row
            relations are columnarised once here, so every later
            snapshot (and every plan execution over it) reads the same
            arrays.
        initial_version: version number of the initial contents.
            Defaults to 0; a parallel executor process reconstructing
            the parent's database mid-life passes the parent's current
            version so version-stamped results agree across processes.
    """

    def __init__(
        self,
        database: Database | ColumnarDatabase | Mapping[str, ColumnarRelation],
        initial_version: int = 0,
    ) -> None:
        if isinstance(database, Mapping):
            relations = dict(database)
        else:
            relations = columnar_database(database)
        domain = getattr(database, "domain_size", None)
        if domain is None:
            domain = max(
                (r.domain_size for r in relations.values()), default=1
            )
        self._snapshot = ColumnarDatabase(
            relations=relations, domain_size=domain
        )
        self._version = initial_version
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

        Inserts and deletes are applied per relation through the
        standard dedup/sort/validate constructor, so a snapshot always
        satisfies every :class:`ColumnarRelation` invariant.  The
        domain grows automatically when inserted values exceed it
        (which changes per-tuple bit accounting -- another reason the
        version must move).  An empty delta still bumps the version:
        the caller said "the data may have changed", and cache safety
        errs on invalidation.

        Returns:
            The new version number.

        Raises:
            DataError: on ragged insert arities or values below 1.
        """
        relations = dict(self._snapshot.relations)
        domain = self._snapshot.domain_size
        added: dict[str, frozenset[tuple[int, ...]]] = {}
        removed: dict[str, frozenset[tuple[int, ...]]] = {}
        bits_changed = False
        for name in set(delta.inserts) | set(delta.deletes):
            inserts = delta.inserts.get(name, ())
            deletes = {
                tuple(row) for row in delta.deletes.get(name, ())
            }
            existing = relations.get(name)
            if existing is None:
                if not inserts:
                    raise DataError(
                        f"{name}: cannot delete from an unknown relation"
                    )
                rows = []
                arity = len(inserts[0])
                bits_changed = True
            else:
                rows = list(existing.rows())
                arity = existing.arity
            old_rows = {tuple(row) for row in rows}
            insert_rows = {tuple(row) for row in inserts}
            rows = [tuple(row) for row in rows if tuple(row) not in deletes]
            rows.extend(tuple(row) for row in inserts)
            peak = max(
                (value for row in rows for value in row), default=1
            )
            domain = max(domain, peak)
            relation_domain = max(
                existing.domain_size if existing is not None else 1, peak
            )
            if (
                existing is not None
                and relation_domain != existing.domain_size
            ):
                bits_changed = True
            relations[name] = ColumnarRelation.from_rows(
                name,
                rows,
                domain_size=relation_domain,
                arity=arity,
            )
            effective_added = frozenset(insert_rows - old_rows)
            effective_removed = frozenset(
                row
                for row in deletes
                if row in old_rows and row not in insert_rows
            )
            if effective_added:
                added[name] = effective_added
            if effective_removed:
                removed[name] = effective_removed
        if domain != self._snapshot.domain_size:
            bits_changed = True
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
    ) -> ComposedDelta | None:
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
        added: dict[str, set[tuple[int, ...]]] = {}
        removed: dict[str, set[tuple[int, ...]]] = {}
        bits_changed = False
        for record in records:
            bits_changed = bits_changed or record.bits_changed
            for name in set(record.added) | set(record.removed):
                step_added = record.added.get(name, frozenset())
                step_removed = record.removed.get(name, frozenset())
                net_added = added.setdefault(name, set())
                net_removed = removed.setdefault(name, set())
                # Relative to the *old* snapshot: a row removed now
                # either undoes a prior add or is a genuine removal;
                # a row added now either undoes a prior removal or is
                # a genuine addition.
                next_added = (net_added - step_removed) | (
                    step_added - net_removed
                )
                next_removed = (
                    net_removed | (step_removed - net_added)
                ) - step_added
                added[name] = next_added
                removed[name] = next_removed
        return ComposedDelta(
            old_version=old_version,
            new_version=new_version,
            added={
                name: frozenset(rows) for name, rows in added.items()
            },
            removed={
                name: frozenset(rows) for name, rows in removed.items()
            },
            bits_changed=bits_changed,
        )

    def update(
        self,
        inserts: Mapping[str, Rows] | None = None,
        deletes: Mapping[str, Rows] | None = None,
    ) -> int:
        """Convenience wrapper: build the delta and apply it."""
        return self.apply_delta(DatabaseDelta.of(inserts, deletes))
