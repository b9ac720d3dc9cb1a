"""Columnar relation storage for the vectorized execution engine.

A :class:`ColumnarRelation` stores a relation as ``arity`` parallel
int64 value columns instead of a tuple of row tuples, so
deduplication, sorting and domain validation are single vectorized
passes.

The row-oriented :class:`repro.data.database.Relation` remains the
canonical public type; the two are convertible both ways and agree on
contents, ordering (lexicographic) and bit accounting::

    columnar = ColumnarRelation.from_relation(relation)
    assert columnar.to_relation() == relation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy

from repro.data.database import DataError, Relation, bits_per_value

Columns = tuple[Any, ...]


def check_backend(backend: str | None) -> None:
    """Validate a caller's legacy ``backend=`` keyword.

    numpy is the one execution engine; :func:`repro.connect` and
    :func:`~repro.data.generators.matching_database_columnar` still
    accept ``backend=None`` or ``"numpy"`` and ignore it.

    Raises:
        ValueError: for any other value, naming the row-at-a-time
            reference implementation that replaced the ``pure`` engine.
    """
    if backend not in (None, "numpy"):
        raise ValueError(
            f"unknown backend {backend!r}: numpy is the only engine; the "
            "row-at-a-time reference is repro.oracle (tests and benchmarks)"
        )


@dataclass(frozen=True)
class ColumnarRelation:
    """An immutable relation stored column-wise.

    Attributes:
        name: relation symbol.
        arity: number of columns.
        columns: one int64 array per attribute position (sequences
            are converted on construction).  Rows are deduplicated and
            lexicographically sorted, mirroring :class:`Relation`.
        domain_size: the ``n`` such that values lie in ``[1, n]``.
    """

    name: str
    arity: int
    columns: Columns
    domain_size: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise DataError(f"{self.name}: arity must be >= 1")
        if len(self.columns) != self.arity:
            raise DataError(
                f"{self.name}: {len(self.columns)} columns for arity "
                f"{self.arity}"
            )
        columns = tuple(
            numpy.asarray(column, dtype=numpy.int64)
            for column in self.columns
        )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise DataError(
                f"{self.name}: ragged columns with lengths "
                f"{sorted(lengths)}"
            )
        object.__setattr__(self, "columns", columns)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: Iterable[Sequence[int]],
        domain_size: int,
        arity: int | None = None,
    ) -> "ColumnarRelation":
        """Build from row tuples: dedup, sort, validate, columnarise."""
        materialised = [tuple(row) for row in rows]
        if arity is None:
            if not materialised:
                raise DataError(
                    f"{name}: cannot infer arity of an empty relation"
                )
            arity = len(materialised[0])
        for row in materialised:
            if len(row) != arity:
                raise DataError(
                    f"{name}: tuple {row} has arity {len(row)}, "
                    f"expected {arity}"
                )
        table = numpy.asarray(materialised, dtype=numpy.int64).reshape(
            len(materialised), arity
        )
        return cls(
            name=name,
            arity=arity,
            columns=_finalise(name, table, domain_size),
            domain_size=domain_size,
        )

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarRelation":
        """Columnarise an already-validated row relation (no re-checks)."""
        table = numpy.asarray(relation.tuples, dtype=numpy.int64).reshape(
            len(relation.tuples), relation.arity
        )
        return cls(
            name=relation.name,
            arity=relation.arity,
            columns=tuple(
                numpy.ascontiguousarray(table[:, position])
                for position in range(relation.arity)
            ),
            domain_size=relation.domain_size,
        )

    # -- conversion ---------------------------------------------------------

    def to_relation(self) -> Relation:
        """Materialise back to the row-oriented :class:`Relation`."""
        return Relation(
            name=self.name,
            arity=self.arity,
            tuples=tuple(self.rows()),
            domain_size=self.domain_size,
        )

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Iterate rows as int tuples (materialising from columns)."""
        lists = [column.tolist() for column in self.columns]
        return iter(zip(*lists)) if len(lists[0]) else iter(())

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns[0])

    def column(self, position: int) -> Any:
        """The value column at a 0-based attribute position."""
        return self.columns[position]

    @property
    def tuple_bits(self) -> int:
        """Bits per tuple: ``arity * ceil(log2 n)`` (as row relations)."""
        return self.arity * bits_per_value(self.domain_size)

    @property
    def size_bits(self) -> int:
        """Encoding size of the whole relation in bits."""
        return len(self) * self.tuple_bits


def _finalise(name: str, table: Any, domain_size: int) -> Columns:
    """Vectorized validate + dedup + lexicographic sort."""
    if table.size:
        low = int(table.min())
        high = int(table.max())
        if low < 1 or high > domain_size:
            offender = low if low < 1 else high
            raise DataError(
                f"{name}: value {offender} outside domain "
                f"[1, {domain_size}]"
            )
        table = numpy.unique(table, axis=0)
    return tuple(
        numpy.ascontiguousarray(table[:, position])
        for position in range(table.shape[1])
    )


def columnar_database(database: "Any") -> dict[str, ColumnarRelation]:
    """Columnarise every relation of a :class:`Database`.

    Accepts either a row-oriented :class:`~repro.data.database.Database`
    or a :class:`ColumnarDatabase` (whose relations are taken as they
    are -- the large-``n`` path never leaves column space).
    """
    if isinstance(database, ColumnarDatabase):
        return dict(database.relations)
    return {
        relation.name: ColumnarRelation.from_relation(relation)
        for relation in database
    }


@dataclass(frozen=True)
class ColumnarDatabase:
    """A database whose relations never existed as Python tuples.

    The columnar counterpart of :class:`~repro.data.database.Database`
    for the large-``n`` (10^5 - 10^6) generators and benchmarks: it
    exposes exactly the surface the executors consume (``total_bits``,
    ``domain_size``, per-relation lookup) without materialising row
    tuples anywhere.

    Attributes:
        relations: relation name -> :class:`ColumnarRelation`.
        domain_size: the shared domain bound ``n``.
    """

    relations: dict[str, ColumnarRelation]
    domain_size: int

    def __post_init__(self) -> None:
        for relation in self.relations.values():
            if relation.domain_size > self.domain_size:
                raise DataError(
                    f"{relation.name}: domain {relation.domain_size} "
                    f"exceeds database domain {self.domain_size}"
                )

    @classmethod
    def from_relations(
        cls, relations: Iterable[ColumnarRelation]
    ) -> "ColumnarDatabase":
        """Build from columnar relations (domain = the largest seen)."""
        by_name = {relation.name: relation for relation in relations}
        return cls(
            relations=by_name,
            domain_size=max(
                (r.domain_size for r in by_name.values()), default=1
            ),
        )

    def __getitem__(self, name: str) -> ColumnarRelation:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[ColumnarRelation]:
        return iter(self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    @property
    def total_bits(self) -> int:
        """Input size ``N`` in bits (drives the capacity bound)."""
        return sum(
            relation.size_bits for relation in self.relations.values()
        )

    def to_database(self) -> "Any":
        """Materialise to a row-oriented :class:`Database` (tests)."""
        from repro.data.database import Database

        return Database(
            relations={
                name: relation.to_relation()
                for name, relation in self.relations.items()
            },
            domain_size=self.domain_size,
        )
