"""Relations and database instances with bit accounting (Section 2.1).

A :class:`Relation` is an immutable bag-free set of integer tuples over
domain ``[n] = {1, ..., n}``.  A :class:`Database` maps relation names
to instances and knows its total encoding size ``N`` in bits, which the
MPC simulator uses to enforce the per-round capacity
``O(N / p^{1-eps})``.

Bit accounting follows the paper's convention: a tuple over ``[n]`` of
arity ``a`` costs ``a * ceil(log2 n)`` bits, so a relation with ``n``
tuples costs ``Theta(n log n)`` bits and ``N = O(n log n)`` for a fixed
vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping


class DataError(Exception):
    """Raised for malformed relations or databases."""


def bits_per_value(domain_size: int) -> int:
    """Bits to encode one value of ``[n]``: ``ceil(log2 n)`` (min 1)."""
    if domain_size < 1:
        raise DataError(f"domain size must be >= 1, got {domain_size}")
    return max(1, math.ceil(math.log2(domain_size))) if domain_size > 1 else 1


@dataclass(frozen=True)
class Relation:
    """An immutable relation instance.

    Attributes:
        name: relation symbol.
        arity: number of columns.
        tuples: the rows, as a tuple of int-tuples (deduplicated,
            stored in sorted order for determinism).
        domain_size: the ``n`` such that values lie in ``[1, n]``.
    """

    name: str
    arity: int
    tuples: tuple[tuple[int, ...], ...]
    domain_size: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "tuples", tuple(sorted(set(map(tuple, self.tuples))))
        )
        for row in self.tuples:
            if len(row) != self.arity:
                raise DataError(
                    f"{self.name}: tuple {row} has arity {len(row)}, "
                    f"expected {self.arity}"
                )
            for value in row:
                if not 1 <= value <= self.domain_size:
                    raise DataError(
                        f"{self.name}: value {value} outside domain "
                        f"[1, {self.domain_size}]"
                    )

    @classmethod
    def from_tuples(
        cls,
        name: str,
        rows: Iterable[Iterable[int]],
        domain_size: int,
        arity: int | None = None,
    ) -> "Relation":
        """Build a relation, inferring arity from the first row."""
        materialised = tuple(tuple(row) for row in rows)
        if arity is None:
            if not materialised:
                raise DataError(
                    f"{name}: cannot infer arity of an empty relation"
                )
            arity = len(materialised[0])
        return cls(
            name=name,
            arity=arity,
            tuples=materialised,
            domain_size=domain_size,
        )

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.tuples)

    def __contains__(self, row: object) -> bool:
        return row in self._tuple_set

    @cached_property
    def _tuple_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.tuples)

    @property
    def size_bits(self) -> int:
        """Encoding size: ``len * arity * ceil(log2 n)`` bits."""
        return len(self.tuples) * self.tuple_bits

    @property
    def tuple_bits(self) -> int:
        """Bits per tuple: ``arity * ceil(log2 n)``."""
        return self.arity * bits_per_value(self.domain_size)

    def is_matching(self) -> bool:
        """True when every column is a permutation of ``[1, n]``.

        This is the paper's matching-database invariant (Section 2.5):
        exactly ``n`` tuples and every attribute a key containing each
        value once.
        """
        n = self.domain_size
        if len(self.tuples) != n:
            return False
        expected = set(range(1, n + 1))
        for column in range(self.arity):
            if {row[column] for row in self.tuples} != expected:
                return False
        return True

    def project(self, positions: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Project onto 0-based column positions (order preserved)."""
        selected = tuple(positions)
        return tuple(
            tuple(row[i] for i in selected) for row in self.tuples
        )

    def to_columnar(self):
        """This relation as a :class:`repro.data.columnar.ColumnarRelation`."""
        from repro.data.columnar import ColumnarRelation

        return ColumnarRelation.from_relation(self)


@dataclass(frozen=True)
class Database:
    """A database instance: named relations over a common domain.

    Attributes:
        relations: mapping from relation name to :class:`Relation`.
        domain_size: the common domain bound ``n``.
    """

    relations: dict[str, Relation] = field(default_factory=dict)
    domain_size: int = 1

    def __post_init__(self) -> None:
        for name, relation in self.relations.items():
            if relation.name != name:
                raise DataError(
                    f"relation key {name!r} != relation name "
                    f"{relation.name!r}"
                )
            if relation.domain_size != self.domain_size:
                raise DataError(
                    f"{name}: domain {relation.domain_size} != database "
                    f"domain {self.domain_size}"
                )

    @classmethod
    def from_relations(cls, relations: Iterable[Relation]) -> "Database":
        """Build a database; domain size is the max over relations."""
        materialised = list(relations)
        if not materialised:
            raise DataError("database needs at least one relation")
        domain = max(relation.domain_size for relation in materialised)
        rescaled = [
            Relation(
                name=relation.name,
                arity=relation.arity,
                tuples=relation.tuples,
                domain_size=domain,
            )
            for relation in materialised
        ]
        return cls(
            relations={relation.name: relation for relation in rescaled},
            domain_size=domain,
        )

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations.values())

    @property
    def total_bits(self) -> int:
        """``N``: the total input size in bits."""
        return sum(relation.size_bits for relation in self.relations.values())

    @property
    def total_tuples(self) -> int:
        """Total number of tuples across relations."""
        return sum(len(relation) for relation in self.relations.values())

    def is_matching_database(self) -> bool:
        """True when every relation is a matching (Section 2.5)."""
        return all(
            relation.is_matching() for relation in self.relations.values()
        )

    def restrict(self, names: Iterable[str]) -> "Database":
        """The sub-database containing only the named relations."""
        wanted = set(names)
        missing = wanted - set(self.relations)
        if missing:
            raise DataError(f"unknown relations: {sorted(missing)}")
        return Database(
            relations={
                name: relation
                for name, relation in self.relations.items()
                if name in wanted
            },
            domain_size=self.domain_size,
        )

    def to_columnar(self):
        """All relations columnarised: ``name -> ColumnarRelation``."""
        from repro.data.columnar import columnar_database

        return columnar_database(self)

    def with_relation(self, relation: Relation) -> "Database":
        """A copy with one relation added or replaced."""
        if relation.domain_size != self.domain_size:
            raise DataError(
                f"{relation.name}: domain {relation.domain_size} != "
                f"database domain {self.domain_size}"
            )
        updated = dict(self.relations)
        updated[relation.name] = relation
        return Database(relations=updated, domain_size=self.domain_size)


def as_mapping(database: Database) -> Mapping[str, tuple[tuple[int, ...], ...]]:
    """Plain ``name -> rows`` view used by the local join evaluator."""
    return {
        name: relation.tuples
        for name, relation in database.relations.items()
    }
