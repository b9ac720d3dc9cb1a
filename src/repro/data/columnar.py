"""Relations as int64 columns, with the paper's bit accounting.

A :class:`ColumnarRelation` stores a relation over ``[n] = {1, ...,
n}`` as ``arity`` parallel int64 value columns, so deduplication,
sorting and domain validation are single vectorized passes.  A
:class:`ColumnarDatabase` maps relation names to instances and knows
its total encoding size ``N`` in bits, which the MPC simulator uses to
enforce the per-round capacity ``O(N / p^{1-eps})``.

Bit accounting follows the paper's convention (Section 2.1): a tuple
over ``[n]`` of arity ``a`` costs ``a * ceil(log2 n)`` bits, so a
relation with ``n`` tuples costs ``Theta(n log n)`` bits and
``N = O(n log n)`` for a fixed vocabulary.

The dedup + sort is :func:`sorted_unique_rows`, the engine's one row
sort: it orders rows by packed int64 keys and returns exactly
``numpy.unique(table, axis=0)``; answer unions, the generators, the
local join's dedup passes and IVM's merge all canonicalise through it.
Database writes and IVM's merge probe and splice its output with
:func:`locate_rows` / :func:`insert_rows` / :func:`remove_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy

Columns = tuple[Any, ...]


class DataError(Exception):
    """Raised for malformed relations or databases."""


def bits_per_value(domain_size: int) -> int:
    """Bits to encode one value of ``[n]``: ``ceil(log2 n)`` (min 1)."""
    if domain_size < 1:
        raise DataError(f"domain size must be >= 1, got {domain_size}")
    return max(1, math.ceil(math.log2(domain_size))) if domain_size > 1 else 1


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
            lexicographically sorted: :meth:`from_rows` and
            :meth:`from_table` make them so, and the constructor takes
            columns that already are (the matching generators').
        domain_size: the ``n`` such that values lie in ``[1, n]``.
    """

    name: str
    arity: int
    columns: Columns
    domain_size: int
    #: (position, threshold) -> :meth:`frequent_values`; a write
    #: builds a new relation, so the memo never goes stale.
    _frequent: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
        return cls.from_table(name, table, domain_size)

    @classmethod
    def from_table(
        cls, name: str, table: Any, domain_size: int
    ) -> "ColumnarRelation":
        """Build from an int64 ``(rows, arity)`` table: validate the
        domain, then dedup and sort (:func:`sorted_unique_rows`)."""
        if table.size:
            _check_domain(name, table, domain_size)
            table = sorted_unique_rows(table)
        return cls(
            name=name,
            arity=table.shape[1],
            columns=tuple(
                numpy.ascontiguousarray(table[:, position])
                for position in range(table.shape[1])
            ),
            domain_size=domain_size,
        )

    def validate(self) -> None:
        """Raise :class:`DataError` unless every value is in ``[1,
        domain_size]`` and rows strictly increase lexicographically
        (sorted and distinct).  One vectorised pass per column."""
        if not len(self):
            return
        # ``greater[i]``: row i + 1 exceeds row i on the columns so far.
        greater = numpy.zeros(len(self) - 1, dtype=bool)
        for column in reversed(self.columns):
            _check_domain(self.name, column, self.domain_size)
            later, earlier = column[1:], column[:-1]
            greater = (later > earlier) | ((later == earlier) & greater)
        if not greater.all():
            at = int(numpy.argmin(greater)) + 1
            same = all(column[at] == column[at - 1] for column in self.columns)
            fault = "duplicate" if same else "unsorted"
            raise DataError(f"{self.name}: {fault} row at position {at}")

    # -- accessors ----------------------------------------------------------

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Iterate rows as int tuples (materialising from columns)."""
        lists = [column.tolist() for column in self.columns]
        return iter(zip(*lists)) if len(lists[0]) else iter(())

    def __len__(self) -> int:
        return len(self.columns[0])

    def column(self, position: int) -> Any:
        """The value column at a 0-based attribute position."""
        return self.columns[position]

    def frequent_values(
        self, position: int, threshold: int
    ) -> tuple[Any, Any]:
        """The values seen more than ``threshold`` (>= 1) times at
        ``position``, sorted, and their counts.

        Memoized per ``(position, threshold)``: an entry holds at most
        ``len(self) // threshold`` values, never the column's whole
        ``unique`` arrays.
        """
        key = position, threshold
        if key not in self._frequent:
            values, counts = numpy.unique(
                self.columns[position], return_counts=True
            )
            keep = counts > threshold
            self._frequent[key] = values[keep], counts[keep]
        return self._frequent[key]

    @property
    def tuple_bits(self) -> int:
        """Bits per tuple: ``arity * ceil(log2 n)``."""
        return self.arity * bits_per_value(self.domain_size)

    @property
    def size_bits(self) -> int:
        """Encoding size of the whole relation in bits."""
        return len(self) * self.tuple_bits

    def is_matching(self) -> bool:
        """True when every column is a permutation of ``[1, n]``.

        The paper's matching-database invariant (Section 2.5): exactly
        ``n`` tuples, and every attribute a key holding each value once.
        """
        if len(self) != self.domain_size:
            return False
        values = numpy.arange(1, self.domain_size + 1, dtype=numpy.int64)
        return all(
            numpy.array_equal(numpy.sort(column), values)
            for column in self.columns
        )


def _check_domain(name: str, values: Any, domain_size: int) -> None:
    low, high = int(values.min()), int(values.max())
    if low < 1 or high > domain_size:
        raise DataError(
            f"{name}: value {low if low < 1 else high} outside domain "
            f"[1, {domain_size}]"
        )


#: Every packed key's value span stays below this bound, so offset
#: values and mixed-radix sums fit a signed int64.
_KEY_SPAN = 1 << 63


def sorted_unique_rows(table: Any) -> Any:
    """The distinct rows of an int64 table, lexicographically sorted.

    Returns exactly ``numpy.unique(table, axis=0)`` -- the same rows in
    the same signed, column-by-column order, with the same dtype and
    shape -- without its comparison sort over structured void rows.
    Each column is offset by its minimum, and consecutive columns are
    packed mixed-radix into as few int64 keys as keep every key's span
    below ``2**63``; packing preserves lexicographic order.  A column
    whose own span reaches ``2**63`` is a raw key of its own, and a
    constant column is no key at all.  One ``argsort`` of the leading
    key orders the rows -- completely, unless several keys exist and
    two rows tie on the leading one, in which case one ``lexsort`` over
    all keys does -- and a row whose keys all equal its predecessor's
    is dropped.  Equal keys are equal rows, so the sort need not be
    stable: any order among them yields this result.  The result is a
    new C-contiguous array, never a view of ``table``.
    """
    num_rows = len(table)
    keys = []  # most significant first
    if num_rows > 1:
        key = None
        span = 1
        for position in range(table.shape[1]):
            # Per column: several times faster than min(axis=0).
            column = table[:, position]
            low = int(column.min())
            width = int(column.max()) - low + 1
            if width == 1:
                continue
            if key is not None and span * width >= _KEY_SPAN:
                keys.append(key)
                key, span = None, 1
            if width >= _KEY_SPAN:
                keys.append(column)
                continue
            offset = column - numpy.int64(low)
            key = offset if key is None else key * width + offset
            span *= width
        if key is not None:
            keys.append(key)
    if not keys:
        # At most one row, or every row equal (no column varies).
        return table[:1].copy()
    order = numpy.argsort(keys[0])
    ranked = keys[0][order]
    distinct = numpy.empty(num_rows, dtype=bool)
    distinct[0] = True
    numpy.not_equal(ranked[1:], ranked[:-1], out=distinct[1:])
    if len(keys) > 1 and not distinct.all():
        # Rows tie on the leading key: order them by every key.
        order = numpy.lexsort(keys[::-1])
        distinct[1:] = False
        for key in keys:
            ranked = key[order]
            distinct[1:] |= ranked[1:] != ranked[:-1]
    # ``take`` gathers whole rows several times faster than indexing.
    return numpy.take(table, order[distinct], axis=0)


def locate_rows(reference: Any, table: Any) -> tuple[Any, Any]:
    """Each row of ``table``'s insertion point in ``reference`` (a
    :func:`sorted_unique_rows` output of the same width), and whether
    ``reference`` holds it.

    Both tables are viewed as one int64 record per row; records compare
    field by field, signed -- the order ``sorted_unique_rows`` yields --
    so one ``searchsorted`` probes every row: O(k log n) for k rows.
    Whether a row is held is read off the int64 rows themselves, which
    compare faster than the records.
    """
    if not len(reference) or not len(table) or not table.shape[1]:
        # Rows of width 0 are all the one empty row.
        return (
            numpy.zeros(len(table), dtype=numpy.intp),
            numpy.full(len(table), len(reference) > 0),
        )
    fields = numpy.dtype(
        [(f"f{i}", numpy.int64) for i in range(table.shape[1])]
    )
    reference_v, table_v = (
        numpy.ascontiguousarray(rows).view(fields).reshape(len(rows))
        for rows in (reference, table)
    )
    positions = numpy.searchsorted(reference_v, table_v)
    last = len(reference) - 1
    held = reference[numpy.minimum(positions, last)] == table
    return positions, held.all(axis=1)


def absent_rows(table: Any, reference: Any) -> Any:
    """The rows of ``table`` that ``reference`` (see
    :func:`locate_rows`) lacks, in table order."""
    return table[~locate_rows(reference, table)[1]]


def insert_rows(reference: Any, tables: Iterable[Any]) -> tuple[Any, Any, Any]:
    """Splice every row of ``tables`` that ``reference`` (a
    :func:`sorted_unique_rows` output) lacks into it: their sorted
    union at an O(n) memmove, not an O(n log n) re-sort.  Returns that
    table (none new: ``reference``), the new rows, sorted unique, and
    their insertion points in ``reference`` as ``numpy.insert`` takes
    them."""
    rows = numpy.concatenate([reference[:0], *tables])
    if len(rows):
        rows = sorted_unique_rows(rows)
    positions, held = locate_rows(reference, rows)
    fresh, positions = rows[~held], positions[~held]
    if not len(fresh):
        return reference, fresh, positions
    return numpy.insert(reference, positions, fresh, axis=0), fresh, positions


def remove_rows(reference: Any, table: Any) -> tuple[Any, Any]:
    """Delete every row of ``table`` that ``reference`` (a
    :func:`sorted_unique_rows` output) holds from it, at an O(n)
    memmove; rows it lacks are ignored.  Returns that table
    (``reference`` itself when it holds none of them) and the removed
    rows' positions in ``reference``, as ``numpy.delete`` takes them."""
    positions, found = locate_rows(reference, table)
    positions = positions[found]
    if not len(positions):
        return reference, positions
    return numpy.delete(reference, positions, axis=0), positions


@dataclass(frozen=True)
class ColumnarDatabase:
    """A database instance: named columnar relations.

    It exposes exactly the surface the executors consume
    (``total_bits``, ``domain_size``, per-relation lookup) without
    materialising row tuples anywhere.  Each relation keeps its own
    domain; the database's is their bound.

    Attributes:
        relations: relation name -> :class:`ColumnarRelation`; every
            key must be its relation's ``name``.
        domain_size: the shared domain bound ``n``.
    """

    relations: dict[str, ColumnarRelation]
    domain_size: int

    def __post_init__(self) -> None:
        for name, relation in self.relations.items():
            if relation.name != name:
                raise DataError(
                    f"relation key {name!r} != relation name "
                    f"{relation.name!r}"
                )
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
