"""The routing-step IR of the shared round engine.

One communication round of any algorithm in this repository is a list
of :class:`RoutingStep`s, each describing how the tuples of one source
relation (or materialised view) are scattered over the worker grid:

* :class:`HashRoute` -- the HyperCube discipline of Section 3.1: grid
  dimensions owned by the atom's variables are pinned by hashing,
  the remaining (free) dimensions are replicated in full.  With a
  one-dimensional grid this degenerates to the classical parallel
  hash join; the multi-round executor re-instantiates it per plan
  operator with content-based re-hashing of view tuples.
* :class:`HeavyGridRoute` -- :class:`HashRoute` plus the heavy-hitter
  escape hatch of Koutris-Suciu [17]: a heavy value on a dimension
  shared by exactly two atoms is routed over a ``g1 x g2`` cartesian
  sub-grid keyed by the tuple's residual attributes; heavy values
  without a two-atom role fall back to spreading across the whole
  dimension.  On inputs with no heavy hitters it routes bit-for-bit
  like :class:`HashRoute`.
* :class:`Broadcast` -- every tuple to every worker (the degenerate
  ``eps = 1`` regime).
* :class:`ToServer` -- every tuple to one fixed worker (the
  single-server strawman).
* :class:`RoundRobinGrid` -- the introduction's cartesian-grid
  tradeoff: tuples are dealt round-robin into one axis of a grid and
  replicated across the others (content-free routing by the row's
  index in its relation, which is why every block carries its offset).

Every step knows how to route one row at a time
(:meth:`RoutingStep.destinations`, the reference semantics
:mod:`repro.oracle` executes) and how to route a block of rows in one
vectorized pass (:meth:`RoutingStep.route_columns`, the engine).  The
two produce the same multiset of (row, destination) pairs, and so does
routing a relation block by block under any split, which is what makes
oracle parity of loads and answers a theorem rather than a hope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy

from repro.core.query import Atom
from repro.mpc.simulator import Endpoint
from repro.mpc.routing import (
    HashFamily,
    grid_weights,
    residual_key,
    residual_key_columns,
)

_NO_HEAVY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class GridSpec:
    """A server grid ``[p_1] x ... x [p_k]`` with named dimensions.

    Attributes:
        variables: the variable owning each dimension, in rank order.
        dimensions: the integer share ``p_i`` of each dimension.
        hashes: the hash family pinning dimensions (None for steps
            that never hash, e.g. :class:`RoundRobinGrid`).
    """

    variables: tuple[str, ...]
    dimensions: tuple[int, ...]
    hashes: HashFamily | None = None

    def __post_init__(self) -> None:
        if len(self.variables) != len(self.dimensions):
            raise ValueError(
                f"{len(self.variables)} variables for "
                f"{len(self.dimensions)} dimensions"
            )
        if any(size < 1 for size in self.dimensions):
            raise ValueError(f"shares must be >= 1, got {self.dimensions}")

    @classmethod
    def from_shares(
        cls,
        variable_order: Sequence[str],
        shares: Mapping[str, int],
        hashes: HashFamily | None = None,
    ) -> "GridSpec":
        """Build a grid from a variable order and a share mapping."""
        order = tuple(variable_order)
        return cls(
            variables=order,
            dimensions=tuple(shares[variable] for variable in order),
            hashes=hashes,
        )

    def share(self, variable: str) -> int:
        """The share of one named dimension."""
        return self.dimensions[self.variables.index(variable)]

    @property
    def weights(self) -> tuple[int, ...]:
        """Mixed-radix rank weight of each dimension."""
        return grid_weights(self.dimensions)


@dataclass(frozen=True, kw_only=True)
class RoutingStep:
    """Base: route relation ``relation`` into mailbox key ``destination``.

    Attributes:
        relation: source relation/view name (keys the engine's source
            mapping).
        destination: mailbox key delivered to (defaults to
            ``relation``; the multi-round executor namespaces it per
            plan operator so concurrent operators sharing a relation
            do not mix fragments).
        sender: explicit sending endpoint; None means the input server
            of ``relation`` (only legal in round 1).
    """

    relation: str
    destination: str | None = None
    sender: Endpoint | None = None

    @property
    def mailbox_key(self) -> str:
        """The key receivers file this step's tuples under."""
        return self.destination if self.destination is not None else self.relation

    @property
    def preserves_source_order(self) -> bool:
        """Whether rows staged for any one receiver keep source order.

        True when :meth:`route_columns` emits its (row, destination)
        pairs so that, restricted to one destination worker, row
        indices are non-decreasing -- the case for every step whose
        replication pattern is a ``repeat``/``tile`` over ascending
        row indices.  Since source relations are lexicographically
        sorted, a True flag means delivered worker fragments are
        pre-sorted, which lets the segmented local join skip its sort
        (:class:`~repro.mpc.simulator.ColumnPool.source_sorted`).

        Defaults to False -- the safe direction: a new step type that
        forgets to override merely loses the sort-free fast path,
        whereas a wrong True silently corrupts the segmented join.
        Steps whose emission is a repeat/tile over ascending indices
        (every shipped step except signature-grouped heavy-hitter
        routing) override this with True.
        """
        return False

    def destinations(self, row: Sequence[int], index: int, p: int) -> list[int]:
        """Worker ranks receiving ``row`` (the scalar reference path).

        Args:
            row: the tuple being routed.
            index: the row's 0-based position in its relation (only
                content-free steps look at it).
            p: total number of workers.
        """
        raise NotImplementedError

    def route_columns(self, columns: tuple, p: int, offset: int) -> tuple:
        """Batched routing of one row block (the numpy path).

        Args:
            columns: the block's source columns.
            p: total number of workers.
            offset: the block's first row index in its relation (only
                content-free steps look at it).  Routing any row range
                on its own yields that range's share of the whole
                relation's (row, destination) pairs.

        Returns:
            ``(columns, destinations, row_indices)`` -- a
            :class:`~repro.mpc.simulator.RoutedBlock`'s fields:
            possibly filtered source columns, a flat int64 destination
            array, and gather indices pairing each destination with
            its row.
        """
        raise NotImplementedError


def _repeated_variable_ok(atom: Atom, row: Sequence[int]) -> bool:
    """Rows violating intra-atom repeated-variable equality route nowhere."""
    first_position = atom.first_positions
    for position, variable in enumerate(atom.variables):
        if row[position] != row[first_position[variable]]:
            return False
    return True


def _filter_repeated_columns(atom: Atom, columns: tuple) -> tuple:
    """Drop rows violating repeated-variable equality (vectorized)."""
    first_position = atom.first_positions
    mask = None
    for position, variable in enumerate(atom.variables):
        first = first_position[variable]
        if first != position:
            equal = columns[position] == columns[first]
            mask = equal if mask is None else (mask & equal)
    if mask is not None:
        columns = tuple(column[mask] for column in columns)
    return columns


def _cross_offsets(offset_sets: Sequence[Any]) -> Any:
    """Cross-sum per-dimension rank-offset arrays into one flat array."""
    offsets = numpy.zeros(1, dtype=numpy.int64)
    for steps in offset_sets:
        if len(steps) == 1 and int(steps[0]) == 0:
            continue
        offsets = (offsets[:, None] + steps[None, :]).reshape(-1)
    return offsets


@dataclass(frozen=True, kw_only=True)
class HashRoute(RoutingStep):
    """HyperCube routing: hash pinned dimensions, replicate free ones.

    The atom's variables that own grid dimensions are pinned to hashed
    coordinates (repeated variables hash once, at their first
    position); grid dimensions not mentioned by the atom range over
    their full share.  Atom variables outside the grid are ignored --
    that is how a one-dimensional grid over a single shared variable
    expresses the classical parallel hash join.

    ``filter_contradictions`` controls the repeated-variable
    short-circuit: HyperCube proper drops rows violating intra-atom
    equality before hashing (they can never join), while baselines
    that model "route every tuple" semantics (the classical hash
    join) set it False to preserve their exact shipping statistics.
    """

    grid: GridSpec
    atom: Atom
    filter_contradictions: bool = True

    @property
    def preserves_source_order(self) -> bool:
        """Replication is a repeat of ascending row indices."""
        return True

    def _pinned(self) -> dict[str, int]:
        """variable -> first column position, grid dimensions only."""
        return {
            variable: position
            for variable, position in self.atom.first_positions.items()
            if variable in self.grid.variables
        }

    def destinations(self, row: Sequence[int], index: int, p: int) -> list[int]:
        if self.filter_contradictions and not _repeated_variable_ok(
            self.atom, row
        ):
            return []
        grid = self.grid
        hashes = grid.hashes
        assert hashes is not None
        pinned = self._pinned()
        axes = []
        for variable, share in zip(grid.variables, grid.dimensions):
            if variable in pinned:
                axes.append(
                    (hashes.hash_value(variable, row[pinned[variable]], share),)
                )
            else:
                axes.append(tuple(range(share)))
        return _expand_axes(axes, grid.dimensions)

    def route_columns(self, columns: tuple, p: int, offset: int) -> tuple:
        grid = self.grid
        hashes = grid.hashes
        assert hashes is not None
        if self.filter_contradictions:
            columns = _filter_repeated_columns(self.atom, columns)
        num_rows = len(columns[0]) if columns else 0
        pinned = self._pinned()
        weights = grid.weights

        coordinate_columns = [
            hashes.hash_column(variable, columns[pinned[variable]], share)
            if variable in pinned
            else numpy.zeros(num_rows, dtype=numpy.int64)
            for variable, share in zip(grid.variables, grid.dimensions)
        ]
        base = numpy.zeros(num_rows, dtype=numpy.int64)
        for column, weight in zip(coordinate_columns, weights):
            base += column * weight

        offsets = _cross_offsets(
            [
                numpy.arange(share, dtype=numpy.int64) * weight
                if variable not in pinned
                else numpy.zeros(1, dtype=numpy.int64)
                for variable, share, weight in zip(
                    grid.variables, grid.dimensions, weights
                )
            ]
        )
        replication = len(offsets)
        destinations = (base[:, None] + offsets[None, :]).reshape(-1)
        row_indices = numpy.repeat(
            numpy.arange(num_rows, dtype=numpy.int64), replication
        )
        return columns, destinations, row_indices


def _expand_axes(
    axes: Sequence[tuple[int, ...]], dimensions: Sequence[int]
) -> list[int]:
    """All grid ranks in the cross product of per-dimension axis sets."""
    ranks = [0]
    weights = grid_weights(dimensions)
    for axis, weight in zip(axes, weights):
        ranks = [rank + coordinate * weight for rank in ranks for coordinate in axis]
    return ranks


def grid_factors(share: int) -> tuple[int, int]:
    """Factor a share into ``g1 x g2`` with ``g1 = isqrt(share)``."""
    g1 = max(1, math.isqrt(share))
    g2 = max(1, share // g1)
    return g1, g2


@dataclass(frozen=True, kw_only=True)
class HeavyGridRoute(RoutingStep):
    """HashRoute plus heavy-hitter cartesian splitting (after [17]).

    Attributes:
        grid: the full query grid.
        atom: the routed atom.
        heavy: per variable, the values declared heavy by round-1
            statistics.
        roles: per variable, atom -> grid role (0 = rows of the
            ``g1 x g2`` sub-grid, 1 = columns); None means no two-atom
            cartesian structure exists and heavy values spread across
            the whole dimension.
    """

    grid: GridSpec
    atom: Atom
    heavy: Mapping[str, frozenset[int]] = field(default_factory=dict)
    roles: Mapping[str, Mapping[str, int] | None] = field(default_factory=dict)

    # preserves_source_order stays False (the base default):
    # signature-grouped routing interleaves heavy/light rows.

    def _residual_positions(self, variable: str) -> tuple[int, ...]:
        """First positions of the atom's other distinct variables."""
        return tuple(
            position
            for other, position in self.atom.first_positions.items()
            if other != variable
        )

    def _heavy_axis(
        self, variable: str, share: int, row: Sequence[int]
    ) -> tuple[int, ...]:
        """The coordinate set of one heavy value on its dimension."""
        hashes = self.grid.hashes
        assert hashes is not None
        variable_roles = self.roles.get(variable)
        if variable_roles is None or self.atom.name not in variable_roles:
            return tuple(range(share))
        g1, g2 = grid_factors(share)
        role = variable_roles[self.atom.name]
        key = residual_key(
            [row[position] for position in self._residual_positions(variable)]
        )
        coordinate = hashes.hash_value(
            f"{variable}/residual", key, g1 if role == 0 else g2
        )
        if role == 0:
            return tuple(coordinate * g2 + column for column in range(g2))
        return tuple(row_index * g2 + coordinate for row_index in range(g1))

    def destinations(self, row: Sequence[int], index: int, p: int) -> list[int]:
        if not _repeated_variable_ok(self.atom, row):
            return []
        grid = self.grid
        hashes = grid.hashes
        assert hashes is not None
        first_position = self.atom.first_positions
        axes = []
        for variable, share in zip(grid.variables, grid.dimensions):
            position = first_position.get(variable)
            if position is None:
                axes.append(tuple(range(share)))
                continue
            value = row[position]
            if value in self.heavy.get(variable, _NO_HEAVY):
                axes.append(self._heavy_axis(variable, share, row))
            else:
                axes.append((hashes.hash_value(variable, value, share),))
        return _expand_axes(axes, grid.dimensions)

    def route_columns(self, columns: tuple, p: int, offset: int) -> tuple:
        grid = self.grid
        hashes = grid.hashes
        assert hashes is not None
        columns = _filter_repeated_columns(self.atom, columns)
        num_rows = len(columns[0]) if columns else 0
        first_position = self.atom.first_positions
        weights = grid.weights

        # Per grid dimension: a per-row base coordinate plus, per row
        # *category* (light vs heavy), a constant rank-offset set.  A
        # row's destination list is then base-rank + cross-sum of its
        # categories' offset sets, which lets rows be routed in
        # signature groups with one repeat/tile expansion per group.
        base = numpy.zeros(num_rows, dtype=numpy.int64)
        signature = numpy.zeros(num_rows, dtype=numpy.int64)
        light_offsets: list[Any] = []
        heavy_offsets: list[Any] = []
        heavy_bit: list[int] = []  # bit index per dimension, -1 = never heavy
        zero = numpy.zeros(1, dtype=numpy.int64)
        bits_used = 0
        for variable, share, weight in zip(
            grid.variables, grid.dimensions, weights
        ):
            position = first_position.get(variable)
            if position is None:
                # Free dimension: replicate (same for every row).
                light_offsets.append(
                    numpy.arange(share, dtype=numpy.int64) * weight
                )
                heavy_offsets.append(None)
                heavy_bit.append(-1)
                continue
            values = columns[position]
            heavy_values = self.heavy.get(variable, _NO_HEAVY)
            if heavy_values:
                heavy_mask = numpy.isin(
                    values,
                    numpy.asarray(sorted(heavy_values), dtype=numpy.int64),
                )
            else:
                heavy_mask = numpy.zeros(num_rows, dtype=bool)
            light_mask = ~heavy_mask
            coordinates = numpy.zeros(num_rows, dtype=numpy.int64)
            if light_mask.any():
                coordinates[light_mask] = hashes.hash_column(
                    variable, values[light_mask], share
                )
            light_offsets.append(zero)
            if not heavy_mask.any():
                heavy_offsets.append(None)
                heavy_bit.append(-1)
                base += coordinates * weight
                continue
            variable_roles = self.roles.get(variable)
            if variable_roles is None or self.atom.name not in variable_roles:
                heavy_offsets.append(
                    numpy.arange(share, dtype=numpy.int64) * weight
                )
            else:
                g1, g2 = grid_factors(share)
                role = variable_roles[self.atom.name]
                residual_columns = [
                    columns[p_][heavy_mask]
                    for p_ in self._residual_positions(variable)
                ]
                keys = residual_key_columns(
                    residual_columns, int(heavy_mask.sum())
                )
                coordinate = hashes.hash_column(
                    f"{variable}/residual", keys, g1 if role == 0 else g2
                )
                if role == 0:
                    coordinates[heavy_mask] = coordinate * g2
                    heavy_offsets.append(
                        numpy.arange(g2, dtype=numpy.int64) * weight
                    )
                else:
                    coordinates[heavy_mask] = coordinate
                    heavy_offsets.append(
                        numpy.arange(g1, dtype=numpy.int64) * g2 * weight
                    )
            signature |= heavy_mask.astype(numpy.int64) << bits_used
            heavy_bit.append(bits_used)
            bits_used += 1
            base += coordinates * weight

        destination_parts: list[Any] = []
        index_parts: list[Any] = []
        row_numbers = numpy.arange(num_rows, dtype=numpy.int64)
        for group_signature in numpy.unique(signature).tolist() if num_rows else []:
            group = row_numbers[signature == group_signature]
            offsets = _cross_offsets(
                [
                    heavy if bit >= 0 and (group_signature >> bit) & 1 else light
                    for light, heavy, bit in zip(
                        light_offsets, heavy_offsets, heavy_bit
                    )
                ]
            )
            replication = len(offsets)
            destination_parts.append(
                (base[group][:, None] + offsets[None, :]).reshape(-1)
            )
            index_parts.append(numpy.repeat(group, replication))
        if destination_parts:
            destinations = numpy.concatenate(destination_parts)
            row_indices = numpy.concatenate(index_parts)
        else:
            destinations = numpy.zeros(0, dtype=numpy.int64)
            row_indices = numpy.zeros(0, dtype=numpy.int64)
        return columns, destinations, row_indices


@dataclass(frozen=True, kw_only=True)
class RemapRanks(RoutingStep):
    """Route with an inner step, then remap (or drop) its ranks.

    The inner step addresses a *virtual* grid; ``mapping`` sends each
    virtual rank to a real worker, and virtual ranks missing from the
    mapping are dropped.  This is how the below-threshold algorithm of
    Proposition 3.11 subsamples ``p`` of ``P > p`` grid points, and
    the natural seam for sharded deployments (virtual ranks as
    shards).

    Attributes:
        inner: the step producing virtual ranks (its ``relation`` must
            match this step's).
        mapping: virtual rank -> real worker; missing ranks drop.
        virtual_size: number of virtual grid points (bounds the ranks
            the inner step may produce).
    """

    inner: RoutingStep
    mapping: Mapping[int, int]
    virtual_size: int

    @property
    def preserves_source_order(self) -> bool:
        """Order survives when no two virtual ranks share a worker.

        Rank filtering keeps the inner step's emission order, and with
        an injective mapping each real worker drains exactly one
        virtual rank's (already ordered) stream.  A non-injective
        mapping could interleave two streams, so report False there.
        """
        if not self.inner.preserves_source_order:
            return False
        targets = list(self.mapping.values())
        return len(targets) == len(set(targets))

    def destinations(self, row: Sequence[int], index: int, p: int) -> list[int]:
        mapping = self.mapping
        return [
            mapping[virtual]
            for virtual in self.inner.destinations(row, index, self.virtual_size)
            if virtual in mapping
        ]

    def route_columns(self, columns: tuple, p: int, offset: int) -> tuple:
        columns, virtual, row_indices = self.inner.route_columns(
            columns, self.virtual_size, offset
        )
        lookup = numpy.full(self.virtual_size, -1, dtype=numpy.int64)
        for rank, worker in self.mapping.items():
            lookup[rank] = worker
        destinations = lookup[virtual]
        keep = destinations >= 0
        if row_indices is None:
            row_indices = numpy.arange(
                len(columns[0]) if columns else 0, dtype=numpy.int64
            )
        return columns, destinations[keep], row_indices[keep]


@dataclass(frozen=True, kw_only=True)
class Broadcast(RoutingStep):
    """Every row to every worker (replication rate exactly ``p``)."""

    @property
    def preserves_source_order(self) -> bool:
        """Each worker's block is one ascending ``arange`` tile."""
        return True

    def destinations(self, row: Sequence[int], index: int, p: int) -> list[int]:
        return list(range(p))

    def route_columns(self, columns: tuple, p: int, offset: int) -> tuple:
        num_rows = len(columns[0]) if columns else 0
        destinations = numpy.repeat(
            numpy.arange(p, dtype=numpy.int64), num_rows
        )
        row_indices = numpy.tile(
            numpy.arange(num_rows, dtype=numpy.int64), p
        )
        return columns, destinations, row_indices


@dataclass(frozen=True, kw_only=True)
class ToServer(RoutingStep):
    """Every row to one fixed worker."""

    worker: int = 0

    @property
    def preserves_source_order(self) -> bool:
        """Rows ship in source order to a single worker."""
        return True

    def destinations(self, row: Sequence[int], index: int, p: int) -> list[int]:
        return [self.worker]

    def route_columns(self, columns: tuple, p: int, offset: int) -> tuple:
        num_rows = len(columns[0]) if columns else 0
        destinations = numpy.full(num_rows, self.worker, dtype=numpy.int64)
        return columns, destinations, None


@dataclass(frozen=True, kw_only=True)
class RoundRobinGrid(RoutingStep):
    """Deal rows round-robin into one grid axis, replicate the rest.

    Row ``i`` pins its coordinate on dimension ``axis`` to
    ``i % p_axis`` and is replicated over every other dimension -- the
    cartesian-product grid of the introduction's drug-interaction
    example (``axis = 0`` for the left operand, ``1`` for the right).
    """

    grid: GridSpec
    axis: int

    @property
    def preserves_source_order(self) -> bool:
        """Replication is a repeat of ascending row indices."""
        return True

    def destinations(self, row: Sequence[int], index: int, p: int) -> list[int]:
        dimensions = self.grid.dimensions
        axes = [
            (index % size,) if dimension == self.axis else tuple(range(size))
            for dimension, size in enumerate(dimensions)
        ]
        return _expand_axes(axes, dimensions)

    def route_columns(self, columns: tuple, p: int, offset: int) -> tuple:
        num_rows = len(columns[0]) if columns else 0
        dimensions = self.grid.dimensions
        weights = self.grid.weights
        base = (
            numpy.arange(offset, offset + num_rows, dtype=numpy.int64)
            % dimensions[self.axis]
        ) * weights[self.axis]
        offsets = _cross_offsets(
            [
                numpy.zeros(1, dtype=numpy.int64)
                if dimension == self.axis
                else numpy.arange(size, dtype=numpy.int64) * weight
                for dimension, (size, weight) in enumerate(
                    zip(dimensions, weights)
                )
            ]
        )
        replication = len(offsets)
        destinations = (base[:, None] + offsets[None, :]).reshape(-1)
        row_indices = numpy.repeat(
            numpy.arange(num_rows, dtype=numpy.int64), replication
        )
        return columns, destinations, row_indices
