"""Seeded hash families and hypercube addressing (Section 3.1).

The HC algorithm needs ``k`` independent hash functions
``h_i : [n] -> [p_i]``, one per query variable.  We derive them from a
single 64-bit seed with a splitmix64-style mixer: deterministic across
runs and processes (reproducible experiments) while behaving like
independent uniform hashing, which is what the Chernoff load argument
of Proposition 3.2 needs on matching inputs.  Per-dimension keys come
from blake2b rather than Python's salted ``hash()`` so that two
processes with the same seed route identically.

Hashing comes in two bit-identical flavours: the scalar
:meth:`HashFamily.hash_value` (the reference path) and the columnar
:meth:`HashFamily.hash_column`, which mixes a whole value column in
one vectorized splitmix64 pass.

The grid helpers convert between a worker's flat index in ``[0, P)``
and its coordinates in the ``[p_1] x ... x [p_k]`` hypercube
(mixed-radix encoding); :func:`grid_rank_columns` ranks a batch of
coordinate columns at once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

import numpy

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(value: int) -> int:
    """The splitmix64 finaliser: a high-quality 64-bit mixer."""
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
    return value ^ (value >> 31)


@lru_cache(maxsize=None)
def _dimension_key(dimension: str) -> int:
    """A stable 64-bit key per dimension name (process-independent)."""
    digest = hashlib.blake2b(
        dimension.encode("utf-8"), digest_size=8
    ).digest()
    return splitmix64(int.from_bytes(digest, "big"))


def _splitmix64_array(values: Any) -> Any:
    """Vectorized splitmix64 over a uint64 array (wrapping mod 2^64)."""
    u64 = numpy.uint64
    values = (values + u64(_GOLDEN))
    values = (values ^ (values >> u64(30))) * u64(_MIX1)
    values = (values ^ (values >> u64(27))) * u64(_MIX2)
    return values ^ (values >> u64(31))


@dataclass(frozen=True)
class HashFamily:
    """A keyed family of hash functions indexed by dimension name.

    Two families with the same seed agree everywhere; distinct
    dimension names give (empirically) independent functions.
    """

    seed: int = 0

    def hash_value(self, dimension: str, value: int, buckets: int) -> int:
        """Hash ``value`` into ``[0, buckets)`` for one dimension.

        Args:
            dimension: the variable name owning this hash function.
            value: the domain value to hash.
            buckets: the share ``p_i`` of the dimension (>= 1).
        """
        if buckets < 1:
            raise ValueError(f"need >= 1 bucket, got {buckets}")
        if buckets == 1:
            return 0
        mixed = splitmix64(
            (self.seed ^ _dimension_key(dimension)) + value * _GOLDEN
        )
        return mixed % buckets

    def hash_column(
        self, dimension: str, values: Any, buckets: int
    ) -> Any:
        """Hash a whole value column into ``[0, buckets)`` at once.

        Bit-identical to mapping :meth:`hash_value` over ``values``:
        the mix runs as one vectorized uint64 pass and an int64 array
        comes back.

        Args:
            dimension: the variable name owning this hash function.
            values: the domain values to hash, an int array.
            buckets: the share ``p_i`` of the dimension (>= 1).
        """
        if buckets < 1:
            raise ValueError(f"need >= 1 bucket, got {buckets}")
        if buckets == 1:
            return numpy.zeros(len(values), dtype=numpy.int64)
        base = (self.seed ^ _dimension_key(dimension)) & _MASK64
        mixed = _splitmix64_array(
            numpy.uint64(base)
            + values.astype(numpy.uint64) * numpy.uint64(_GOLDEN)
        )
        return (mixed % numpy.uint64(buckets)).astype(numpy.int64)


def residual_key(values: Sequence[int]) -> int:
    """Fold a residual tuple into one 64-bit key (order-sensitive).

    HyperCube's heavy-grid split hashes the *residual* attributes
    of a tuple (everything except the heavy dimension) to pick its row
    or column in the ``g1 x g2`` sub-grid.  The fold is a splitmix64
    chain so :func:`residual_key_columns` can reproduce it exactly
    with wrapping uint64 array arithmetic.
    """
    key = 0
    for value in values:
        key = splitmix64((key ^ (value * _GOLDEN)) & _MASK64)
    return key


def residual_key_columns(columns: Sequence[Any], num_rows: int) -> Any:
    """Vectorized :func:`residual_key` over parallel value columns.

    Bit-identical to mapping :func:`residual_key` over the rows formed
    by zipping ``columns``; returns a uint64 array.  ``num_rows``
    disambiguates the zero-column case (a heavy dimension on a unary
    atom has an empty residual).
    """
    keys = numpy.zeros(num_rows, dtype=numpy.uint64)
    for column in columns:
        keys = _splitmix64_array(
            keys ^ (column.astype(numpy.uint64) * numpy.uint64(_GOLDEN))
        )
    return keys


def grid_rank(coordinates: Sequence[int], dimensions: Sequence[int]) -> int:
    """Flatten hypercube coordinates to a worker index (mixed radix).

    Args:
        coordinates: one coordinate per dimension, ``0 <= c_i < p_i``.
        dimensions: the shares ``(p_1, ..., p_k)``.
    """
    if len(coordinates) != len(dimensions):
        raise ValueError("coordinate/dimension length mismatch")
    rank = 0
    for coordinate, size in zip(coordinates, dimensions):
        if not 0 <= coordinate < size:
            raise ValueError(
                f"coordinate {coordinate} outside [0, {size})"
            )
        rank = rank * size + coordinate
    return rank


def grid_weights(dimensions: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix weight of each dimension: ``w_i = prod_{j>i} p_j``.

    ``grid_rank(c, dims) == sum_i c_i * w_i`` -- the weights let a
    batch of coordinate columns be ranked with one multiply-add per
    dimension instead of a per-row loop.
    """
    weights = [1] * len(dimensions)
    for index in range(len(dimensions) - 2, -1, -1):
        weights[index] = weights[index + 1] * dimensions[index + 1]
    return tuple(weights)


def grid_rank_columns(
    coordinate_columns: Sequence[Any], dimensions: Sequence[int]
) -> Any:
    """Batched :func:`grid_rank` over parallel coordinate columns.

    Args:
        coordinate_columns: one int array per dimension, all the
            same length.
        dimensions: the shares ``(p_1, ..., p_k)``.

    Returns:
        The flat rank per row, as an int64 array.
    """
    if len(coordinate_columns) != len(dimensions):
        raise ValueError("coordinate/dimension length mismatch")
    if not coordinate_columns:
        return numpy.zeros(0, dtype=numpy.int64)
    ranks = numpy.zeros(len(coordinate_columns[0]), dtype=numpy.int64)
    for column, weight in zip(coordinate_columns, grid_weights(dimensions)):
        ranks += column * weight
    return ranks


def grid_coordinates(rank: int, dimensions: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`grid_rank`."""
    total = 1
    for size in dimensions:
        total *= size
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    coordinates = []
    for size in reversed(dimensions):
        coordinates.append(rank % size)
        rank //= size
    return tuple(reversed(coordinates))


def grid_size(dimensions: Sequence[int]) -> int:
    """Total number of grid points ``prod_i p_i``."""
    total = 1
    for size in dimensions:
        total *= size
    return total
