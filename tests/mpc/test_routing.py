"""Unit tests for hash families and hypercube addressing."""

from __future__ import annotations

import numpy
import pytest

from repro.mpc.routing import (
    HashFamily,
    grid_coordinates,
    grid_rank,
    grid_size,
    splitmix64,
)


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_spreads_consecutive_inputs(self):
        outputs = {splitmix64(i) % 64 for i in range(64)}
        assert len(outputs) > 32  # no obvious clustering

    def test_stays_in_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(value) < 2**64


class TestHashFamily:
    def test_range(self):
        family = HashFamily(seed=1)
        for value in range(1, 200):
            assert 0 <= family.hash_value("x", value, 7) < 7

    def test_single_bucket_constant(self):
        family = HashFamily(seed=1)
        assert family.hash_value("x", 123, 1) == 0

    def test_deterministic_across_instances(self):
        a = HashFamily(seed=9)
        b = HashFamily(seed=9)
        assert all(
            a.hash_value("x", v, 16) == b.hash_value("x", v, 16)
            for v in range(50)
        )

    def test_dimensions_differ(self):
        family = HashFamily(seed=3)
        same = sum(
            family.hash_value("x", v, 16) == family.hash_value("y", v, 16)
            for v in range(200)
        )
        assert same < 50  # ~1/16 expected agreement

    def test_seeds_differ(self):
        a = HashFamily(seed=1)
        b = HashFamily(seed=2)
        same = sum(
            a.hash_value("x", v, 16) == b.hash_value("x", v, 16)
            for v in range(200)
        )
        assert same < 50

    def test_roughly_uniform(self):
        family = HashFamily(seed=4)
        buckets = [0] * 8
        for value in range(1, 801):
            buckets[family.hash_value("x", value, 8)] += 1
        assert max(buckets) < 2 * min(buckets)

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            HashFamily().hash_value("x", 1, 0)


class TestGrid:
    def test_rank_roundtrip(self):
        dims = (3, 4, 2)
        for rank in range(grid_size(dims)):
            assert grid_rank(grid_coordinates(rank, dims), dims) == rank

    def test_rank_row_major(self):
        assert grid_rank((0, 0), (2, 3)) == 0
        assert grid_rank((0, 1), (2, 3)) == 1
        assert grid_rank((1, 0), (2, 3)) == 3

    def test_rank_validates(self):
        with pytest.raises(ValueError):
            grid_rank((2,), (2,))
        with pytest.raises(ValueError, match="mismatch"):
            grid_rank((0, 0), (2,))

    def test_coordinates_validates(self):
        with pytest.raises(ValueError):
            grid_coordinates(6, (2, 3))

    def test_grid_size(self):
        assert grid_size((2, 3, 4)) == 24
        assert grid_size(()) == 1


class TestHashColumn:
    """The batched hash path must be bit-identical to the scalar one."""

    def test_numpy_matches_scalar(self):
        family = HashFamily(seed=0xDECAF)
        values = numpy.arange(1, 5000, dtype=numpy.int64)
        batched = family.hash_column("y", values, 13)
        assert batched.dtype == numpy.int64
        assert batched.tolist() == [
            family.hash_value("y", int(value), 13) for value in values
        ]

    def test_single_bucket_all_zero(self):
        family = HashFamily(seed=5)
        values = numpy.asarray([4, 5, 6], dtype=numpy.int64)
        assert family.hash_column("x", values, 1).tolist() == [0, 0, 0]

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            HashFamily().hash_column("x", numpy.ones(1, numpy.int64), 0)

    def test_dimension_key_is_process_independent(self):
        import subprocess
        import sys

        probe = (
            "from repro.mpc.routing import HashFamily;"
            "print(HashFamily(seed=3).hash_value('x', 12345, 1000))"
        )
        runs = {
            subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(runs) == 1
        assert int(runs.pop()) == HashFamily(seed=3).hash_value(
            "x", 12345, 1000
        )


class TestGridRankColumns:
    def test_matches_scalar_numpy(self):
        from repro.mpc.routing import grid_rank_columns

        dims = (5, 3, 7)
        rng = numpy.random.default_rng(0)
        columns = [
            rng.integers(0, size, 100, dtype=numpy.int64) for size in dims
        ]
        expected = [
            grid_rank(row, dims) for row in zip(*[c.tolist() for c in columns])
        ]
        assert grid_rank_columns(columns, dims).tolist() == expected

    def test_length_mismatch_rejected(self):
        from repro.mpc.routing import grid_rank_columns

        with pytest.raises(ValueError, match="mismatch"):
            grid_rank_columns([[0]], (2, 2))
