"""Unit tests for baseline algorithms."""

from __future__ import annotations

import pytest

from repro.algorithms.baselines import (
    compile_broadcast_join,
    compile_single_attribute_join,
    compile_single_server,
    run_cartesian_grid,
)
from repro.algorithms.localjoin import evaluate_query
from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import QueryError, parse_query
from repro.data.database import Relation
from repro.data.matching import matching_database
from repro.engine import execute_plan


def truth_of(query, database):
    return evaluate_query(
        query, {name: database[name].tuples for name in database.relations}
    )


class TestBroadcastJoin:
    def test_correct(self, triangle, triangle_db):
        result = execute_plan(compile_broadcast_join(triangle, 4), triangle_db)
        assert result.answers == truth_of(triangle, triangle_db)

    def test_replication_is_p(self, triangle, triangle_db):
        result = execute_plan(compile_broadcast_join(triangle, 4), triangle_db)
        assert result.report.replication_rate == pytest.approx(4.0)


class TestSingleServer:
    def test_correct(self, chain4, chain4_db):
        result = execute_plan(compile_single_server(chain4, 4), chain4_db)
        assert result.answers == truth_of(chain4, chain4_db)

    def test_one_worker_takes_everything(self, chain4, chain4_db):
        result = execute_plan(compile_single_server(chain4, 4), chain4_db)
        stats = result.report.rounds[0]
        assert stats.received_bits[0] == chain4_db.total_bits
        assert all(bits == 0 for bits in stats.received_bits[1:])


class TestSingleAttributeJoin:
    def test_star_query_correct(self, star3):
        database = matching_database(star3, n=50, rng=2)
        result = execute_plan(
            compile_single_attribute_join(star3, 8), database
        )
        assert result.answers == truth_of(star3, database)

    def test_two_hop_correct(self, two_hop):
        database = matching_database(two_hop, n=50, rng=3)
        result = execute_plan(
            compile_single_attribute_join(two_hop, 8), database
        )
        assert result.answers == truth_of(two_hop, database)

    def test_no_shared_variable_rejected(self):
        query = line_query(3)
        database = matching_database(query, n=10, rng=1)
        with pytest.raises(QueryError, match="variable in every atom"):
            execute_plan(compile_single_attribute_join(query, 4), database)

    def test_cycle_rejected(self):
        query = cycle_query(3)
        database = matching_database(query, n=10, rng=1)
        with pytest.raises(QueryError):
            execute_plan(compile_single_attribute_join(query, 4), database)

    def test_replication_rate_one(self, star3):
        database = matching_database(star3, n=40, rng=4)
        result = execute_plan(
            compile_single_attribute_join(star3, 8), database
        )
        assert result.report.replication_rate == pytest.approx(1.0)


class TestCartesianGrid:
    def make_sets(self, n=64):
        left = Relation.from_tuples(
            "A", [(i,) for i in range(1, n + 1)], domain_size=n
        )
        right = Relation.from_tuples(
            "B", [(i,) for i in range(1, n + 1)], domain_size=n
        )
        return left, right

    def test_all_pairs_examined(self):
        left, right = self.make_sets(32)
        result = run_cartesian_grid(left, right, p=16, groups=4)
        assert result.num_pairs == 32 * 32

    def test_replication_equals_g(self):
        left, right = self.make_sets(32)
        for g in (1, 2, 4):
            result = run_cartesian_grid(left, right, p=16, groups=g)
            assert result.replication_rate == pytest.approx(g)

    def test_reducer_size_tradeoff(self):
        left, right = self.make_sets(64)
        sizes = {}
        for g in (1, 2, 4):
            result = run_cartesian_grid(left, right, p=16, groups=g)
            sizes[g] = result.max_reducer_tuples
        assert sizes[1] > sizes[2] > sizes[4]
        assert sizes[1] == 128  # 2n at g = 1

    def test_default_g_is_sqrt_p(self):
        left, right = self.make_sets(16)
        result = run_cartesian_grid(left, right, p=16)
        assert result.replication_rate == pytest.approx(4.0)

    def test_grid_too_large_rejected(self):
        left, right = self.make_sets(8)
        with pytest.raises(ValueError, match="workers"):
            run_cartesian_grid(left, right, p=4, groups=3)


class TestBackendParity:
    """Every baseline honours ``backend=`` with identical results."""

    @staticmethod
    def assert_reports_match(pure, vectorized):
        assert vectorized.answers == pure.answers
        for round_pure, round_vec in zip(
            pure.report.rounds, vectorized.report.rounds
        ):
            assert round_vec.received_bits == round_pure.received_bits
            assert round_vec.received_tuples == round_pure.received_tuples

    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        from repro.backend import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend unavailable")

    def test_broadcast_parity(self, chain4, chain4_db):
        self.assert_reports_match(*(
            execute_plan(compile_broadcast_join(chain4, 4, backend), chain4_db)
            for backend in ("pure", "numpy")
        ))

    def test_single_server_parity(self, chain4, chain4_db):
        self.assert_reports_match(*(
            execute_plan(compile_single_server(chain4, 4, backend), chain4_db)
            for backend in ("pure", "numpy")
        ))

    def test_single_attribute_parity(self, star3):
        database = matching_database(star3, n=40, rng=3)
        self.assert_reports_match(*(
            execute_plan(
                compile_single_attribute_join(star3, 8, backend=backend),
                database,
            )
            for backend in ("pure", "numpy")
        ))

    def test_single_attribute_ships_every_tuple(self):
        """The classical hash join routes every tuple by its hash --
        even rows a repeated-variable atom can never join."""
        query = parse_query("q(x,y) = S(x, x), T(x, y)")
        from repro.data.database import Database

        database = Database.from_relations(
            [
                Relation.from_tuples(
                    "S", [(1, 1), (1, 2), (3, 3)], domain_size=4
                ),
                Relation.from_tuples("T", [(1, 2), (3, 4)], domain_size=4),
            ]
        )
        pure, vectorized = (
            execute_plan(
                compile_single_attribute_join(query, 4, backend=backend),
                database,
            )
            for backend in ("pure", "numpy")
        )
        self.assert_reports_match(pure, vectorized)
        # All 5 tuples shipped; replication rate exactly 1.
        assert sum(pure.report.rounds[0].received_tuples) == 5

    def test_cartesian_parity(self):
        left = Relation.from_tuples(
            "A", [(i,) for i in range(1, 65)], domain_size=64
        )
        right = Relation.from_tuples(
            "B", [(i,) for i in range(1, 65)], domain_size=64
        )
        pure = run_cartesian_grid(left, right, p=16, backend="pure")
        vectorized = run_cartesian_grid(left, right, p=16, backend="numpy")
        assert pure.num_pairs == vectorized.num_pairs == 64 * 64
        assert pure.max_reducer_tuples == vectorized.max_reducer_tuples
        assert pure.replication_rate == pytest.approx(
            vectorized.replication_rate
        )
        assert (
            pure.report.rounds[0].received_bits
            == vectorized.report.rounds[0].received_bits
        )
