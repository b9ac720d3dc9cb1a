"""Unit tests for baseline algorithms."""

from __future__ import annotations

import pytest

from repro import oracle
from repro.algorithms.baselines import (
    compile_broadcast_join,
    compile_cartesian_grid,
    compile_single_attribute_join,
    compile_single_server,
    run_cartesian_grid,
)
from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import QueryError, parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.generators import matching_database
from repro.engine import execute_plan
from tests.conftest import assert_oracle_parity, exact_answers, run_with_oracle


class TestBroadcastJoin:
    def test_correct(self, triangle, triangle_db):
        result = execute_plan(compile_broadcast_join(triangle, 4), triangle_db)
        assert result.answers == exact_answers(triangle, triangle_db)

    def test_replication_is_p(self, triangle, triangle_db):
        result = execute_plan(compile_broadcast_join(triangle, 4), triangle_db)
        assert result.report.replication_rate == pytest.approx(4.0)


class TestSingleServer:
    def test_correct(self, chain4, chain4_db):
        result = execute_plan(compile_single_server(chain4, 4), chain4_db)
        assert result.answers == exact_answers(chain4, chain4_db)

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
        assert result.answers == exact_answers(star3, database)

    def test_two_hop_correct(self, two_hop):
        database = matching_database(two_hop, n=50, rng=3)
        result = execute_plan(
            compile_single_attribute_join(two_hop, 8), database
        )
        assert result.answers == exact_answers(two_hop, database)

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
        left = ColumnarRelation.from_rows(
            "A", [(i,) for i in range(1, n + 1)], domain_size=n
        )
        right = ColumnarRelation.from_rows(
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


class TestOracleParity:
    """Every baseline's engine run equals the row-at-a-time oracle."""

    def test_broadcast_parity(self, chain4, chain4_db):
        assert_oracle_parity(
            *run_with_oracle(compile_broadcast_join(chain4, 4), chain4_db)
        )

    def test_single_server_parity(self, chain4, chain4_db):
        assert_oracle_parity(
            *run_with_oracle(compile_single_server(chain4, 4), chain4_db)
        )

    def test_single_attribute_parity(self, star3):
        database = matching_database(star3, n=40, rng=3)
        assert_oracle_parity(
            *run_with_oracle(compile_single_attribute_join(star3, 8), database)
        )

    def test_single_attribute_ships_every_tuple(self):
        """The classical hash join routes every tuple by its hash --
        even rows a repeated-variable atom can never join."""
        query = parse_query("q(x,y) = S(x, x), T(x, y)")
        database = ColumnarDatabase.from_relations(
            [
                ColumnarRelation.from_rows(
                    "S", [(1, 1), (1, 2), (3, 3)], domain_size=4
                ),
                ColumnarRelation.from_rows(
                    "T", [(1, 2), (3, 4)], domain_size=4
                ),
            ]
        )
        execution, reference = run_with_oracle(
            compile_single_attribute_join(query, 4), database
        )
        assert_oracle_parity(execution, reference)
        # All 5 tuples shipped; replication rate exactly 1.
        assert sum(execution.report.rounds[0].received_tuples) == 5

    def test_cartesian_parity(self):
        left = ColumnarRelation.from_rows(
            "A", [(i,) for i in range(1, 65)], domain_size=64
        )
        right = ColumnarRelation.from_rows(
            "B", [(i,) for i in range(1, 65)], domain_size=64
        )
        result = run_cartesian_grid(left, right, p=16)
        assert result.num_pairs == 64 * 64
        reference = oracle.execute_plan(
            compile_cartesian_grid("A", "B", 16),
            {"A": left, "B": right},
            input_bits=result.report.input_bits,
        )
        assert (
            result.report.rounds[0].received_bits
            == reference.report.rounds[0].received_bits
        )
        assert (
            result.report.rounds[0].received_tuples
            == reference.report.rounds[0].received_tuples
        )
        assert result.max_reducer_tuples == max(
            sum(
                len(got[reducer].get(key, ()))
                for got in reference.received
                for key in ("A", "B")
            )
            for reducer in range(16)
        )
