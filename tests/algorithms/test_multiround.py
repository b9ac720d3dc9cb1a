"""Unit tests for the multi-round plan executor (Proposition 4.1)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.families import (
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.plans import build_plan
from repro.data.generators import matching_database
from repro.algorithms.multiround import compile_multiround
from repro.engine import execute_plan
from tests.conftest import exact_answers


class TestCorrectness:
    @pytest.mark.parametrize(
        "query,eps",
        [
            (line_query(4), Fraction(0)),
            (line_query(5), Fraction(0)),
            (line_query(8), Fraction(0)),
            (line_query(8), Fraction(1, 2)),
            (line_query(16), Fraction(1, 2)),
            (cycle_query(5), Fraction(0)),
            (cycle_query(6), Fraction(0)),
            (spider_query(3), Fraction(0)),
            (star_query(4), Fraction(0)),
        ],
        ids=lambda value: str(value) if isinstance(value, Fraction) else value.name,
    )
    def test_plan_execution_equals_exact_join(self, query, eps):
        database = matching_database(query, n=40, rng=21)
        plan = build_plan(query, eps)
        result = execute_plan(compile_multiround(plan, 8, seed=4), database)
        assert result.answers == exact_answers(query, database)

    @pytest.mark.parametrize("p", [1, 2, 7, 16])
    def test_any_worker_count(self, p):
        query = line_query(6)
        database = matching_database(query, n=30, rng=9)
        plan = build_plan(query, Fraction(0))
        result = execute_plan(compile_multiround(plan, p, seed=1), database)
        assert result.answers == exact_answers(query, database)

    @pytest.mark.parametrize("seed", range(4))
    def test_any_seed(self, seed):
        query = cycle_query(5)
        database = matching_database(query, n=24, rng=3)
        plan = build_plan(query, Fraction(0))
        result = execute_plan(compile_multiround(plan, 4, seed=seed), database)
        assert result.answers == exact_answers(query, database)


class TestRoundAccounting:
    def test_rounds_equal_plan_depth(self):
        for k, eps in ((8, Fraction(0)), (16, Fraction(1, 2))):
            query = line_query(k)
            database = matching_database(query, n=20, rng=2)
            plan = build_plan(query, eps)
            result = execute_plan(
                compile_multiround(plan, 4, seed=0), database
            )
            assert result.report.num_rounds == plan.depth

    def test_view_sizes_recorded(self):
        query = line_query(4)
        database = matching_database(query, n=25, rng=6)
        plan = build_plan(query, Fraction(0))
        result = execute_plan(compile_multiround(plan, 4, seed=0), database)
        assert result.view_sizes
        # On matchings every full-join view of a chain has n tuples.
        assert all(size == 25 for size in result.view_sizes.values())

    def test_input_servers_only_round_one(self):
        """The executor must respect the tuple-based model: all
        round >= 2 traffic comes from workers, which the simulator
        enforces (ProtocolError otherwise)."""
        query = line_query(8)
        database = matching_database(query, n=20, rng=1)
        plan = build_plan(query, Fraction(0))
        # Simply running without ProtocolError is the assertion.
        result = execute_plan(compile_multiround(plan, 4, seed=0), database)
        assert result.report.num_rounds == 3


class TestHeadOrdering:
    def test_answers_in_query_head_order(self):
        query = line_query(3)
        database = matching_database(query, n=15, rng=8)
        plan = build_plan(query, Fraction(0))
        result = execute_plan(compile_multiround(plan, 4, seed=0), database)
        truth = exact_answers(query, database)
        assert result.answers == truth
        # Column i of the answers corresponds to head variable i.
        for row in result.answers[:3]:
            assert len(row) == len(query.head)
