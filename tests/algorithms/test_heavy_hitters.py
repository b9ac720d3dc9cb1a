"""Unit tests for HyperCube's heavy-hitter binding (after [17])."""

from __future__ import annotations

import pytest

from repro.algorithms.hypercube import detect_heavy_hitters
from repro.algorithms.registry import compile_with
from repro.core.families import cycle_query, line_query
from repro.core.query import parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.generators import matching_database
from repro.engine import HashRoute, HeavyGridRoute, execute_plan
from tests.conftest import exact_answers, light_plan, run_pinned


def skewed_two_hop(n=128):
    """S1 funnels everything into y = 1; S2 fans out of y = 1."""
    query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
    database = ColumnarDatabase.from_relations(
        [
            ColumnarRelation.from_rows(
                "S1", [(i, 1) for i in range(1, n + 1)], n
            ),
            ColumnarRelation.from_rows(
                "S2", [(1, i) for i in range(1, n + 1)], n
            ),
        ]
    )
    return query, database


class TestHeavyHitterDetection:
    def test_no_heavy_hitters_on_matchings(self):
        query = cycle_query(3)
        database = matching_database(query, n=60, rng=1)
        heavy = detect_heavy_hitters(
            query, database, {"x1": 4, "x2": 4, "x3": 4}
        )
        assert all(not values for values in heavy.values())

    def test_funnel_value_detected(self):
        query, database = skewed_two_hop()
        heavy = detect_heavy_hitters(
            query, database, {"x": 1, "y": 8, "z": 1}
        )
        assert 1 in heavy["y"]
        assert len(heavy["y"]) == 1

    def test_share_one_dimensions_skipped(self):
        query, database = skewed_two_hop()
        heavy = detect_heavy_hitters(
            query, database, {"x": 1, "y": 1, "z": 1}
        )
        assert all(not values for values in heavy.values())


class TestBind:
    def test_empty_sets_route_the_compiled_steps(self):
        plan = compile_with("hypercube", line_query(3), 9)
        plan_round = plan.rounds[0]
        empty = {v: frozenset() for v in line_query(3).variables}
        assert plan_round.bind_heavy.bind(plan_round.steps, empty) is (
            plan_round.steps
        )
        assert all(isinstance(s, HashRoute) for s in plan_round.steps)

    def test_a_heavy_value_routes_every_step_on_the_heavy_grid(self):
        query, _ = skewed_two_hop()
        plan_round = compile_with("hypercube", query, 16).rounds[0]
        heavy = {"x": frozenset(), "y": frozenset({1}), "z": frozenset()}
        bound = plan_round.bind_heavy.bind(plan_round.steps, heavy)
        assert [type(s) for s in bound] == [HeavyGridRoute] * 2
        for step, routed in zip(plan_round.steps, bound):
            assert (routed.relation, routed.atom, routed.grid) == (
                step.relation, step.atom, step.grid
            )
            assert routed.heavy == heavy
            assert routed.roles["y"] == {"S1": 0, "S2": 1}


class TestCorrectness:
    def test_correct_on_matchings(self):
        query = cycle_query(3)
        database = matching_database(query, n=50, rng=2)
        result = run_pinned("hypercube", query, database, p=8, seed=3)
        assert result.answers == exact_answers(query, database)
        assert not any(result.heavy_hitters.values())

    def test_correct_on_skewed_input(self):
        query, database = skewed_two_hop()
        result = run_pinned("hypercube", query, database, p=16, seed=1)
        assert result.answers == exact_answers(query, database)
        assert result.heavy_hitters["y"]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_light_plan_on_matchings(self, seed):
        """No heavy hitters => identical answers and loads to the plan
        with its binding removed."""
        query = line_query(3)
        database = matching_database(query, n=40, rng=7)
        plan = compile_with("hypercube", query, 9, seed=seed)
        bound = execute_plan(plan, database)
        plain = execute_plan(light_plan(plan), database)
        assert plain.answers == bound.answers
        assert plain.per_server == bound.per_server
        assert (
            plain.report.rounds[0].received_bits
            == bound.report.rounds[0].received_bits
        )


class TestLoadImprovement:
    def test_binding_beats_the_light_plan_on_funnel(self):
        """On the funnel instance, light HC piles every S2 tuple on one
        server; spreading the heavy value rebalances."""
        query, database = skewed_two_hop()
        plan = compile_with("hypercube", query, 16, seed=5)
        plain = execute_plan(light_plan(plan), database)
        aware = execute_plan(plan, database)
        assert aware.answers == plain.answers
        assert (
            aware.report.rounds[0].load_imbalance
            < plain.report.rounds[0].load_imbalance
        )
        assert (
            aware.report.max_load_tuples < plain.report.max_load_tuples
        )
