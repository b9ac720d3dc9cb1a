"""Unit tests for skew-aware HyperCube routing."""

from __future__ import annotations

import pytest

from repro.algorithms.localjoin import evaluate_query
from repro.algorithms.skewaware import detect_heavy_hitters
from repro.core.families import cycle_query, line_query
from repro.core.query import parse_query
from repro.data.database import Database, Relation
from repro.data.matching import matching_database
from tests.conftest import run_pinned


def truth_of(query, database):
    return evaluate_query(
        query, {name: database[name].tuples for name in database.relations}
    )


def skewed_two_hop(n=128):
    """S1 funnels everything into y = 1; S2 fans out of y = 1."""
    query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
    database = Database.from_relations(
        [
            Relation.from_tuples(
                "S1", [(i, 1) for i in range(1, n + 1)], n
            ),
            Relation.from_tuples(
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


class TestCorrectness:
    def test_correct_on_matchings(self):
        query = cycle_query(3)
        database = matching_database(query, n=50, rng=2)
        result = run_pinned("skewaware", query, database, p=8, seed=3)
        assert result.answers == truth_of(query, database)

    def test_correct_on_skewed_input(self):
        query, database = skewed_two_hop()
        result = run_pinned("skewaware", query, database, p=16, seed=1)
        assert result.answers == truth_of(query, database)
        assert result.heavy_hitters["y"]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_plain_hc_on_matchings(self, seed):
        """No heavy hitters => identical answers and loads to plain HC."""
        query = line_query(3)
        database = matching_database(query, n=40, rng=7)
        plain = run_pinned("hypercube", query, database, p=9, seed=seed)
        aware = run_pinned("skewaware", query, database, p=9, seed=seed)
        assert plain.answers == aware.answers
        assert (
            plain.report.rounds[0].received_bits
            == aware.report.rounds[0].received_bits
        )


class TestLoadImprovement:
    def test_skew_aware_beats_plain_on_funnel(self):
        """On the funnel instance, plain HC piles every S2 tuple on one
        server; spreading the heavy value rebalances."""
        query, database = skewed_two_hop()
        plain = run_pinned("hypercube", query, database, p=16, seed=5)
        aware = run_pinned("skewaware", query, database, p=16, seed=5)
        assert aware.answers == plain.answers
        assert (
            aware.report.rounds[0].load_imbalance
            < plain.report.rounds[0].load_imbalance
        )
        assert (
            aware.report.max_load_tuples < plain.report.max_load_tuples
        )
