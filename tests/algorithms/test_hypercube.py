"""Unit tests for the HyperCube algorithm (Proposition 3.2)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms.hypercube import hc_destinations
from repro.algorithms.localjoin import evaluate_query
from repro.core.families import (
    binomial_query,
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.query import Atom, parse_query
from repro.data.database import Database, Relation
from repro.data.matching import matching_database
from repro.mpc.routing import HashFamily
from tests.conftest import run_pinned


def truth_of(query, database):
    return evaluate_query(
        query, {name: database[name].tuples for name in database.relations}
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "query",
        [
            cycle_query(3),
            cycle_query(4),
            line_query(2),
            line_query(3),
            line_query(4),
            star_query(3),
            spider_query(2),
            binomial_query(3, 2),
        ],
        ids=lambda q: q.name,
    )
    def test_equals_exact_join_on_matchings(self, query):
        database = matching_database(query, n=40, rng=11)
        result = run_pinned("hypercube", query, database, p=8, seed=2)
        assert result.answers == truth_of(query, database)

    @pytest.mark.parametrize("p", [1, 2, 5, 16, 30, 64])
    def test_correct_for_any_p(self, triangle, triangle_db, p):
        result = run_pinned("hypercube", triangle, triangle_db, p=p, seed=1)
        assert result.answers == truth_of(triangle, triangle_db)

    @pytest.mark.parametrize("seed", range(5))
    def test_correct_for_any_seed(self, chain4, chain4_db, seed):
        result = run_pinned("hypercube", chain4, chain4_db, p=9, seed=seed)
        assert result.answers == truth_of(chain4, chain4_db)

    def test_correct_on_non_matching_input(self, triangle):
        """HC never misses answers regardless of skew (only the load
        guarantee needs the matching assumption)."""
        rows = [(1, i) for i in range(2, 12)] + [(i, i) for i in range(2, 12)]
        database = Database.from_relations(
            [
                Relation.from_tuples("S1", rows, 16),
                Relation.from_tuples("S2", rows, 16),
                Relation.from_tuples("S3", [(i, 1) for i in range(2, 12)], 16),
            ]
        )
        result = run_pinned("hypercube", triangle, database, p=8, seed=0)
        assert result.answers == truth_of(triangle, database)

    def test_ternary_relations(self):
        query = parse_query("R(x,y,z), S(z,w)")
        database = matching_database(query, n=30, rng=5)
        result = run_pinned("hypercube", query, database, p=8, seed=3)
        assert result.answers == truth_of(query, database)


class TestRouting:
    def test_every_potential_answer_is_assembled_somewhere(self, triangle):
        """The defining HC property: matching tuples meet at the grid
        point given by the hashes of the answer's values."""
        shares = {"x1": 2, "x2": 2, "x3": 2}
        hashes = HashFamily(seed=7)
        order = triangle.variables
        row = (4, 9)
        s1_dests = set(
            hc_destinations(triangle.atom("S1"), row, shares, order, hashes)
        )
        # S1(4, 9) pins x1, x2; the free dimension x3 is replicated.
        assert len(s1_dests) == 2

    def test_repeated_variable_mismatch_routes_nowhere(self):
        atom = Atom("S", ("x", "x"))
        shares = {"x": 4}
        hashes = HashFamily(seed=0)
        assert hc_destinations(atom, (1, 2), shares, ("x",), hashes) == []
        assert len(
            hc_destinations(atom, (3, 3), shares, ("x",), hashes)
        ) == 1

    def test_replication_matches_free_dimensions(self, chain4):
        shares = {"x0": 2, "x1": 3, "x2": 2, "x3": 1, "x4": 2}
        hashes = HashFamily(seed=1)
        destinations = hc_destinations(
            chain4.atom("S2"), (5, 6), shares, chain4.variables, hashes
        )
        # S2 pins x1, x2; free dims are x0 (2), x3 (1), x4 (2): 4 copies.
        assert len(destinations) == len(set(destinations)) == 4


class TestLoads:
    def test_load_obeys_proposition_32(self):
        """Max load ~ l * n / p^{1/tau} tuples, within small constants."""
        query = cycle_query(3)
        n = 400
        database = matching_database(query, n=n, rng=3)
        result = run_pinned("hypercube", query, database, p=27, seed=5)
        bound = query.num_atoms * n / 27 ** (2 / 3)  # tau = 3/2
        assert result.report.max_load_tuples <= 3 * bound

    def test_replication_rate_tracks_space_exponent(self):
        query = cycle_query(3)
        database = matching_database(query, n=200, rng=4)
        result = run_pinned("hypercube", query, database, p=27, seed=6)
        # eps = 1/3: replication should be ~ p^{1/3} = 3.
        assert 2.0 <= result.report.replication_rate <= 4.5

    def test_star_query_no_replication(self):
        query = star_query(3)
        database = matching_database(query, n=100, rng=8)
        result = run_pinned("hypercube", query, database, p=16, seed=2)
        assert result.report.replication_rate == pytest.approx(1.0)

    def test_one_round_only(self, triangle, triangle_db):
        result = run_pinned("hypercube", triangle, triangle_db, p=8, seed=0)
        assert result.report.num_rounds == 1

    def test_capacity_enforcement_passes_at_own_exponent(self, triangle, triangle_db):
        result = run_pinned(
            "hypercube", triangle, triangle_db, p=8, seed=0,
            enforce_capacity=True, capacity_c=6.0,
        )
        assert result.answers == truth_of(triangle, triangle_db)

    def test_skew_breaks_load_balance(self):
        """With all-equal join values the hash cannot spread the load:
        the matching assumption is load-bearing (Section 2.5)."""
        n = 128
        skew_rows = [(i, 1) for i in range(1, n + 1)]
        match_rows = [(i, i) for i in range(1, n + 1)]
        database = Database.from_relations(
            [
                Relation.from_tuples("S1", skew_rows, n),
                Relation.from_tuples("S2", [(1, i) for i in range(1, n + 1)], n),
            ]
        )
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        skewed = run_pinned("hypercube", query, database, p=16, seed=1)
        balanced_db = Database.from_relations(
            [
                Relation.from_tuples("S1", match_rows, n),
                Relation.from_tuples("S2", match_rows, n),
            ]
        )
        balanced = run_pinned("hypercube", query, balanced_db, p=16, seed=1)
        assert (
            skewed.report.max_load_tuples
            > 3 * balanced.report.max_load_tuples
        )


class TestAllocationPlumbing:
    def test_allocation_reported(self, triangle, triangle_db):
        result = run_pinned("hypercube", triangle, triangle_db, p=27, seed=0)
        assert result.plan.allocation.used_servers <= 27
        assert set(result.plan.allocation.shares) == set(triangle.variables)

    def test_per_server_answer_counts_sum_consistently(self, chain4, chain4_db):
        result = run_pinned("hypercube", chain4, chain4_db, p=8, seed=0)
        assert len(result.per_server) == 8
        assert sum(result.per_server) >= len(result.answers)


class _CountingHashFamily(HashFamily):
    """Spy: counts scalar hash evaluations (shared mutable counter)."""

    calls: list[int] = []

    def hash_value(self, dimension, value, buckets):
        self.calls.append(value)
        return super().hash_value(dimension, value, buckets)


class TestRepeatedVariableAtoms:
    """Regression tests: repeated variables are equality selections
    and contradictory rows must short-circuit before any hashing."""

    def test_contradictory_row_hashes_nothing(self):
        atom = Atom("S", ("x", "x"))
        spy = _CountingHashFamily(seed=0)
        _CountingHashFamily.calls = []
        assert hc_destinations(atom, (1, 2), {"x": 4}, ("x",), spy) == []
        assert _CountingHashFamily.calls == []

    def test_consistent_row_hashes_once_per_distinct_variable(self):
        atom = Atom("S", ("x", "x", "y"))
        spy = _CountingHashFamily(seed=0)
        _CountingHashFamily.calls = []
        destinations = hc_destinations(
            atom, (3, 3, 5), {"x": 4, "y": 2}, ("x", "y"), spy
        )
        assert len(destinations) == 1
        assert len(_CountingHashFamily.calls) == 2  # x once, y once

    def test_triple_repeat_contradiction_detected_late_position(self):
        atom = Atom("S", ("x", "x", "x"))
        spy = _CountingHashFamily(seed=1)
        _CountingHashFamily.calls = []
        assert (
            hc_destinations(atom, (2, 2, 7), {"x": 8}, ("x",), spy) == []
        )
        assert _CountingHashFamily.calls == []

    @pytest.mark.parametrize("backend", ["pure", "numpy"])
    def test_run_hypercube_with_repeated_variable_atom(self, backend):
        if backend == "numpy":
            from repro.backend import numpy_available

            if not numpy_available():
                pytest.skip("numpy backend unavailable")
        query = parse_query("q(x,y) = S(x, x), T(x, y)")
        rows_s = [(i, i) for i in range(1, 8)] + [(i, i + 1) for i in range(1, 8)]
        rows_t = [(i, 9 - i) for i in range(1, 9)]
        database = Database.from_relations(
            [
                Relation.from_tuples("S", rows_s, 9),
                Relation.from_tuples("T", rows_t, 9),
            ]
        )
        result = run_pinned(
            "hypercube", query, database, p=8, seed=2, backend=backend
        )
        assert result.answers == truth_of(query, database)
        assert result.answers  # equality-satisfying rows do join
