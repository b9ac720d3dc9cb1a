"""Unit tests for the Theorem 3.3 / Lemma 3.7 bound calculator."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.families import cycle_query, line_query, star_query
from repro.core.knowledge import (
    failure_probability_floor,
    g_constant,
    knowledge_bound,
    knowledge_fraction_budget,
    multiround_g_constant,
)
from repro.core.query import Atom, ConjunctiveQuery, QueryError
from tests.conftest import run_pinned


class TestBudget:
    def test_formula(self):
        # L2: a = 4, l = 2 -> budget = c * 2 / p^{1-eps}.
        query = line_query(2)
        assert knowledge_fraction_budget(
            query, p=4, eps=Fraction(0), c=1.0
        ) == pytest.approx(0.5)

    def test_scales_with_eps(self):
        query = cycle_query(3)
        low = knowledge_fraction_budget(query, p=16, eps=Fraction(0))
        high = knowledge_fraction_budget(query, p=16, eps=Fraction(1, 2))
        assert high == pytest.approx(4 * low)

    def test_unary_vocabulary_rejected(self):
        query = ConjunctiveQuery([Atom("R", ("x",))])
        with pytest.raises(QueryError, match="unary"):
            knowledge_fraction_budget(query, p=4, eps=Fraction(0))

    def test_invalid_p(self):
        with pytest.raises(QueryError):
            knowledge_fraction_budget(line_query(2), p=0, eps=Fraction(0))


class TestGConstant:
    def test_triangle(self):
        # C3: a - l = 3, tau* = 3/2 -> g = (c * 2)^{3/2}.
        assert g_constant(cycle_query(3), c=1.0) == pytest.approx(2 ** 1.5)

    def test_grows_with_c(self):
        query = line_query(3)
        assert g_constant(query, 2.0) > g_constant(query, 1.0)

    def test_multiround_inflation(self):
        """Theorem 4.11 charges c(r+1): r = 0 equals the base case."""
        query = line_query(4)
        assert multiround_g_constant(query, 1.0, 0) == g_constant(query, 1.0)
        assert multiround_g_constant(query, 1.0, 2) == g_constant(query, 3.0)

    def test_negative_rounds_rejected(self):
        with pytest.raises(QueryError):
            multiround_g_constant(line_query(2), 1.0, -1)


class TestKnowledgeBound:
    def test_decays_with_p(self):
        query = line_query(3)
        small = knowledge_bound(query, p=4, eps=Fraction(0))
        large = knowledge_bound(query, p=64, eps=Fraction(0))
        assert large.all_servers_fraction < small.all_servers_fraction
        assert large.per_server_fraction < small.per_server_fraction

    def test_exponent_is_tau_times_one_minus_eps(self):
        """Doubling log p scales the per-server bound by the exponent
        (1-eps) tau*."""
        query = cycle_query(3)  # tau* = 3/2
        eps = Fraction(0)
        at_4 = knowledge_bound(query, 4, eps).per_server_fraction
        at_16 = knowledge_bound(query, 16, eps).per_server_fraction
        # p^2 ratio at exponent 3/2 -> factor 4^{3/2} = 8.
        assert at_4 / at_16 == pytest.approx(8.0)

    def test_capped_at_one(self):
        query = star_query(2)  # tau* = 1: no lower bound bites
        bound = knowledge_bound(query, p=2, eps=Fraction(0), c=10.0)
        assert bound.all_servers_fraction == 1.0

    def test_union_bound_is_p_times_per_server(self):
        query = line_query(3)
        bound = knowledge_bound(query, p=16, eps=Fraction(0))
        assert bound.all_servers_fraction == pytest.approx(
            min(1.0, 16 * bound.per_server_fraction)
        )

    def test_measured_fraction_respects_ceiling(self):
        """The Prop 3.11 algorithm must stay below the Thm 3.3 ceiling
        (with the theorem's own constant)."""
        from repro.algorithms.localjoin import evaluate_query
        from repro.data.database import as_mapping
        from repro.data.matching import matching_database

        query = line_query(3)
        for p in (8, 32):
            ceiling = knowledge_bound(
                query, p=p, eps=Fraction(0), c=4.0
            ).all_servers_fraction
            database = matching_database(query, n=120, rng=p)
            result = run_pinned(
                "partial", query, database, p=p, eps=Fraction(0), seed=p
            )
            truth = evaluate_query(query, as_mapping(database))
            assert len(result.answers) / len(truth) <= ceiling


class TestFailureFloor:
    def test_tree_like_floor_near_one(self):
        """chi = 0: failure probability floor approaches 1 as p grows."""
        query = line_query(3)
        floor = failure_probability_floor(query, n=100, p=1024, eps=Fraction(0))
        assert floor > 0.9

    def test_cycle_floor_scales_with_inverse_n(self):
        query = cycle_query(3)
        floor = failure_probability_floor(query, n=100, p=10**6, eps=Fraction(0))
        assert floor == pytest.approx(1 / 100, rel=0.2)

    def test_disconnected_rejected(self):
        query = ConjunctiveQuery(
            [Atom("R", ("x", "y")), Atom("S", ("u", "v"))]
        )
        with pytest.raises(QueryError):
            failure_probability_floor(query, n=10, p=4, eps=Fraction(0))
