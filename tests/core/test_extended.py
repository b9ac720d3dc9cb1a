"""Unit tests for the extended query construction (Lemma 3.9)."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.covers import covering_number
from repro.core.extended import (
    extend_query,
    is_tight_packing,
    knowledge_weight_bound,
    lemma_39_holds,
    unary_atom_name,
)
from repro.core.families import cycle_query, line_query, star_query
from repro.core.friedgut import is_fractional_edge_cover
from repro.core.query import QueryError


class TestConstruction:
    def test_shape(self, triangle):
        extended = extend_query(triangle)
        assert extended.query.num_atoms == 3 + 3
        assert unary_atom_name("x1") in {
            atom.name for atom in extended.query.atoms
        }
        assert extended.query.head == triangle.head

    def test_cycle_unary_weights_are_zero(self):
        """C5's optimal packing (1/2,..) saturates every variable, so
        u' = 0 everywhere."""
        extended = extend_query(cycle_query(5))
        assert all(value == 0 for value in extended.unary_weights.values())

    def test_star_leaves_get_slack(self):
        """T_3's packing puts weight 1 on one atom; leaf variables of
        the other atoms carry slack 1."""
        extended = extend_query(star_query(3))
        slack_total = sum(extended.unary_weights.values())
        # k+1 = 4 variables; sum a_j u_j = 2 * 1; Lemma 3.9(b): total 4.
        assert 2 + slack_total == 4

    def test_non_packing_rejected(self, triangle):
        overloaded = {"S1": Fraction(1), "S2": Fraction(1), "S3": Fraction(1)}
        with pytest.raises(QueryError, match="not an edge packing"):
            extend_query(triangle, overloaded)


class TestLemma39:
    @pytest.mark.parametrize(
        "query",
        [
            cycle_query(3),
            cycle_query(4),
            cycle_query(6),
            line_query(2),
            line_query(3),
            line_query(5),
            star_query(1),
            star_query(4),
        ],
        ids=lambda q: q.name,
    )
    def test_both_clauses_hold(self, query):
        extended = extend_query(query)
        assert lemma_39_holds(extended)

    def test_tight_packing_is_also_cover(self, triangle):
        """Lemma 3.9(a): tightness makes the vector feasible for both
        sides, so Friedgut's inequality (which needs a cover) can use
        the packing."""
        extended = extend_query(triangle)
        weights = extended.combined_weights()
        assert is_tight_packing(extended.query, weights)
        assert is_fractional_edge_cover(extended.query, weights)

    def test_total_weight_is_tau_star_plus_slack(self):
        query = line_query(4)
        extended = extend_query(query)
        base = sum(extended.base_weights.values())
        assert base == covering_number(query)

    def test_is_tight_packing_rejects_loose(self, triangle):
        loose = {"S1": Fraction(1, 4), "S2": Fraction(1, 4), "S3": Fraction(1, 4)}
        assert not is_tight_packing(triangle, loose)


class TestKnowledgeWeightBound:
    @given(
        n=st.integers(min_value=1, max_value=1000),
        arity=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_matching_probability(self, n, arity):
        """P(a in S_j) = n^{1-a_j} for uniform matchings (Lemma 3.4's
        first step); exact fraction."""
        assert knowledge_weight_bound(n, arity) == Fraction(
            1, n ** (arity - 1)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            knowledge_weight_bound(0, 2)
        with pytest.raises(ValueError):
            knowledge_weight_bound(5, 0)

    def test_empirical_tuple_probability(self):
        """Monte-Carlo check: frequency of (1, v) in random matchings
        approximates n^{1-2} = 1/n."""
        import random

        from repro.data.generators import random_matching

        n, trials, hits = 16, 400, 0
        target = (1, 5)
        for seed in range(trials):
            relation = random_matching("S", 2, n, random.Random(seed))
            if target in set(relation.rows()):
                hits += 1
        frequency = hits / trials
        assert abs(frequency - 1 / n) < 3 / n
