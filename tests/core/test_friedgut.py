"""Unit + property tests for Friedgut's inequality (Section 2.6)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.covers import fractional_edge_packing
from repro.core.families import cycle_query, line_query, star_query
from repro.core.friedgut import (
    edge_cover_number,
    friedgut_bound,
    friedgut_holds,
    friedgut_lhs,
    is_fractional_edge_cover,
    optimal_edge_cover,
    output_size_bound,
    verify_agm_on_instance,
)
from repro.core.query import QueryError, parse_query
from repro.data.columnar import ColumnarRelation


class TestEdgeCover:
    @pytest.mark.parametrize(
        "query,expected",
        [
            (cycle_query(3), Fraction(3, 2)),
            (cycle_query(5), Fraction(5, 2)),
            (line_query(3), 2),
            (star_query(3), 3),  # cover needs every leaf atom
        ],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_edge_cover_numbers(self, query, expected):
        assert edge_cover_number(query) == expected

    def test_optimal_cover_is_feasible(self):
        for query in (cycle_query(4), line_query(5), star_query(2)):
            cover = optimal_edge_cover(query)
            assert is_fractional_edge_cover(query, cover)

    def test_cover_and_packing_coincide_when_tight(self):
        """For odd cycles the optimal packing (1/2,...) is tight, so
        cover number == packing number (Section 2.3's remark)."""
        query = cycle_query(5)
        packing = fractional_edge_packing(query)
        assert sum(packing.values()) == edge_cover_number(query)

    def test_cover_exceeds_packing_for_stars(self):
        """T_3: packing number 1 (hub saturates) but cover number 3."""
        query = star_query(3)
        packing = fractional_edge_packing(query)
        assert sum(packing.values()) == 1
        assert edge_cover_number(query) == 3

    def test_negative_weights_rejected_by_checker(self):
        query = line_query(2)
        assert not is_fractional_edge_cover(
            query, {"S1": Fraction(-1), "S2": Fraction(2)}
        )


class TestInequalityExamples:
    def test_paper_c3_instance(self):
        """The paper's C3 example: indicator weights give
        |C3| <= sqrt(|S1| |S2| |S3|)."""
        query = cycle_query(3)
        rows = ((1, 2), (2, 3), (3, 1))
        relations = {
            name: ColumnarRelation.from_rows(name, rows, domain_size=3)
            for name in ("S1", "S2", "S3")
        }
        actual, bound = verify_agm_on_instance(query, relations)
        assert actual <= bound
        assert bound == 6  # ceil of sqrt(27) = ceil(5.196...)

    def test_l3_uses_max_convention(self):
        """L3's cover (1, 0, 1) exercises the u -> 0 max term."""
        query = line_query(3)
        cover = {"S1": Fraction(1), "S2": Fraction(0), "S3": Fraction(1)}
        assert is_fractional_edge_cover(query, cover)
        weights = {
            "S1": {(1, 1): 2.0, (1, 2): 1.0},
            "S2": {(1, 1): 3.0, (2, 1): 5.0},
            "S3": {(1, 1): 1.0},
        }
        # rhs = (2+1) * max(3,5) * 1 = 15.
        assert friedgut_bound(query, weights, cover, n=2) == pytest.approx(15.0)
        lhs = friedgut_lhs(query, weights, n=2)
        assert lhs <= 15.0 + 1e-9

    def test_non_cover_rejected(self):
        query = cycle_query(3)
        bad = {"S1": Fraction(1, 4), "S2": Fraction(1, 4), "S3": Fraction(1, 4)}
        with pytest.raises(QueryError, match="edge cover"):
            friedgut_bound(query, {}, bad, n=2)


@st.composite
def weighted_instances(draw):
    """Random weights on a small query with its optimal edge cover."""
    query = draw(
        st.sampled_from(
            [cycle_query(3), line_query(2), line_query(3), star_query(2)]
        )
    )
    n = draw(st.integers(min_value=2, max_value=3))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    weights = {}
    for atom in query.atoms:
        table = {}
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            key = tuple(
                rng.randint(1, n) for _ in range(atom.arity)
            )
            table[key] = rng.random() * draw(
                st.floats(min_value=0.1, max_value=4.0)
            )
        weights[atom.name] = table
    return query, weights, n


class TestInequalityProperty:
    @given(weighted_instances())
    @settings(max_examples=40, deadline=None)
    def test_friedgut_holds_on_random_weights(self, instance):
        query, weights, n = instance
        cover = optimal_edge_cover(query)
        assert friedgut_holds(query, weights, cover, n)

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_agm_bound_on_random_matchings(self, seed):
        """AGM: |q(I)| <= prod |S_j|^{u_j} on matching inputs."""
        from repro.data.generators import matching_database

        for query in (cycle_query(3), line_query(3)):
            database = matching_database(query, n=12, rng=seed)
            actual, bound = verify_agm_on_instance(query, database.relations)
            assert actual <= bound


class TestOutputSizeBound:
    def test_c3_sqrt_formula(self):
        query = cycle_query(3)
        bound = output_size_bound(
            query, {"S1": 100, "S2": 100, "S3": 100}
        )
        assert bound == pytest.approx(1000.0)

    def test_zero_cardinality_kills_bound(self):
        query = line_query(2)
        assert output_size_bound(query, {"S1": 0, "S2": 50}) == 0.0

    def test_custom_cover_must_be_feasible(self):
        query = cycle_query(3)
        with pytest.raises(QueryError):
            output_size_bound(
                query,
                {"S1": 10, "S2": 10, "S3": 10},
                cover={"S1": Fraction(1, 4)},
            )
