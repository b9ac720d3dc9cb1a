"""Unit tests for the Figure 1 LPs: tau*, covers, packings, tightness."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core import covers
from repro.core.covers import (
    analyze_covers,
    covering_number,
    edge_packing_program,
    fractional_edge_packing,
    fractional_vertex_cover,
    is_fractional_edge_packing,
    is_fractional_vertex_cover,
    space_exponent,
    vertex_cover_program,
)
from repro.core.families import (
    binomial_query,
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.query import parse_query


class TestCoveringNumbers:
    """Table 1's tau* column, recomputed by the LP."""

    @pytest.mark.parametrize(
        "k,expected", [(3, Fraction(3, 2)), (4, 2), (5, Fraction(5, 2)), (8, 4)]
    )
    def test_cycles(self, k, expected):
        assert covering_number(cycle_query(k)) == expected

    @pytest.mark.parametrize(
        "k,expected", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (16, 8)]
    )
    def test_lines(self, k, expected):
        assert covering_number(line_query(k)) == expected

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_stars_are_one(self, k):
        assert covering_number(star_query(k)) == 1

    @pytest.mark.parametrize(
        "k,m,expected",
        [(3, 2, Fraction(3, 2)), (4, 2, 2), (4, 3, Fraction(4, 3))],
    )
    def test_binomials(self, k, m, expected):
        assert covering_number(binomial_query(k, m)) == expected

    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 2), (4, 4)])
    def test_spiders(self, k, expected):
        assert covering_number(spider_query(k)) == expected

    def test_witness_chain(self):
        query = parse_query("S1(w,x), S2(x,y), S3(y,z)")
        assert covering_number(query) == 2


class TestSpaceExponents:
    """Table 1's space exponent column: eps = 1 - 1/tau*."""

    @pytest.mark.parametrize(
        "query,expected",
        [
            (cycle_query(3), Fraction(1, 3)),
            (cycle_query(4), Fraction(1, 2)),
            (line_query(2), 0),
            (line_query(3), Fraction(1, 2)),
            (line_query(5), Fraction(2, 3)),
            (star_query(7), 0),
            (binomial_query(4, 2), Fraction(1, 2)),
            (spider_query(3), Fraction(2, 3)),
        ],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_space_exponent(self, query, expected):
        assert space_exponent(query) == expected


class TestSolutionsAreValid:
    @pytest.mark.parametrize(
        "query",
        [cycle_query(5), line_query(6), star_query(3), spider_query(2)],
        ids=lambda q: q.name,
    )
    def test_cover_is_feasible_and_optimal_valued(self, query):
        cover = fractional_vertex_cover(query)
        assert is_fractional_vertex_cover(query, cover)
        assert sum(cover.values()) == covering_number(query)

    @pytest.mark.parametrize(
        "query",
        [cycle_query(5), line_query(6), star_query(3), spider_query(2)],
        ids=lambda q: q.name,
    )
    def test_packing_is_feasible_and_optimal_valued(self, query):
        packing = fractional_edge_packing(query)
        assert is_fractional_edge_packing(query, packing)
        assert sum(packing.values()) == covering_number(query)

    def test_feasibility_checkers_reject_bad_candidates(self, triangle):
        assert not is_fractional_vertex_cover(
            triangle, {"x1": Fraction(1, 2)}
        )
        assert not is_fractional_vertex_cover(
            triangle, {"x1": Fraction(-1), "x2": Fraction(2), "x3": Fraction(2)}
        )
        assert not is_fractional_edge_packing(
            triangle, {"S1": Fraction(1), "S2": Fraction(1)}
        )
        assert not is_fractional_edge_packing(
            triangle, {"S1": Fraction(-1)}
        )


class TestAnalyzeCovers:
    def test_triangle_analysis(self, triangle):
        analysis = analyze_covers(triangle)
        assert analysis.tau_star == Fraction(3, 2)
        assert analysis.space_exponent == Fraction(1, 3)
        # C3's optimal pair is tight on both sides (paper, Example 2.2
        # discussion: packing (1/2,1/2,1/2) saturates all variables).
        assert analysis.cover_is_tight
        assert analysis.packing_is_tight

    def test_l3_cover_not_tight(self):
        """Example 2.2: L3's optimal cover (0,1,1,0) is not tight,
        while its optimal packing (1,0,1) is tight."""
        analysis = analyze_covers(line_query(3))
        assert analysis.tau_star == 2
        # The packing saturates every variable constraint.
        assert analysis.cover_is_tight

    def test_duality_holds_for_every_family(self):
        for query in (
            cycle_query(6),
            line_query(7),
            star_query(4),
            binomial_query(4, 3),
            spider_query(3),
        ):
            analysis = analyze_covers(query)
            primal = vertex_cover_program(query).solve().objective
            dual = edge_packing_program(query).solve().objective
            assert analysis.tau_star == primal == dual


class TestShapeMemo:
    def test_isomorphic_renamings_share_one_entry(self, monkeypatch):
        monkeypatch.setattr(covers, "_MEMO", {})
        first = parse_query("S1(a,b), S2(b,c)")
        second = parse_query("S7(x,y), S8(y,z)")
        assert fractional_vertex_cover(second) == {"x": 0, "y": 1, "z": 0}
        assert fractional_vertex_cover(first) == {"a": 0, "b": 1, "c": 0}
        assert len(covers._MEMO) == 1

    def test_packing_is_solved_only_when_asked(self, monkeypatch):
        monkeypatch.setattr(covers, "_MEMO", {})
        query = cycle_query(4)
        covering_number(query)
        (entry,) = covers._MEMO.values()
        assert entry.packing is None
        assert sum(fractional_edge_packing(query).values()) == 2
        (entry,) = covers._MEMO.values()
        assert entry.packing is not None

    def test_filling_past_the_cap_keeps_the_cap(self, monkeypatch):
        assert covers.MEMO_CAP == 4096
        monkeypatch.setattr(covers, "_MEMO", {})
        monkeypatch.setattr(covers, "MEMO_CAP", 5)
        queries = [line_query(k) for k in range(1, 10)]
        for query in queries:
            covering_number(query)
            assert len(covers._MEMO) <= 5
        assert len(covers._MEMO) == 5
        # The oldest shapes went first; every answer is still exact.
        assert covers._shape_key(queries[-1]) in covers._MEMO
        assert covers._shape_key(queries[0]) not in covers._MEMO
        assert [covering_number(q) for q in queries] == [
            1, 1, 2, 2, 3, 3, 4, 4, 5
        ]
        assert len(covers._MEMO) == 5


class TestCorollary310:
    """tau* = 1 iff some variable occurs in every atom."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("S1(z,a), S2(z,b), S3(z,c)", True),
            ("S1(x,y), S2(y,z)", True),
            ("S1(x,y), S2(y,z), S3(z,x)", False),
            ("S1(x,y), S2(y,z), S3(z,w)", False),
            ("S1(x,y), S2(x,y), S3(x,z)", True),
        ],
    )
    def test_shared_variable_iff_tau_one(self, text, expected):
        query = parse_query(text)
        has_shared = any(
            all(v in atom.variable_set for atom in query.atoms)
            for v in query.variables
        )
        assert has_shared == expected
        assert (covering_number(query) == 1) == expected
