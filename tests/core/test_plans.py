"""Unit tests for Gamma^1_eps membership and the plan builder."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.bounds import round_lower_bound, round_upper_bound
from repro.core.covers import covering_number
from repro.core.families import (
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.plans import (
    PlanRound,
    PlanStep,
    QueryPlan,
    build_plan,
    gamma_one_threshold,
    in_gamma_one,
    validate_plan,
)
from repro.core.query import Atom, ConjunctiveQuery, QueryError, parse_query


class TestGammaOne:
    def test_threshold_values(self):
        assert gamma_one_threshold(Fraction(0)) == 1
        assert gamma_one_threshold(Fraction(1, 2)) == 2
        assert gamma_one_threshold(Fraction(2, 3)) == 3

    def test_threshold_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            gamma_one_threshold(Fraction(3, 2))
        with pytest.raises(ValueError):
            gamma_one_threshold(Fraction(-1, 2))

    def test_membership_at_zero(self):
        assert in_gamma_one(star_query(5), Fraction(0))
        assert in_gamma_one(line_query(2), Fraction(0))
        assert not in_gamma_one(line_query(3), Fraction(0))
        assert not in_gamma_one(cycle_query(3), Fraction(0))

    def test_membership_at_half(self):
        assert in_gamma_one(line_query(4), Fraction(1, 2))
        assert not in_gamma_one(line_query(5), Fraction(1, 2))
        assert in_gamma_one(cycle_query(4), Fraction(1, 2))
        assert not in_gamma_one(cycle_query(5), Fraction(1, 2))

    def test_disconnected_not_member(self):
        query = ConjunctiveQuery(
            [Atom("R", ("x", "y")), Atom("S", ("u", "v"))]
        )
        assert not in_gamma_one(query, Fraction(1, 2))


class TestBuildPlanDepths:
    """Plan depths vs Table 2 and Example 4.2."""

    @pytest.mark.parametrize(
        "k,eps,depth",
        [
            (2, Fraction(0), 1),
            (4, Fraction(0), 2),
            (8, Fraction(0), 3),
            (16, Fraction(0), 4),
            (16, Fraction(1, 2), 2),   # Example 4.2: two rounds of L4
            (16, Fraction(2, 3), 2),
            (5, Fraction(0), 3),
        ],
    )
    def test_line_depths(self, k, eps, depth):
        assert build_plan(line_query(k), eps).depth == depth

    @pytest.mark.parametrize(
        "k,eps,depth",
        [
            (3, Fraction(1, 3), 1),   # at its own space exponent
            (5, Fraction(0), 3),
            (6, Fraction(0), 3),
            (8, Fraction(0), 3),
        ],
    )
    def test_cycle_depths(self, k, eps, depth):
        assert build_plan(cycle_query(k), eps).depth == depth

    def test_star_single_round(self):
        assert build_plan(star_query(6), Fraction(0)).depth == 1

    def test_spider_two_rounds(self):
        """Example 4.2: SP_k needs only 2 rounds at eps = 0."""
        for k in (2, 3, 4):
            assert build_plan(spider_query(k), Fraction(0)).depth == 2

    @pytest.mark.parametrize("k", [3, 5, 9, 12])
    def test_depth_within_bounds(self, k):
        """Lower bound <= depth <= Lemma 4.3 upper bound."""
        query = line_query(k)
        for eps in (Fraction(0), Fraction(1, 2)):
            depth = build_plan(query, eps).depth
            assert depth <= round_upper_bound(query, eps)
            assert depth >= round_lower_bound(query, eps)


class TestPlanStructure:
    def test_single_round_when_in_gamma_one(self):
        plan = build_plan(line_query(2), Fraction(0))
        assert plan.depth == 1
        assert plan.rounds[0].steps[0].query == line_query(2)

    def test_every_operator_in_gamma_one(self):
        for eps in (Fraction(0), Fraction(1, 2)):
            plan = build_plan(line_query(9), eps)
            for round_ in plan.rounds:
                for step in round_.steps:
                    assert in_gamma_one(step.query, eps)

    def test_operators_cover_all_atoms(self):
        plan = build_plan(cycle_query(7), Fraction(0))
        used = {
            atom.name
            for round_ in plan.rounds
            for step in round_.steps
            for atom in step.query.atoms
        }
        base = {atom.name for atom in cycle_query(7).atoms}
        assert base <= used

    def test_disconnected_rejected(self):
        query = ConjunctiveQuery(
            [Atom("R", ("x", "y")), Atom("S", ("u", "v"))]
        )
        with pytest.raises(QueryError, match="connected"):
            build_plan(query, Fraction(0))

    def test_plan_validates(self):
        plan = build_plan(line_query(10), Fraction(0))
        validate_plan(plan)  # should not raise


class TestValidatePlanErrors:
    def test_unavailable_relation_rejected(self):
        query = line_query(2)
        bad = QueryPlan(
            query=query,
            rounds=(
                PlanRound(
                    steps=(
                        PlanStep(
                            output="V",
                            query=parse_query("S9(x,y)"),
                        ),
                    )
                ),
            ),
            output="V",
            eps=Fraction(0),
        )
        with pytest.raises(QueryError, match="unavailable"):
            validate_plan(bad)

    def test_operator_outside_gamma_rejected(self):
        query = line_query(3)
        bad = QueryPlan(
            query=query,
            rounds=(
                PlanRound(
                    steps=(PlanStep(output="V", query=query),)
                ),
            ),
            output="V",
            eps=Fraction(0),  # tau*(L3) = 2 > 1
        )
        with pytest.raises(QueryError, match="Gamma"):
            validate_plan(bad)

    def test_duplicate_view_rejected(self):
        query = line_query(2)
        step = PlanStep(output="S1", query=query)
        bad = QueryPlan(
            query=query,
            rounds=(PlanRound(steps=(step,)),),
            output="S1",
            eps=Fraction(1, 2),
        )
        with pytest.raises(QueryError, match="duplicate"):
            validate_plan(bad)

    def test_missing_output_rejected(self):
        query = line_query(2)
        bad = QueryPlan(
            query=query,
            rounds=(
                PlanRound(
                    steps=(PlanStep(output="V", query=query),)
                ),
            ),
            output="W",
            eps=Fraction(1, 2),
        )
        with pytest.raises(QueryError, match="never produces"):
            validate_plan(bad)


class TestGreedyGroupingMatchesKeps:
    """The LP-driven greedy reproduces k_eps = 2*floor(1/(1-eps))."""

    @pytest.mark.parametrize(
        "eps,group",
        [(Fraction(0), 2), (Fraction(1, 2), 4), (Fraction(2, 3), 6)],
    )
    def test_first_round_group_size(self, eps, group):
        # For a long chain, round-1 operators should be L_{k_eps}.
        plan = build_plan(line_query(12), eps)
        first_round_sizes = {
            step.query.num_atoms for step in plan.rounds[0].steps
        }
        assert max(first_round_sizes) == group
        assert covering_number(
            line_query(group)
        ) <= gamma_one_threshold(eps)
