"""Unit tests for the Proposition 3.11 partial-answer algorithm."""

from __future__ import annotations

import statistics
from fractions import Fraction

import pytest

from repro.algorithms.registry import compile_with
from repro.core.bounds import one_round_answer_fraction
from repro.core.families import cycle_query, line_query
from repro.data.generators import matching_database
from tests.conftest import (
    assert_oracle_parity,
    exact_answers,
    run_pinned,
    run_with_oracle,
)


def _fraction(result, query, database):
    """Prop. 3.11's measured quantity: reported / |q(I)|."""
    return len(result.answers) / len(exact_answers(query, database))


def _virtual_points(result):
    return result.plan.rounds[0].steps[0].virtual_size


class TestSoundness:
    def test_reported_answers_are_correct(self):
        query = line_query(3)
        database = matching_database(query, n=60, rng=3)
        result = run_pinned(
            "partial", query, database, p=8, eps=Fraction(0), seed=1
        )
        assert set(result.answers) <= set(exact_answers(query, database))

    def test_fraction_fields_consistent(self):
        query = line_query(3)
        database = matching_database(query, n=60, rng=4)
        result = run_pinned(
            "partial", query, database, p=8, eps=Fraction(0), seed=2
        )
        # len(answers) / |q(I)| is the reported fraction only because
        # no answer is reported twice.
        assert list(result.answers) == sorted(set(result.answers))
        assert 0.0 < _fraction(result, query, database) <= 1.0

    def test_runs_one_round(self):
        query = cycle_query(3)
        database = matching_database(query, n=50, rng=5)
        result = run_pinned(
            "partial", query, database, p=8, eps=Fraction(0), seed=0
        )
        assert result.report.num_rounds == 1


class TestTheoremThreeThree:
    """Measured fraction tracks p^{-(tau*(1-eps)-1)} (Thm 3.3 tight)."""

    def test_l3_fraction_decays_like_one_over_p(self):
        query = line_query(3)  # tau* = 2, eps = 0 -> fraction ~ 1/p
        n, trials = 128, 8
        for p in (4, 16):
            fractions = []
            for seed in range(trials):
                database = matching_database(query, n=n, rng=seed)
                result = run_pinned(
                    "partial", query, database, p=p, eps=Fraction(0), seed=seed
                )
                fractions.append(_fraction(result, query, database))
            measured = statistics.mean(fractions)
            theory = one_round_answer_fraction(query, Fraction(0), p)
            assert 0.2 * theory <= measured <= 5 * theory, (p, measured, theory)

    def test_more_servers_fewer_answers(self):
        """The paper's punchline: more parallelism = smaller fraction."""
        query = line_query(3)
        n, trials = 128, 10
        means = []
        for p in (4, 64):
            fractions = []
            for seed in range(trials):
                database = matching_database(query, n=n, rng=100 + seed)
                result = run_pinned(
                    "partial", query, database, p=p, eps=Fraction(0), seed=seed
                )
                fractions.append(_fraction(result, query, database))
            means.append(statistics.mean(fractions))
        assert means[1] < means[0]

    def test_virtual_grid_exceeds_p_below_threshold(self):
        query = cycle_query(3)
        database = matching_database(query, n=30, rng=1)
        result = run_pinned(
            "partial", query, database, p=16, eps=Fraction(0), seed=1
        )
        # P > p, so the theory fraction p / P is below 1.
        assert _virtual_points(result) > 16

    def test_at_space_exponent_reports_everything(self):
        """At eps = eps(q) the virtual grid is ~p: full recovery."""
        query = line_query(3)  # eps(L3) = 1/2
        database = matching_database(query, n=64, rng=2)
        result = run_pinned(
            "partial", query, database, p=16, eps=Fraction(1, 2), seed=3
        )
        assert _fraction(result, query, database) == 1.0


class TestOracleParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_engine_equals_oracle(self, seed):
        query = cycle_query(3)
        database = matching_database(query, n=90, rng=50 + seed)
        plan = compile_with("partial", query, 16, eps=Fraction(0), seed=seed)
        assert_oracle_parity(*run_with_oracle(plan, database))
