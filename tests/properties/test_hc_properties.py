"""Property-based end-to-end tests: HC and plans vs the exact join."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core.families import cycle_query, line_query, star_query
from repro.core.plans import build_plan
from repro.data.generators import matching_database
from repro.algorithms.multiround import compile_multiround
from repro.engine import execute_plan
from tests.conftest import exact_answers, run_pinned


QUERY_STRATEGY = st.one_of(
    st.integers(min_value=1, max_value=5).map(line_query),
    st.integers(min_value=3, max_value=5).map(cycle_query),
    st.integers(min_value=1, max_value=4).map(star_query),
)


class TestHyperCubeNeverWrong:
    @given(
        query=QUERY_STRATEGY,
        p=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=4, max_value=32),
    )
    @settings(max_examples=30, deadline=None)
    def test_hc_equals_truth(self, query, p, seed, n):
        database = matching_database(query, n=n, rng=seed)
        result = run_pinned("hypercube", query, database, p=p, seed=seed)
        assert result.answers == exact_answers(query, database)

    @given(
        query=QUERY_STRATEGY,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_used_servers_never_exceed_p(self, query, seed):
        database = matching_database(query, n=10, rng=seed)
        result = run_pinned("hypercube", query, database, p=13, seed=seed)
        assert result.plan.allocation.used_servers <= 13


class TestPlansNeverWrong:
    @given(
        k=st.integers(min_value=2, max_value=9),
        eps=st.sampled_from([Fraction(0), Fraction(1, 2)]),
        seed=st.integers(min_value=0, max_value=2**10),
    )
    @settings(max_examples=15, deadline=None)
    def test_line_plans(self, k, eps, seed):
        query = line_query(k)
        database = matching_database(query, n=12, rng=seed)
        plan = build_plan(query, eps)
        result = execute_plan(compile_multiround(plan, 6, seed=seed), database)
        assert result.answers == exact_answers(query, database)
        assert result.report.num_rounds == plan.depth

    @given(
        k=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=2**10),
    )
    @settings(max_examples=10, deadline=None)
    def test_cycle_plans(self, k, seed):
        query = cycle_query(k)
        database = matching_database(query, n=10, rng=seed)
        plan = build_plan(query, Fraction(0))
        result = execute_plan(compile_multiround(plan, 4, seed=seed), database)
        assert result.answers == exact_answers(query, database)
