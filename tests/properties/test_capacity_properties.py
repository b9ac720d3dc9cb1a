"""Property tests: communication budgets are actually respected."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core.families import cycle_query, line_query
from repro.core.plans import build_plan
from repro.data.generators import matching_database
from repro.algorithms.multiround import compile_multiround
from repro.engine import execute_plan
from tests.conftest import run_pinned


class TestHCCapacity:
    @given(
        p=st.sampled_from([8, 16, 27, 64]),
        seed=st.integers(min_value=0, max_value=2**12),
    )
    @settings(max_examples=15, deadline=None)
    def test_hc_load_within_constant_of_capacity(self, p, seed):
        """At its own space exponent, HC's received bits stay within a
        small constant of c*N/p^{1-eps} at every server (Prop 3.2's
        high-probability event, checked on every draw)."""
        query = cycle_query(3)
        database = matching_database(query, n=120, rng=seed)
        result = run_pinned(
            "hypercube", query, database, p=p, seed=seed, capacity_c=6.0
        )
        stats = result.report.rounds[0]
        assert stats.max_received_bits <= stats.capacity_bits

    @given(seed=st.integers(min_value=0, max_value=2**12))
    @settings(max_examples=10, deadline=None)
    def test_total_bits_match_replication_budget(self, seed):
        """Total traffic = N * replication; replication <= 2 p^eps."""
        query = cycle_query(3)  # eps = 1/3
        database = matching_database(query, n=100, rng=seed)
        result = run_pinned("hypercube", query, database, p=27, seed=seed)
        assert result.report.replication_rate <= 2 * 27 ** (1 / 3)


class TestPlanCapacity:
    @given(
        k=st.sampled_from([4, 8]),
        eps=st.sampled_from([Fraction(0), Fraction(1, 2)]),
        seed=st.integers(min_value=0, max_value=2**10),
    )
    @settings(max_examples=10, deadline=None)
    def test_every_round_within_budget(self, k, eps, seed):
        """Each round of a plan execution respects c*N/p^{1-eps} bits
        per worker (the Proposition 4.1 guarantee on matchings)."""
        query = line_query(k)
        database = matching_database(query, n=80, rng=seed)
        plan = build_plan(query, eps)
        result = execute_plan(
            compile_multiround(plan, 8, seed=seed, capacity_c=8.0), database
        )
        for stats in result.report.rounds:
            assert stats.max_received_bits <= stats.capacity_bits

    @given(seed=st.integers(min_value=0, max_value=2**10))
    @settings(max_examples=8, deadline=None)
    def test_intermediate_views_stay_matching_sized(self, seed):
        """On matchings, every intermediate view of a chain plan has
        exactly n tuples -- no intermediate blow-up (the reason bushy
        chain plans are safe at eps = 0)."""
        query = line_query(8)
        database = matching_database(query, n=40, rng=seed)
        plan = build_plan(query, Fraction(0))
        result = execute_plan(compile_multiround(plan, 4, seed=seed), database)
        assert all(size == 40 for size in result.view_sizes.values())
