"""Property-based tests for matching-database invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.families import line_query, star_query
from repro.data.generators import matching_database, random_matching
from tests.conftest import exact_answers


class TestMatchingInvariants:
    @given(
        arity=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_random_matching_is_a_matching(self, arity, n, seed):
        relation = random_matching("S", arity, n, random.Random(seed))
        assert relation.is_matching()
        assert len(relation) == n

    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_are_keys(self, n, seed):
        relation = random_matching("S", 3, n, random.Random(seed))
        for column in relation.columns:
            assert len(set(column.tolist())) == n

    @given(
        k=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_line_query_output_is_matching_shaped(self, k, n, seed):
        """On matchings, L_k has exactly n answers and every output
        attribute is a key (Section 2.5: the answer to a connected
        query on a matching database has every attribute a key)."""
        query = line_query(k)
        database = matching_database(query, n=n, rng=seed)
        answers = exact_answers(query, database)
        assert len(answers) == n
        for position in range(len(query.head)):
            column = {row[position] for row in answers}
            assert len(column) == n

    @given(
        k=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_star_query_has_n_answers(self, k, n, seed):
        query = star_query(k)
        database = matching_database(query, n=n, rng=seed)
        answers = exact_answers(query, database)
        assert len(answers) == n

    @given(
        n=st.integers(min_value=2, max_value=25),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_answers_bounded_by_n_for_connected_queries(self, n, seed):
        """|q(I)| <= n for any connected q on a matching database."""
        from repro.core.families import cycle_query

        for query in (cycle_query(3), line_query(3)):
            database = matching_database(query, n=n, rng=seed)
            answers = exact_answers(query, database)
            assert len(answers) <= n
