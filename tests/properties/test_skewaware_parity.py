"""Engine vs oracle parity for skew-aware HyperCube.

The vectorized heavy-hitter detection (unique/counts) and the
signature-grouped heavy/light partition routing must be bit-identical
to the per-tuple reference (:mod:`repro.oracle`): same heavy hitters,
same answers, same per-round received bits/tuples, same per-server
answer counts, same capacity failures -- on matchings, adversarial
funnels and randomized skewed inputs alike, whole or streamed.
"""

from __future__ import annotations

import random

import pytest

from repro import oracle
from repro.algorithms.registry import compile_with
from repro.algorithms.skewaware import detect_heavy_hitters
from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.generators import matching_database, skewed_database
from repro.engine import execute_plan
from tests.conftest import (
    assert_oracle_parity,
    capacity_failure,
    run_pinned,
    run_with_oracle,
)

QUERIES = [
    parse_query("q(x,y,z) = S1(x,y), S2(y,z)"),
    cycle_query(3),
    line_query(4),
    star_query(3),
    parse_query("R(x,y,z), S(z,w)"),
]


def funnel_database(n=128):
    return ColumnarDatabase.from_relations(
        [
            ColumnarRelation.from_rows(
                "S1", [(i, 1) for i in range(1, n + 1)], n
            ),
            ColumnarRelation.from_rows(
                "S2", [(1, i) for i in range(1, n + 1)], n
            ),
        ]
    )


def run_both(query, database, p, seed, engine_options=None, **kwargs):
    plan = compile_with("skewaware", query, p, seed=seed, **kwargs)
    return run_with_oracle(plan, database, **(engine_options or {}))


def assert_parity(execution, reference):
    assert_oracle_parity(execution, reference)
    assert reference.heavy_hitters is not None


class TestDetectionParity:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_heavy_hitters_identical(self, query):
        database = skewed_database(query, n=50, rng=3, heavy_fraction=0.4)
        shares = {v: 4 for v in query.variables}
        reference = oracle.heavy_hitters(query, database, shares)
        assert detect_heavy_hitters(query, database, shares) == reference
        assert any(values for values in reference.values())

    def test_no_heavy_hitters_on_matchings(self):
        query = cycle_query(3)
        database = matching_database(query, n=60, rng=1)
        shares = {v: 4 for v in query.variables}
        detected = detect_heavy_hitters(query, database, shares)
        assert detected == oracle.heavy_hitters(query, database, shares)
        assert not any(detected.values())


class TestFunnel:
    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_parity_on_funnel(self, p):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(128)
        execution, reference = run_both(query, database, p=p, seed=3)
        assert_parity(execution, reference)
        assert reference.heavy_hitters["y"]
        assert len(reference.answers) == 128 * 128

    @pytest.mark.parametrize("chunk_rows", [1, 17])
    def test_streamed_parity_on_funnel(self, chunk_rows):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        assert_parity(
            *run_both(
                query, funnel_database(64), p=16, seed=3,
                engine_options={"chunk_rows": chunk_rows},
            )
        )

    def test_parity_beats_plain_hc(self):
        """Engine and oracle agree AND both beat plain HC's max load."""
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(128)
        plain = run_pinned("hypercube", query, database, p=16, seed=5)
        execution, reference = run_both(query, database, p=16, seed=5)
        assert_parity(execution, reference)
        assert (
            reference.report.max_load_tuples < plain.report.max_load_tuples
        )


class TestRandomizedDatabases:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    @pytest.mark.parametrize("trial", range(3))
    def test_parity_on_random_skewed_inputs(self, query, trial):
        rng = random.Random(777 * trial + 5)
        database = skewed_database(
            query,
            n=30,
            rng=rng,
            heavy_fraction=rng.choice([0.0, 0.3, 0.7]),
        )
        p = rng.choice([2, 7, 16, 27])
        assert_parity(*run_both(query, database, p=p, seed=trial))

    @pytest.mark.parametrize("seed", range(3))
    def test_parity_on_matchings_equals_plain_hc(self, seed):
        """No heavy hitters: engine and oracle route like plain HC."""
        query = line_query(3)
        database = matching_database(query, n=40, rng=7)
        execution, reference = run_both(query, database, p=9, seed=seed)
        assert_parity(execution, reference)
        plain = run_pinned("hypercube", query, database, p=9, seed=seed)
        assert reference.answers == plain.answers
        assert (
            reference.report.rounds[0].received_bits
            == plain.report.rounds[0].received_bits
        )

    def test_parity_with_repeated_variable_atoms(self):
        query = parse_query("q(x,y) = S(x, x), T(x, y)")
        database = skewed_database(query, n=15, rng=2, heavy_fraction=0.5)
        assert_parity(*run_both(query, database, p=8, seed=0))


class TestCapacityParity:
    def test_capacity_exceeded_fires_identically(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(96)
        plan = compile_with(
            "skewaware", query, 16, seed=3,
            enforce_capacity=True, capacity_c=0.01,
        )
        expected = capacity_failure(
            lambda: oracle.execute_plan(plan, database)
        )
        for chunk_rows in (None, 7):
            assert capacity_failure(
                lambda: execute_plan(plan, database, chunk_rows=chunk_rows)
            ) == expected

    def test_generous_capacity_passes_both(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(64)
        assert_parity(
            *run_both(
                query,
                database,
                p=16,
                seed=0,
                enforce_capacity=True,
                capacity_c=64.0,
            )
        )
