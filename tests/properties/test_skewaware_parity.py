"""Pure vs numpy engine parity for skew-aware HyperCube.

The vectorized heavy-hitter detection (unique/counts) and the
signature-grouped heavy/light partition routing must be bit-identical
to the per-tuple reference: same heavy hitters, same answers, same
per-round received bits/tuples, same per-server answer counts, same
capacity failures -- on matchings, adversarial funnels and randomized
skewed inputs alike.
"""

from __future__ import annotations

import random

import pytest

from repro.backend import numpy_available

if not numpy_available():
    pytest.skip("numpy backend unavailable", allow_module_level=True)

from repro.algorithms.skewaware import detect_heavy_hitters
from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import parse_query
from repro.data.database import Database, Relation
from repro.data.generators import skewed_database
from repro.data.matching import matching_database
from repro.mpc.simulator import CapacityExceeded
from tests.conftest import run_pinned

QUERIES = [
    parse_query("q(x,y,z) = S1(x,y), S2(y,z)"),
    cycle_query(3),
    line_query(4),
    star_query(3),
    parse_query("R(x,y,z), S(z,w)"),
]


def funnel_database(n=128):
    return Database.from_relations(
        [
            Relation.from_tuples(
                "S1", [(i, 1) for i in range(1, n + 1)], n
            ),
            Relation.from_tuples(
                "S2", [(1, i) for i in range(1, n + 1)], n
            ),
        ]
    )


def run_both(query, database, p, seed, **kwargs):
    pure = run_pinned(
        "skewaware", query, database, p=p, seed=seed, backend="pure", **kwargs
    )
    vectorized = run_pinned(
        "skewaware", query, database, p=p, seed=seed, backend="numpy", **kwargs
    )
    return pure, vectorized


def assert_parity(pure, vectorized):
    assert vectorized.answers == pure.answers
    assert vectorized.heavy_hitters == pure.heavy_hitters
    assert vectorized.plan.allocation == pure.plan.allocation
    assert vectorized.per_server == pure.per_server
    assert len(vectorized.report.rounds) == len(pure.report.rounds)
    for round_pure, round_vec in zip(
        pure.report.rounds, vectorized.report.rounds
    ):
        assert round_vec.received_bits == round_pure.received_bits
        assert round_vec.received_tuples == round_pure.received_tuples


class TestDetectionParity:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_heavy_hitters_identical(self, query):
        database = skewed_database(query, n=50, rng=3, heavy_fraction=0.4)
        shares = {v: 4 for v in query.variables}
        pure = detect_heavy_hitters(
            query, database, shares, backend="pure"
        )
        vectorized = detect_heavy_hitters(
            query, database, shares, backend="numpy"
        )
        assert pure == vectorized
        assert any(values for values in pure.values())

    def test_no_heavy_hitters_on_matchings(self):
        query = cycle_query(3)
        database = matching_database(query, n=60, rng=1)
        shares = {v: 4 for v in query.variables}
        assert detect_heavy_hitters(
            query, database, shares, backend="numpy"
        ) == detect_heavy_hitters(query, database, shares, backend="pure")


class TestFunnel:
    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_parity_on_funnel(self, p):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(128)
        pure, vectorized = run_both(query, database, p=p, seed=3)
        assert_parity(pure, vectorized)
        assert pure.heavy_hitters["y"]
        assert len(pure.answers) == 128 * 128

    def test_parity_beats_plain_hc(self):
        """Both backends agree AND both beat plain HC's max load."""
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(128)
        plain = run_pinned("hypercube", query, database, p=16, seed=5)
        pure, vectorized = run_both(query, database, p=16, seed=5)
        assert_parity(pure, vectorized)
        assert pure.report.max_load_tuples < plain.report.max_load_tuples


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
        pure, vectorized = run_both(query, database, p=p, seed=trial)
        assert_parity(pure, vectorized)

    @pytest.mark.parametrize("seed", range(3))
    def test_parity_on_matchings_equals_plain_hc(self, seed):
        """No heavy hitters: both backends route like plain HC."""
        query = line_query(3)
        database = matching_database(query, n=40, rng=7)
        pure, vectorized = run_both(query, database, p=9, seed=seed)
        assert_parity(pure, vectorized)
        plain = run_pinned("hypercube", query, database, p=9, seed=seed)
        assert pure.answers == plain.answers
        assert (
            pure.report.rounds[0].received_bits
            == plain.report.rounds[0].received_bits
        )

    def test_parity_with_repeated_variable_atoms(self):
        query = parse_query("q(x,y) = S(x, x), T(x, y)")
        database = skewed_database(query, n=15, rng=2, heavy_fraction=0.5)
        pure, vectorized = run_both(query, database, p=8, seed=0)
        assert_parity(pure, vectorized)


class TestCapacityParity:
    def test_capacity_exceeded_fires_identically(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(96)
        failures = {}
        for backend in ("pure", "numpy"):
            with pytest.raises(CapacityExceeded) as info:
                run_pinned(
                    "skewaware", query, database, p=16, seed=3,
                    backend=backend, enforce_capacity=True, capacity_c=0.01,
                )
            failures[backend] = info.value
        pure, vectorized = failures["pure"], failures["numpy"]
        assert vectorized.worker == pure.worker
        assert vectorized.received_bits == pure.received_bits
        assert vectorized.round_index == pure.round_index

    def test_generous_capacity_passes_both(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(64)
        pure, vectorized = run_both(
            query,
            database,
            p=16,
            seed=0,
            enforce_capacity=True,
            capacity_c=64.0,
        )
        assert_parity(pure, vectorized)
