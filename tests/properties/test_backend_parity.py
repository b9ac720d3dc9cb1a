"""Pure vs numpy engine parity for the HyperCube executor.

The ``numpy`` backend is a pure performance play: for any query,
database, seed and server count it must produce *exactly* the same
answers, per-round received bits/tuples, per-server answer counts and
capacity failures as the ``pure`` reference implementation.  These
tests drive both engines over randomized inputs and assert equality
of everything observable.
"""

from __future__ import annotations

import random

import pytest

from repro.backend import numpy_available

if not numpy_available():
    pytest.skip("numpy backend unavailable", allow_module_level=True)

import numpy

from repro.core.families import (
    binomial_query,
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.query import parse_query
from repro.data.database import Database, Relation
from repro.data.matching import matching_database
from repro.mpc.simulator import CapacityExceeded
from tests.conftest import run_pinned

QUERIES = [
    cycle_query(3),
    cycle_query(4),
    line_query(2),
    line_query(4),
    star_query(3),
    spider_query(2),
    binomial_query(3, 2),
    parse_query("R(x,y,z), S(z,w)"),
]


def run_both(query, database, p, seed, **kwargs):
    pure = run_pinned(
        "hypercube", query, database, p=p, seed=seed, backend="pure", **kwargs
    )
    vectorized = run_pinned(
        "hypercube", query, database, p=p, seed=seed, backend="numpy", **kwargs
    )
    return pure, vectorized


def assert_parity(pure, vectorized):
    assert vectorized.answers == pure.answers
    assert vectorized.per_server == pure.per_server
    assert vectorized.plan.allocation == pure.plan.allocation
    assert len(vectorized.report.rounds) == len(pure.report.rounds)
    for round_pure, round_vec in zip(
        pure.report.rounds, vectorized.report.rounds
    ):
        assert round_vec.received_bits == round_pure.received_bits
        assert round_vec.received_tuples == round_pure.received_tuples
        assert round_vec.capacity_bits == round_pure.capacity_bits


def random_database(query, n, rows_per_atom, rng):
    relations = [
        Relation.from_tuples(
            atom.name,
            [
                tuple(rng.randint(1, n) for _ in range(atom.arity))
                for _ in range(rows_per_atom)
            ],
            domain_size=n,
            arity=atom.arity,
        )
        for atom in query.atoms
    ]
    return Database.from_relations(relations)


class TestMatchingDatabases:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_parity_on_matchings(self, query):
        database = matching_database(query, n=60, rng=11)
        pure, vectorized = run_both(query, database, p=16, seed=4)
        assert_parity(pure, vectorized)

    @pytest.mark.parametrize("p", [1, 2, 5, 16, 30, 64])
    def test_parity_for_any_p(self, p):
        query = cycle_query(3)
        database = matching_database(query, n=40, rng=7)
        pure, vectorized = run_both(query, database, p=p, seed=1)
        assert_parity(pure, vectorized)

    @pytest.mark.parametrize("seed", range(5))
    def test_parity_for_any_seed(self, seed):
        query = line_query(4)
        database = matching_database(query, n=40, rng=13)
        pure, vectorized = run_both(query, database, p=9, seed=seed)
        assert_parity(pure, vectorized)


class TestRandomizedDatabases:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    @pytest.mark.parametrize("trial", range(3))
    def test_parity_on_random_skewed_inputs(self, query, trial):
        rng = random.Random(1000 * trial + 17)
        database = random_database(
            query, n=25, rows_per_atom=rng.randint(1, 80), rng=rng
        )
        p = rng.choice([2, 7, 16, 27])
        pure, vectorized = run_both(query, database, p=p, seed=trial)
        assert_parity(pure, vectorized)

    def test_parity_with_repeated_variable_atoms(self):
        query = parse_query("q(x,y) = S(x, x), T(x, y)")
        rng = random.Random(3)
        database = random_database(query, n=15, rows_per_atom=50, rng=rng)
        pure, vectorized = run_both(query, database, p=8, seed=0)
        assert_parity(pure, vectorized)
        assert pure.answers  # the instance actually exercises the join


class TestCapacityParity:
    def test_capacity_exceeded_fires_identically(self):
        """A too-tight budget must abort both engines at the same
        worker with the same byte count."""
        query = cycle_query(3)
        database = matching_database(query, n=80, rng=2)
        failures = {}
        for backend in ("pure", "numpy"):
            with pytest.raises(CapacityExceeded) as info:
                run_pinned(
                    "hypercube", query, database, p=16, seed=3,
                    backend=backend, enforce_capacity=True, capacity_c=0.01,
                )
            failures[backend] = info.value
        pure, vectorized = failures["pure"], failures["numpy"]
        assert vectorized.worker == pure.worker
        assert vectorized.received_bits == pure.received_bits
        assert vectorized.capacity_bits == pure.capacity_bits
        assert vectorized.round_index == pure.round_index

    def test_generous_capacity_passes_both(self):
        query = cycle_query(3)
        database = matching_database(query, n=40, rng=5)
        pure, vectorized = run_both(
            query,
            database,
            p=8,
            seed=0,
            enforce_capacity=True,
            capacity_c=6.0,
        )
        assert_parity(pure, vectorized)
