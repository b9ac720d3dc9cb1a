"""Pure vs numpy engine parity for the multi-round plan executor.

Like the HyperCube parity suite: for any plan, database, seed and
server count the vectorized engine must produce exactly the same
answers, per-round received bits/tuples, view sizes, per-server
answer counts and capacity failures as the pure reference.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.backend import numpy_available

if not numpy_available():
    pytest.skip("numpy backend unavailable", allow_module_level=True)

from repro.core.families import (
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.plans import build_plan
from repro.data.database import Database, Relation
from repro.data.matching import matching_database
from repro.mpc.simulator import CapacityExceeded
from repro.algorithms.multiround import compile_multiround
from repro.engine import execute_plan

PLANS = [
    (line_query(4), Fraction(0)),
    (line_query(8), Fraction(0)),
    (line_query(8), Fraction(1, 2)),
    (line_query(16), Fraction(1, 2)),
    (cycle_query(5), Fraction(0)),
    (cycle_query(6), Fraction(0)),
    (spider_query(3), Fraction(0)),
    (star_query(4), Fraction(0)),
]


def run_both(query, eps, database, p, seed, **kwargs):
    plan = build_plan(query, eps)
    pure = execute_plan(
        compile_multiround(plan, p, seed=seed, backend="pure", **kwargs),
        database,
    )
    vectorized = execute_plan(
        compile_multiround(plan, p, seed=seed, backend="numpy", **kwargs),
        database,
    )
    return pure, vectorized


def assert_parity(pure, vectorized):
    assert vectorized.answers == pure.answers
    assert vectorized.report.num_rounds == pure.report.num_rounds
    assert vectorized.view_sizes == pure.view_sizes
    assert vectorized.per_server_views == pure.per_server_views
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
    @pytest.mark.parametrize(
        "query,eps",
        PLANS,
        ids=lambda value: str(value)
        if isinstance(value, Fraction)
        else value.name,
    )
    def test_parity_on_matchings(self, query, eps):
        database = matching_database(query, n=40, rng=11)
        pure, vectorized = run_both(query, eps, database, p=8, seed=4)
        assert_parity(pure, vectorized)

    @pytest.mark.parametrize("p", [1, 2, 7, 16])
    def test_parity_for_any_p(self, p):
        query = line_query(6)
        database = matching_database(query, n=30, rng=9)
        pure, vectorized = run_both(
            query, Fraction(0), database, p=p, seed=1
        )
        assert_parity(pure, vectorized)

    @pytest.mark.parametrize("seed", range(4))
    def test_parity_for_any_seed(self, seed):
        query = cycle_query(5)
        database = matching_database(query, n=24, rng=3)
        pure, vectorized = run_both(
            query, Fraction(0), database, p=4, seed=seed
        )
        assert_parity(pure, vectorized)


class TestRandomizedDatabases:
    @pytest.mark.parametrize("trial", range(6))
    def test_parity_on_random_inputs(self, trial):
        rng = random.Random(5000 + 131 * trial)
        query, eps = PLANS[trial % len(PLANS)]
        database = random_database(
            query, n=18, rows_per_atom=rng.randint(1, 60), rng=rng
        )
        p = rng.choice([2, 5, 8, 16])
        pure, vectorized = run_both(
            query, eps, database, p=p, seed=trial
        )
        assert_parity(pure, vectorized)

    def test_parity_with_empty_intermediate_views(self):
        """Disjoint relations: every view is empty after round 1."""
        query = line_query(4)
        relations = [
            Relation.from_tuples(
                atom.name,
                [(2 * index + 1, 2 * index + 2)],
                domain_size=40,
            )
            for index, atom in enumerate(query.atoms)
        ]
        database = Database.from_relations(relations)
        pure, vectorized = run_both(
            query, Fraction(0), database, p=4, seed=0
        )
        assert_parity(pure, vectorized)
        assert pure.answers == ()


class TestCapacityParity:
    def test_capacity_exceeded_fires_identically(self):
        query = line_query(8)
        database = matching_database(query, n=60, rng=2)
        plan = build_plan(query, Fraction(0))
        failures = {}
        for backend in ("pure", "numpy"):
            with pytest.raises(CapacityExceeded) as info:
                execute_plan(
                    compile_multiround(
                        plan, 8, seed=3, backend=backend,
                        enforce_capacity=True, capacity_c=0.01,
                    ),
                    database,
                )
            failures[backend] = info.value
        pure, vectorized = failures["pure"], failures["numpy"]
        assert vectorized.worker == pure.worker
        assert vectorized.received_bits == pure.received_bits
        assert vectorized.capacity_bits == pure.capacity_bits
        assert vectorized.round_index == pure.round_index

    def test_generous_capacity_passes_both(self):
        query = line_query(8)
        database = matching_database(query, n=40, rng=5)
        pure, vectorized = run_both(
            query,
            Fraction(1, 2),
            database,
            p=8,
            seed=0,
            enforce_capacity=True,
            capacity_c=8.0,
        )
        assert_parity(pure, vectorized)
