"""Engine vs oracle parity for the multi-round plan executor.

Like the HyperCube parity suite: for any plan, database, seed and
server count the engine must produce exactly the same answers,
per-round received bits/tuples, view sizes, per-server answer counts
and capacity failures as the row-at-a-time reference
(:mod:`repro.oracle`) -- monolithic or streamed, compiled directly or
served by a session.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro import connect, oracle
from repro.core.families import (
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.plans import build_plan
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.generators import matching_database
from repro.algorithms.multiround import compile_multiround
from repro.engine import execute_plan
from tests.conftest import (
    assert_oracle_parity,
    capacity_failure,
    run_with_oracle,
)

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


def run_both(query, eps, database, p, seed, engine_options=None, **kwargs):
    plan = compile_multiround(build_plan(query, eps), p, seed=seed, **kwargs)
    return run_with_oracle(plan, database, **(engine_options or {}))


def random_database(query, n, rows_per_atom, rng):
    relations = [
        ColumnarRelation.from_rows(
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
    return ColumnarDatabase.from_relations(relations)


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
        execution, reference = run_both(query, eps, database, p=8, seed=4)
        assert_oracle_parity(execution, reference)

    @pytest.mark.parametrize("p", [1, 2, 7, 16])
    def test_parity_for_any_p(self, p):
        query = line_query(6)
        database = matching_database(query, n=30, rng=9)
        execution, reference = run_both(
            query, Fraction(0), database, p=p, seed=1
        )
        assert_oracle_parity(execution, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_parity_for_any_seed(self, seed):
        query = cycle_query(5)
        database = matching_database(query, n=24, rng=3)
        execution, reference = run_both(
            query, Fraction(0), database, p=4, seed=seed
        )
        assert_oracle_parity(execution, reference)


class TestExecutionModes:
    @pytest.mark.parametrize(
        "query,eps",
        PLANS,
        ids=lambda value: str(value)
        if isinstance(value, Fraction)
        else value.name,
    )
    def test_streamed_parity(self, query, eps):
        database = matching_database(query, n=40, rng=11)
        assert_oracle_parity(
            *run_both(
                query, eps, database, p=8, seed=4,
                engine_options={"chunk_rows": 5},
            )
        )

    @pytest.mark.parametrize(
        "chunk_rows", [None, 16], ids=["whole", "streamed"]
    )
    def test_session_parity(self, chunk_rows):
        # Views materialised by a session's statement equal the
        # reference's, as do its answers and loads.
        query = line_query(6)
        database = matching_database(query, n=120, rng=9)
        with connect(
            database, p=8, seed=1, chunk_rows=chunk_rows
        ) as session:
            result = session.execute(query, algorithm="multiround", eps=0)
        reference = oracle.execute_plan(result.plan, database)
        assert result.answers == reference.answers
        assert result.per_server == reference.per_server
        assert result.view_sizes == reference.view_sizes
        assert result.view_sizes
        assert [
            (r.received_bits, r.received_tuples) for r in result.report.rounds
        ] == [
            (r.received_bits, r.received_tuples)
            for r in reference.report.rounds
        ]


class TestRandomizedDatabases:
    @pytest.mark.parametrize("trial", range(6))
    def test_parity_on_random_inputs(self, trial):
        rng = random.Random(5000 + 131 * trial)
        query, eps = PLANS[trial % len(PLANS)]
        database = random_database(
            query, n=18, rows_per_atom=rng.randint(1, 60), rng=rng
        )
        p = rng.choice([2, 5, 8, 16])
        execution, reference = run_both(
            query, eps, database, p=p, seed=trial
        )
        assert_oracle_parity(execution, reference)

    def test_parity_with_empty_intermediate_views(self):
        """Disjoint relations: every view is empty after round 1."""
        query = line_query(4)
        relations = [
            ColumnarRelation.from_rows(
                atom.name,
                [(2 * index + 1, 2 * index + 2)],
                domain_size=40,
            )
            for index, atom in enumerate(query.atoms)
        ]
        database = ColumnarDatabase.from_relations(relations)
        execution, reference = run_both(
            query, Fraction(0), database, p=4, seed=0
        )
        assert_oracle_parity(execution, reference)
        assert reference.answers == ()


class TestCapacityParity:
    def test_capacity_exceeded_fires_identically(self):
        query = line_query(8)
        database = matching_database(query, n=60, rng=2)
        plan = compile_multiround(
            build_plan(query, Fraction(0)), 8, seed=3,
            enforce_capacity=True, capacity_c=0.01,
        )
        expected = capacity_failure(
            lambda: oracle.execute_plan(plan, database)
        )
        for chunk_rows in (None, 6):
            assert capacity_failure(
                lambda: execute_plan(plan, database, chunk_rows=chunk_rows)
            ) == expected

    def test_generous_capacity_passes_both(self):
        query = line_query(8)
        database = matching_database(query, n=40, rng=5)
        execution, reference = run_both(
            query,
            Fraction(1, 2),
            database,
            p=8,
            seed=0,
            enforce_capacity=True,
            capacity_c=8.0,
        )
        assert_oracle_parity(execution, reference)
