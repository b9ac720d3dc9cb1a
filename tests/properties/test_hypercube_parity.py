"""Engine vs oracle parity for the HyperCube executor.

The column-wise engine must produce *exactly* what the row-at-a-time
reference (:mod:`repro.oracle`) produces for any query, database, seed
and server count: the same answers, per-round received bits/tuples,
per-server answer counts and capacity failures -- monolithic or
streamed in blocks, compiled directly or served by a session.  These
tests drive both over randomized inputs and assert equality of
everything observable.
"""

from __future__ import annotations

import random

import pytest

from repro import connect, oracle
from repro.algorithms.registry import compile_with
from repro.core.families import (
    binomial_query,
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.query import parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.generators import matching_database
from repro.engine import execute_plan
from tests.conftest import (
    assert_oracle_parity,
    capacity_failure,
    run_with_oracle,
)

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


def run_both(query, database, p, seed, engine_options=None, **kwargs):
    plan = compile_with("hypercube", query, p, seed=seed, **kwargs)
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
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_parity_on_matchings(self, query):
        database = matching_database(query, n=60, rng=11)
        assert_oracle_parity(*run_both(query, database, p=16, seed=4))

    @pytest.mark.parametrize("p", [1, 2, 5, 16, 30, 64])
    def test_parity_for_any_p(self, p):
        query = cycle_query(3)
        database = matching_database(query, n=40, rng=7)
        assert_oracle_parity(*run_both(query, database, p=p, seed=1))

    @pytest.mark.parametrize("seed", range(5))
    def test_parity_for_any_seed(self, seed):
        query = line_query(4)
        database = matching_database(query, n=40, rng=13)
        assert_oracle_parity(*run_both(query, database, p=9, seed=seed))


class TestExecutionModes:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_streamed_parity(self, query):
        database = matching_database(query, n=60, rng=11)
        assert_oracle_parity(
            *run_both(
                query, database, p=16, seed=4,
                engine_options={"chunk_rows": 7},
            )
        )

    @pytest.mark.parametrize(
        "chunk_rows", [None, 9], ids=["whole", "streamed"]
    )
    def test_session_parity(self, chunk_rows):
        # A statement served by a session equals the reference on the
        # plan it executed.
        query = cycle_query(3)
        database = matching_database(query, n=120, rng=3)
        with connect(
            database, p=16, seed=2, chunk_rows=chunk_rows
        ) as session:
            result = session.execute(query, algorithm="hypercube")
        reference = oracle.execute_plan(result.plan, database)
        assert result.answers == reference.answers
        assert result.per_server == reference.per_server
        assert [
            (r.received_bits, r.received_tuples) for r in result.report.rounds
        ] == [
            (r.received_bits, r.received_tuples)
            for r in reference.report.rounds
        ]


class TestRandomizedDatabases:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    @pytest.mark.parametrize("trial", range(3))
    def test_parity_on_random_skewed_inputs(self, query, trial):
        rng = random.Random(1000 * trial + 17)
        database = random_database(
            query, n=25, rows_per_atom=rng.randint(1, 80), rng=rng
        )
        p = rng.choice([2, 7, 16, 27])
        assert_oracle_parity(*run_both(query, database, p=p, seed=trial))

    def test_parity_with_repeated_variable_atoms(self):
        query = parse_query("q(x,y) = S(x, x), T(x, y)")
        rng = random.Random(3)
        database = random_database(query, n=15, rows_per_atom=50, rng=rng)
        execution, reference = run_both(query, database, p=8, seed=0)
        assert_oracle_parity(execution, reference)
        assert reference.answers  # the instance actually exercises the join


class TestCapacityParity:
    def test_capacity_exceeded_fires_identically(self):
        """A too-tight budget must abort the engine (whole or streamed)
        and the oracle at the same worker with the same byte count."""
        query = cycle_query(3)
        database = matching_database(query, n=80, rng=2)
        plan = compile_with(
            "hypercube", query, 16, seed=3,
            enforce_capacity=True, capacity_c=0.01,
        )
        expected = capacity_failure(
            lambda: oracle.execute_plan(plan, database)
        )
        for chunk_rows in (None, 5):
            assert capacity_failure(
                lambda: execute_plan(plan, database, chunk_rows=chunk_rows)
            ) == expected

    def test_generous_capacity_passes_both(self):
        query = cycle_query(3)
        database = matching_database(query, n=40, rng=5)
        assert_oracle_parity(
            *run_both(
                query,
                database,
                p=8,
                seed=0,
                enforce_capacity=True,
                capacity_c=6.0,
            )
        )
