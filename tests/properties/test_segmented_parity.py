"""Shard-wise segmented local evaluation vs the row reference.

For every algorithm, evaluating the workers shard by shard in
segmented passes over the delivery pools produces *bit-identical*
results to the backtracking join over each worker's pooled rows and
to the row-at-a-time reference (:mod:`repro.oracle`) -- merged answers,
per-server counts, materialised views and capacity failures --
whatever the shard budget.  These tests randomize queries, databases
and grid sizes to pin that.
"""

from __future__ import annotations

import random

import numpy
import pytest

from repro import oracle
from repro.core.families import cycle_query, line_query, star_query
from repro.core.plans import build_plan
from repro.core.query import parse_query
from repro.data.generators import (
    matching_database_columnar,
    skewed_database,
    skewed_database_columnar,
)
from repro.data.generators import matching_database
from repro.algorithms.multiround import compile_multiround
from repro.algorithms.registry import compile_with
from repro.engine import execute_plan
from repro.oracle import evaluate_query
from tests.conftest import (
    assert_oracle_parity,
    capacity_failure,
    pooled_rows,
    run_pinned,
    run_with_oracle,
)

QUERIES = [
    cycle_query(3),
    line_query(3),
    line_query(5),
    star_query(2),
    parse_query("q(x,y,z) = S1(x,y), S2(y,z)"),
]


def _route_hc(query, database, p, seed):
    """One HC round; returns (simulator, workers)."""
    from fractions import Fraction

    from repro.core.covers import fractional_vertex_cover
    from repro.core.shares import (
        allocate_integer_shares,
        share_exponents,
    )
    from repro.engine import GridSpec, HashRoute, RoundEngine
    from repro.mpc.model import MPCConfig
    from repro.mpc.routing import HashFamily
    from repro.mpc.simulator import MPCSimulator

    cover = fractional_vertex_cover(query)
    allocation = allocate_integer_shares(
        share_exponents(query, cover), p
    )
    grid = GridSpec.from_shares(
        query.variables, allocation.shares, HashFamily(seed)
    )
    config = MPCConfig(
        p=p, eps=Fraction(1, 2), c=4.0
    )
    simulator = MPCSimulator(
        config, input_bits=database.total_bits, enforce_capacity=False
    )
    engine = RoundEngine(simulator)
    steps = [
        HashRoute(relation=atom.name, atom=atom, grid=grid)
        for atom in query.atoms
    ]
    engine.run_round(steps, database.relations)
    return simulator, list(range(allocation.used_servers))


def _row_reference(query, simulator, workers):
    """The backtracking join per worker's pooled rows, then union."""
    per_server, union = [], set()
    for worker in workers:
        found = evaluate_query(
            query,
            {
                atom.name: pooled_rows(simulator, worker, atom.name)
                for atom in query.atoms
            },
        )
        per_server.append(len(found))
        union.update(found)
    return tuple(sorted(union)), per_server


def _collect(query, simulator, workers):
    """The engine path: the answer table as sorted row tuples."""
    from repro.engine import collect_answers

    table, per_server = collect_answers(query, simulator, workers)
    return tuple(map(tuple, table.tolist())), per_server


class TestSegmentedVsPerWorker:
    """The segmented evaluator agrees with the row reference."""

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matching_inputs(self, query, seed):
        rng = random.Random(seed)
        n = rng.choice([40, 97, 150])
        p = rng.choice([4, 16, 33])
        database = matching_database(query, n=n, rng=seed)
        simulator, workers = _route_hc(query, database, p, seed)
        answers, per_server = _collect(
            query, simulator, workers
        )
        reference = _row_reference(query, simulator, workers)
        assert (answers, per_server) == reference

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_many_shards_equal_one(self, query, monkeypatch):
        """A tiny shard budget (one worker per shard) changes nothing."""
        from repro.engine import collect_answers
        from repro.engine.local import _plan_eval_shards, _identity_key
        from repro.engine.streaming import SHARD_BYTES_ENV

        database = matching_database(query, n=97, rng=1)
        simulator, workers = _route_hc(query, database, 16, 1)
        one_shard = _collect(query, simulator, workers)
        assert one_shard == _row_reference(query, simulator, workers)
        monkeypatch.setenv(SHARD_BYTES_ENV, "1")
        shards = _plan_eval_shards(
            query, simulator, len(workers), _identity_key
        )
        assert len(shards) == len(workers) > 1
        assert (
            _collect(query, simulator, workers)
            == one_shard
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_worker_subsets(self, seed):
        """Prefixes (and nothing) evaluate; a non-prefix list raises."""
        query = cycle_query(3)
        database = matching_database(query, n=80, rng=seed)
        simulator, workers = _route_hc(query, database, 16, seed)
        for subset in ([0], list(range(5)), []):
            assert _collect(
                query, simulator, list(subset)
            ) == _row_reference(query, simulator, subset), subset
        for subset in ([2, 7, 11], [11, 2, 7]):
            with pytest.raises(ValueError, match="prefix"):
                _collect(query, simulator, list(subset))


class TestOracleParityThroughSegmented:
    """End-to-end: engine (segmented) vs oracle answers and counts."""

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_hypercube(self, query):
        database = matching_database(query, n=60, rng=5)
        assert_oracle_parity(
            *run_with_oracle(
                compile_with("hypercube", query, 16, seed=1), database
            )
        )

    def test_heavy_binding(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = skewed_database(query, n=120, rng=2, heavy_fraction=0.4)
        assert_oracle_parity(
            *run_with_oracle(
                compile_with("hypercube", query, 16, seed=3), database
            )
        )

    def test_multiround_views(self):
        """Views and per-server counts agree round by round."""
        from fractions import Fraction

        query = line_query(4)
        plan = compile_multiround(build_plan(query, Fraction(0)), 8, seed=2)
        database = matching_database(query, n=50, rng=7)
        assert_oracle_parity(*run_with_oracle(plan, database))

    def test_capacity_exceeded_parity(self):
        """Engine and oracle blow the same budget at the same worker."""
        query = cycle_query(3)
        database = matching_database(query, n=100, rng=0)
        plan = compile_with(
            "hypercube", query, 16, seed=0,
            capacity_c=0.01, enforce_capacity=True,
        )
        assert capacity_failure(
            lambda: execute_plan(plan, database)
        ) == capacity_failure(lambda: oracle.execute_plan(plan, database))


class TestColumnarGenerators:
    """The large-n generators agree with the executors end to end."""

    def test_matching_columnar_structure(self):
        query = cycle_query(3)
        database = matching_database_columnar(query, n=200, seed=4)
        for relation in database:
            assert len(relation) == 200
            # Every column is a permutation of 1..n.
            for column in relation.columns:
                assert numpy.array_equal(
                    numpy.sort(column), numpy.arange(1, 201)
                )
            # Lexicographically sorted (first column ascending).
            assert numpy.array_equal(
                relation.columns[0], numpy.arange(1, 201)
            )

    def test_matching_columnar_runs_hypercube(self):
        query = line_query(3)
        database = matching_database_columnar(query, n=150, seed=1)
        result = run_pinned(
            "hypercube", query, database, p=16, seed=0
        )
        # L_k over matchings chains end to end: n answers.
        assert len(result.answers) == 150

    def test_skewed_columnar_chunking_invariant(self):
        """Chunk size never changes the generated instance."""
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        small = skewed_database_columnar(
            query, n=500, seed=9, heavy_fraction=0.3, chunk_rows=64
        )
        large = skewed_database_columnar(
            query, n=500, seed=9, heavy_fraction=0.3, chunk_rows=1 << 18
        )
        for name in ("S1", "S2"):
            for a, b in zip(small[name].columns, large[name].columns):
                assert numpy.array_equal(a, b)

    def test_skewed_columnar_heavy_value_present(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = skewed_database_columnar(
            query, n=400, seed=0, heavy_fraction=0.5
        )
        aware = run_pinned(
            "hypercube", query, database, p=16, seed=0
        )
        assert any(1 in values for values in aware.heavy_hitters.values())
