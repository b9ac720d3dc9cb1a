"""Engine vs oracle parity for HyperCube's heavy-hitter binding.

The vectorized heavy-hitter detection (unique/counts) and the
signature-grouped heavy/light partition routing must be bit-identical
to the per-tuple reference (:mod:`repro.oracle`): same heavy hitters,
same answers, same per-round received bits/tuples, same per-server
answer counts, same capacity failures -- on matchings, adversarial
funnels and randomized skewed inputs alike, whole or streamed.

:class:`TestPinnedRouting` pins per-server answer counts, per-round
loads and bound heavy sets on every ``core/families`` shape: on
skewed data as the separate skew-aware compiler routed them before it
was folded into HyperCube, on matching data as plain HyperCube did.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import oracle
from repro.algorithms.hypercube import detect_heavy_hitters
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
from repro.data.generators import matching_database, skewed_database
from repro.engine import execute_plan
from tests.conftest import (
    assert_oracle_parity,
    capacity_failure,
    light_plan,
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
    plan = compile_with("hypercube", query, p, seed=seed, **kwargs)
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
        """Engine and oracle agree AND both beat the light plan's load."""
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = funnel_database(128)
        plan = compile_with("hypercube", query, 16, seed=5)
        plain = execute_plan(light_plan(plan), database)
        execution, reference = run_with_oracle(plan, database)
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
        """No heavy hitters: engine and oracle route like the light plan."""
        query = line_query(3)
        database = matching_database(query, n=40, rng=7)
        execution, reference = run_both(query, database, p=9, seed=seed)
        assert_parity(execution, reference)
        assert not any(reference.heavy_hitters.values())
        plain = execute_plan(
            light_plan(compile_with("hypercube", query, 9, seed=seed)),
            database,
        )
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
            "hypercube", query, 16, seed=3,
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


FAMILIES = {
    "C3": cycle_query(3),
    "C4": cycle_query(4),
    "C5": cycle_query(5),
    "T2": star_query(2),
    "T3": star_query(3),
    "L2": line_query(2),
    "L3": line_query(3),
    "L4": line_query(4),
    "B32": binomial_query(3, 2),
    "B42": binomial_query(4, 2),
    "SP2": spider_query(2),
    "SP3": spider_query(3),
}

#: shape -> digests at p = 16 and 64, skewed data (heavy_fraction 0.3):
#: what the separate skew-aware compiler routed.
SKEWED_DIGESTS = {
    "C3": ("cfbe34c6ee8b0e5d", "dfabe0803fc7025b"),
    "C4": ("239941241104f450", "4640cf03a2700733"),
    "C5": ("d9d97e418d103fdd", "2795aa39acb4180c"),
    "T2": ("fbbce033cc0e52a1", "181e52437dece080"),
    "T3": ("c01045081f10e742", "97817c811e78e1ce"),
    "L2": ("cf702a1e94ee7f45", "cc32a75848575bcc"),
    "L3": ("4337821790a08a9d", "02403de7ddddc5f4"),
    "L4": ("80cb1d81ccc2c927", "e5146bc0817b04db"),
    "B32": ("56d430c0c1a0040f", "9bd800b994d46d8c"),
    "B42": ("47137ac84d4eb1c3", "9638241d95e06079"),
    "SP2": ("0a8a4d5424d6ee72", "865c0b524002e940"),
    "SP3": ("1247416beb0f2ae2", "3e683f785c603779"),
}

#: The same on matching data: what plain HyperCube routed.
MATCHING_DIGESTS = {
    "C3": ("d08b41a0d2328ab2", "0fb7619b9a2d2713"),
    "C4": ("131e34b328dc1ebd", "d7916bdd4642307b"),
    "C5": ("6eb25dad3833e917", "3da56616f312a2db"),
    "T2": ("0bb5babc1d402825", "0cd428d775bceaf2"),
    "T3": ("ea0ea05589286d9e", "3a5426fe92c14bd3"),
    "L2": ("082e9d8c59e4b28a", "8e0f8628bd9287a9"),
    "L3": ("eee1932a10513117", "b380d93f8764407d"),
    "L4": ("133392af53d40822", "3da7892b53d88ba8"),
    "B32": ("98b0b51a871c3b03", "c0d4cef2fab9ceae"),
    "B42": ("7d863411c5bd2379", "ae06d8ba9b97c818"),
    "SP2": ("3655d71d1a62d8b0", "17e29aebf7feb1cd"),
    "SP3": ("91e5bc211f1384ad", "5ef8ecbc1a3cd214"),
}


def routing_digest(query, database, p):
    """``per_server``, per-round received tuples and the non-empty
    bound heavy sets of one pinned HyperCube run, hashed."""
    execution = execute_plan(compile_with("hypercube", query, p), database)
    loads = [stats.received_tuples for stats in execution.report.rounds]
    heavy = sorted(
        (variable, sorted(values))
        for variable, values in execution.heavy_hitters.items()
        if values
    )
    text = repr((execution.per_server, loads, heavy))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedRouting:
    @pytest.mark.parametrize("shape", sorted(FAMILIES))
    def test_skewed_routing_is_pinned(self, shape):
        query = FAMILIES[shape]
        database = skewed_database(query, n=120, rng=0, heavy_fraction=0.3)
        assert tuple(
            routing_digest(query, database, p) for p in (16, 64)
        ) == SKEWED_DIGESTS[shape]

    @pytest.mark.parametrize("shape", sorted(FAMILIES))
    def test_matching_routing_is_pinned(self, shape):
        query = FAMILIES[shape]
        database = matching_database(query, n=120, rng=0)
        assert tuple(
            routing_digest(query, database, p) for p in (16, 64)
        ) == MATCHING_DIGESTS[shape]
