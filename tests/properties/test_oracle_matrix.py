"""Engine vs oracle parity across the whole algorithm matrix.

The per-algorithm parity suites probe one executor each in depth; this
one sweeps the cross product the engine must hold on: every registered
algorithm and the plan-compiled baselines, on the core query families,
on matching and on skewed databases, run monolithic and streamed in
blocks, compiled directly and served by a session.  Every cell asserts
that everything observable equals the row-at-a-time reference
(:mod:`repro.oracle`) and, wherever the algorithm is exact, that the
reference answers the full join.  HyperCube is also run against its own
light plan (the heavy binding stripped): identical on matching data,
rerouted but equal in answers on skewed data.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import connect, oracle
from repro.algorithms.baselines import (
    compile_broadcast_join,
    compile_single_server,
)
from repro.algorithms.registry import compile_with, get_algorithm
from repro.core.families import (
    binomial_query,
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.data.generators import matching_database, skewed_database
from repro.engine import execute_plan
from tests.conftest import (
    assert_oracle_parity,
    exact_answers,
    light_plan,
    run_with_oracle,
)

P = 8

# Registered algorithm -> the compile options it needs beyond p / seed.
ALGORITHMS = {
    "hypercube": {},
    "multiround": {},
    "partial": {"eps": Fraction(0)},
}

BASELINES = {
    "broadcast": lambda query: compile_broadcast_join(query, P),
    "single_server": lambda query: compile_single_server(query, P),
}

FAMILIES = [
    cycle_query(3),
    line_query(3),
    star_query(3),
    spider_query(2),
    binomial_query(3, 2),
]

DATABASES = {
    "matching": lambda query: matching_database(query, n=30, rng=5),
    "skewed": lambda query: skewed_database(
        query, n=30, rng=5, heavy_fraction=0.6
    ),
}

MODES = {"whole": None, "streamed": 6}


def check(plan, query, database, exact, **engine_options):
    execution, reference = run_with_oracle(plan, database, **engine_options)
    assert_oracle_parity(execution, reference)
    if exact:
        assert reference.answers == exact_answers(query, database)
    else:
        assert set(reference.answers) <= set(exact_answers(query, database))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("data", DATABASES)
@pytest.mark.parametrize("query", FAMILIES, ids=lambda q: q.name)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_registered_algorithm(algorithm, query, data, mode):
    database = DATABASES[data](query)
    plan = compile_with(algorithm, query, P, seed=2, **ALGORITHMS[algorithm])
    check(
        plan,
        query,
        database,
        get_algorithm(algorithm).exact,
        chunk_rows=MODES[mode],
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("data", DATABASES)
@pytest.mark.parametrize("query", FAMILIES, ids=lambda q: q.name)
def test_hypercube_against_its_light_plan(query, data, mode):
    # HyperCube binds heavy hitters per execution.  With every detected
    # set empty (matching data) the bound round is the compiled one, so
    # everything observable equals the plan stripped of its binding;
    # with a heavy value bound the routing differs but the answers do
    # not.
    database = DATABASES[data](query)
    plan = compile_with("hypercube", query, P, seed=2)
    bound = execute_plan(plan, database, chunk_rows=MODES[mode])
    light = execute_plan(light_plan(plan), database, chunk_rows=MODES[mode])
    assert bound.answers == light.answers == exact_answers(query, database)
    if data == "matching":
        assert not any(bound.heavy_hitters.values())
        assert light.heavy_hitters is None
        assert bound.per_server == light.per_server
        assert bound.per_server_views == light.per_server_views
        assert [
            (r.received_bits, r.received_tuples) for r in bound.report.rounds
        ] == [
            (r.received_bits, r.received_tuples) for r in light.report.rounds
        ]
    else:
        assert any(bound.heavy_hitters.values())
        assert bound.per_server != light.per_server


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", FAMILIES, ids=lambda q: q.name)
@pytest.mark.parametrize("baseline", BASELINES)
def test_baseline(baseline, query, mode):
    database = DATABASES["skewed"](query)
    check(
        BASELINES[baseline](query),
        query,
        database,
        True,
        chunk_rows=MODES[mode],
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", FAMILIES, ids=lambda q: q.name)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_session(algorithm, query, mode):
    # A statement served by a session runs the plan its planner built
    # from the session's own profile (shares, heavy hitters), not the
    # compile defaults above; a repeat is answered from the result
    # cache.  Both must equal the reference on that plan.
    database = DATABASES["skewed"](query)
    with connect(database, p=P, seed=2, chunk_rows=MODES[mode]) as session:
        result = session.execute(
            query, algorithm=algorithm, **ALGORITHMS[algorithm]
        )
        repeat = session.execute(
            query, algorithm=algorithm, **ALGORITHMS[algorithm]
        )
    assert result.algorithm == algorithm
    assert repeat.cached
    reference = oracle.execute_plan(result.plan, database)
    for served in (result, repeat):
        assert served.answers == reference.answers
        assert served.per_server == reference.per_server
        assert served.view_sizes == reference.view_sizes
        assert served.heavy_hitters == reference.heavy_hitters
        assert [
            (r.received_bits, r.received_tuples)
            for r in served.report.rounds
        ] == [
            (r.received_bits, r.received_tuples)
            for r in reference.report.rounds
        ]
    if get_algorithm(algorithm).exact:
        assert reference.answers == exact_answers(query, database)
