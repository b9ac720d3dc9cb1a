"""The one numpy route path (engine/executor.py + engine/streaming.py).

However a plan executes -- in-process or on the pool, steps shipped
whole or streamed in blocks -- a routing step's ``route_columns`` is
reached through ``streaming.route_range`` and through nothing else, and
the context's round counters say which executor ran each round.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import repro.engine.steps as steps
import repro.engine.streaming as streaming
from repro.algorithms.hypercube import compile_hypercube
from repro.algorithms.multiround import compile_multiround
from repro.backend import numpy_available
from repro.core.families import line_query
from repro.core.plans import build_plan
from repro.core.query import parse_query
from repro.data.database import Relation
from repro.data.matching import matching_database
from repro.engine.executor import execute_plan
from repro.engine.parallel.engine import ParallelContext

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable"
)

CHAIN = line_query(4)


@pytest.fixture(scope="module")
def plan():
    return compile_multiround(
        build_plan(CHAIN, Fraction(0)), p=8, backend="numpy"
    )


@pytest.fixture(scope="module")
def database():
    return matching_database(CHAIN, n=120, rng=23)


def _spy_on_route_columns(monkeypatch):
    """Record, per ``route_columns`` call, whether ``route_range`` made it."""
    inside_route_range = []
    calls = []
    route_range = streaming.route_range

    def spy_route_range(*args, **kwargs):
        inside_route_range.append(True)
        try:
            return route_range(*args, **kwargs)
        finally:
            inside_route_range.pop()

    monkeypatch.setattr(streaming, "route_range", spy_route_range)
    for step_type in vars(steps).values():
        if (
            isinstance(step_type, type)
            and issubclass(step_type, steps.RoutingStep)
            and "route_columns" in vars(step_type)
        ):
            original = step_type.route_columns

            def spy(self, columns, p, _original=original):
                calls.append(bool(inside_route_range))
                return _original(self, columns, p)

            monkeypatch.setattr(step_type, "route_columns", spy)
    return calls


@pytest.mark.parametrize("chunk_rows", [None, 16], ids=["whole", "streamed"])
def test_inline_routing_goes_through_route_range(
    monkeypatch, plan, database, chunk_rows
):
    reference = execute_plan(plan, database)
    calls = _spy_on_route_columns(monkeypatch)
    execution = execute_plan(plan, database, chunk_rows=chunk_rows)
    assert execution.answers == reference.answers
    assert calls and all(calls)


@pytest.mark.parametrize("chunk_rows", [None, 16], ids=["whole", "streamed"])
@pytest.mark.parametrize(
    "min_rows,on_pool", [(0, True), (10**6, False)], ids=["pool", "inline"]
)
def test_context_routing_and_round_counters(
    monkeypatch, plan, database, chunk_rows, min_rows, on_pool
):
    reference = execute_plan(plan, database)
    rounds = reference.report.num_rounds
    assert rounds > 1
    calls = _spy_on_route_columns(monkeypatch)
    with ParallelContext(2, min_rows=min_rows) as context:
        execution = execute_plan(
            plan, database, parallel=context, chunk_rows=chunk_rows
        )
        assert not context.pool.broken
        assert (context.parallel_rounds, context.fallback_rounds) == (
            (rounds, 0) if on_pool else (0, rounds)
        )
    assert execution.answers == reference.answers
    assert execution.report.rounds == reference.report.rounds
    # Pool shards route in their own processes; whatever the parent
    # still routes (inline ranges, lazy pools) takes the same door.
    assert all(calls)
    assert bool(calls) or on_pool


@pytest.mark.parametrize("chunk_rows", [None, 2], ids=["whole", "streamed"])
def test_empty_source_is_one_inline_range(chunk_rows):
    # min_rows=0 admits the empty relation, but it has no row to hand
    # a pool worker: it is the one range [0, 0), run inline.
    query = parse_query("S1(x,y), S2(y,z)")
    database = matching_database(query, n=12, rng=5).with_relation(
        Relation.from_tuples("S2", (), domain_size=12, arity=2)
    )
    plan = compile_hypercube(query, p=4, backend="numpy")
    serial = execute_plan(plan, database, chunk_rows=chunk_rows)
    with ParallelContext(4, min_rows=0) as context:
        parallel = execute_plan(
            plan, database, parallel=context, chunk_rows=chunk_rows
        )
        assert not context.pool.broken
        assert context.parallel_rounds == 1  # S1 still ran on the pool
    assert parallel.answers == serial.answers == ()
    assert parallel.report.rounds == serial.report.rounds
