"""The one numpy route path (engine/executor.py + engine/streaming.py).

However a plan executes -- every source one block or streamed in
``chunk_rows`` blocks -- every step is routed inline, and a routing
step's ``route_columns`` is reached through ``streaming.route_range``
and through nothing else.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import repro.engine.steps as steps
import repro.engine.streaming as streaming
from repro import oracle
from repro.algorithms.hypercube import compile_hypercube
from repro.algorithms.multiround import compile_multiround
from repro.core.families import line_query
from repro.core.plans import build_plan
from repro.core.query import parse_query
from repro.data.columnar import ColumnarRelation
from repro.data.generators import matching_database
from repro.engine.executor import execute_plan
from tests.conftest import with_relation

CHAIN = line_query(4)


@pytest.fixture(scope="module", params=["multiround", "hypercube"])
def plan(request):
    # Multiround materialises views; one-round HyperCube has none.
    if request.param == "hypercube":
        return compile_hypercube(CHAIN, p=8)
    return compile_multiround(
        build_plan(CHAIN, Fraction(0)), p=8
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

            def spy(self, columns, p, offset, _original=original):
                calls.append(bool(inside_route_range))
                return _original(self, columns, p, offset)

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


@pytest.mark.parametrize("chunk_rows", [None, 2], ids=["whole", "streamed"])
def test_empty_source_is_one_inline_range(chunk_rows):
    # The empty relation is the range [0, 0), routed inline like any
    # other source.
    query = parse_query("S1(x,y), S2(y,z)")
    database = with_relation(
        matching_database(query, n=12, rng=5),
        ColumnarRelation.from_rows("S2", (), domain_size=12, arity=2),
    )
    plan = compile_hypercube(query, p=4)
    execution = execute_plan(plan, database, chunk_rows=chunk_rows)
    reference = oracle.execute_plan(plan, database)
    assert execution.answers == reference.answers == ()
    assert [r.received_tuples for r in execution.report.rounds] == [
        r.received_tuples for r in reference.report.rounds
    ]
