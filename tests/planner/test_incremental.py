"""A decision at a new database version costs what changed.

A session keeps each statement's version-free bids and re-evaluates
them on a fresh profile after a write; relations keep their
heavy-value counts, so the profile rescans only what the write
touched.  These tests pin that the shortcut changes nothing a caller
can see -- every explain (or refusal) equals a fresh planner's on a
freshly built database -- and that it really skips the work.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction

import numpy
from hypothesis import given, settings, strategies as st

from repro import connect
from repro.core import bounds, covers, plans, shares
from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import QueryError
from repro.data.columnar import ColumnarRelation
from repro.data.generators import matching_database_columnar
from repro.planner import Planner, collect_profile

FAMILIES = (cycle_query(3), line_query(2), line_query(4), star_query(3))
ALGORITHMS = (None, "hypercube", "multiround", "partial")
EPSILONS = (None, Fraction(0), Fraction(1, 2))
RELATIONS = ("S1", "S2", "S3", "S4")
DOMAIN = 12
#: Rows of one burst: enough to make its value heavy at any share.
BURST = 30
P = 8

VALUES = st.integers(1, DOMAIN)
NAMES = st.sampled_from(RELATIONS)
WRITES = st.one_of(
    st.tuples(st.just("insert"), NAMES, VALUES, VALUES),
    st.tuples(st.just("delete"), NAMES, VALUES, VALUES),
    st.tuples(st.just("burst"), NAMES, VALUES),
    st.tuples(st.just("unburst"), NAMES, VALUES),
    st.tuples(st.just("empty")),
)


def _apply(session, write):
    kind, *args = write
    if kind == "insert":
        session.update(inserts={args[0]: [tuple(args[1:])]})
    elif kind == "delete":
        session.update(deletes={args[0]: [tuple(args[1:])]})
    elif kind == "burst":
        name, value = args
        session.update(inserts={name: [(value, b) for b in range(1, BURST)]})
    elif kind == "unburst":
        name, value = args
        session.update(deletes={name: [(value, b) for b in range(1, BURST)]})
    else:
        session.update()


def _rebuilt(snapshot):
    """The snapshot's contents in new relations (no memoized counts)."""
    return {
        name: ColumnarRelation(
            name,
            relation.arity,
            tuple(column.copy() for column in relation.columns),
            relation.domain_size,
        )
        for name, relation in snapshot.relations.items()
    }


def _outcome(decide):
    try:
        return decide().to_dict()
    except QueryError as error:
        return str(error)


def _counter_profile(query, database, grid):
    """Heavy values and multiplicities, counted with ``Counter``."""
    heavy = {variable: set() for variable in query.variables}
    for atom in query.atoms:
        relation = database[atom.name]
        for position, variable in enumerate(atom.variables):
            share = grid.get(variable, 1)
            if share <= 1 or not len(relation):
                continue
            threshold = max(1, len(relation) // share)
            counts = Counter(relation.columns[position].tolist())
            heavy[variable] |= {v for v, c in counts.items() if c > threshold}
    multiplicities = {}
    for atom in query.atoms:
        relation = database[atom.name]
        for position, variable in enumerate(atom.variables):
            counts = Counter(relation.columns[position].tolist())
            top = max((counts[v] for v in heavy[variable]), default=0)
            if top:
                multiplicities[variable] = max(
                    multiplicities.get(variable, 0), top
                )
    return (
        tuple((v, len(values)) for v, values in sorted(heavy.items())),
        tuple(sorted(multiplicities.items())),
    )


@given(
    query=st.sampled_from(FAMILIES),
    writes=st.lists(WRITES, min_size=1, max_size=5),
    seed=st.integers(0, 3),
)
@settings(max_examples=12, deadline=None)
def test_incremental_decisions_equal_fresh_ones(query, writes, seed):
    database = matching_database_columnar(line_query(4), DOMAIN, seed=seed)
    session = connect(database, p=P, ivm=False)
    statements = [
        session.query(
            query, algorithm=algorithm, eps=eps, allow_partial=partial
        )
        for algorithm in ALGORITHMS
        for eps in EPSILONS
        for partial in (False, True)
    ]
    try:
        for write in [("empty",), *writes]:
            _apply(session, write)
            rebuilt = _rebuilt(session.database.snapshot)
            profile = collect_profile(query, rebuilt)
            assert (
                profile.heavy_values,
                profile.heavy_multiplicities,
            ) == _counter_profile(query, rebuilt, dict(profile.shares))
            assert profile.relation_rows == tuple(
                (atom.name, len(rebuilt[atom.name])) for atom in query.atoms
            )
            for statement in statements:
                assert _outcome(statement.explain) == _outcome(
                    lambda: Planner(P).choose(
                        query,
                        profile,
                        eps=statement.eps,
                        algorithm=statement.algorithm,
                        allow_partial=statement.allow_partial,
                    ).explain
                )
    finally:
        session.close()


#: The nine pairwise non-isomorphic shapes of the IVM benchmark.
IVM_SHAPES = (
    "S1(x,y)",
    "S1(x,y), S2(y,z)",
    "S1(x,y), S2(x,z)",
    "S1(x,y), S3(y,x)",
    "S1(x,y), S2(x,y)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S1(x,y), S2(y,z), S3(z,w)",
    "S1(x,y), S2(y,z), S3(y,w)",
    "S1(x,y), S2(x,z), S3(x,w)",
)


def _count_calls(monkeypatch, function):
    """Count calls to ``function`` through every ``repro`` module
    that imported it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attribute, spy)
    return calls


def test_a_post_write_decision_rescans_only_what_changed(monkeypatch):
    session = connect(
        matching_database_columnar(cycle_query(3), 2000, seed=0), p=16
    )
    try:
        for shape in IVM_SHAPES:
            session.execute(shape)
        existing = set(session.database["S1"].rows())
        row = next((1, b) for b in (1, 2) if (1, b) not in existing)
        session.update(inserts={"S1": [row]})
        touched = session.database["S1"].columns
        decisions = session.planner_stats.decisions

        scanned = []
        unique = numpy.unique

        def unique_spy(array, *args, **kwargs):
            scanned.append(array)
            return unique(array, *args, **kwargs)

        monkeypatch.setattr(numpy, "unique", unique_spy)
        spies = {
            function.__name__: _count_calls(monkeypatch, function)
            for function in (
                plans.build_plan,
                shares.allocate_integer_shares,
                covers.fractional_vertex_cover,
                bounds.round_lower_bound,
                bounds.round_upper_bound,
            )
        }
        for shape in IVM_SHAPES:
            assert session.execute(shape).ivm == "merged"
    finally:
        session.close()

    assert scanned
    assert all(
        any(numpy.shares_memory(array, column) for column in touched)
        for array in scanned
    )
    assert {name: len(calls) for name, calls in spies.items()} == {
        name: 0 for name in spies
    }
    assert session.planner_stats.decisions == decisions + len(IVM_SHAPES)


def test_reused_bids_report_the_round_bounds_of_a_new_choice():
    """A write that moves the choice to another eps (one round at the
    space exponent -> multi-round at 0) reports the new eps's bounds."""
    query = cycle_query(3)
    database = matching_database_columnar(query, 20, seed=0)
    session = connect(database, p=16, ivm=False)
    try:
        statement = session.query(query)
        before = statement.explain()
        session.update(inserts={"S1": [(1, b) for b in range(1, 40)]})
        after = statement.explain()
        fresh = Planner(16).choose(
            query, collect_profile(query, _rebuilt(session.database.snapshot))
        )
    finally:
        session.close()
    assert (before.algorithm, after.algorithm) == ("hypercube", "multiround")
    assert before.round_bounds != after.round_bounds
    assert after.to_dict() == fresh.explain.to_dict()
