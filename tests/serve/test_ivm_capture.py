"""IVM capture against its oracle: re-join every retained fragment.

Capture takes the per-worker answer counts, the merged tables and a
permuted finalize's answer table from the execution by reference.  The
oracle here re-derives them: join each worker's retained fragments
with the single-worker evaluator, count and union the tables, project
the answers, recount the bytes from scratch.  Captured state must
equal it row for row and byte for byte, on every algorithm x query
family IVM accepts, and must stay equal to a fresh capture under any
interleaving of small deltas.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Session, connect
from repro.algorithms.localjoin import evaluate_query_table
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
from repro.engine.local import union_answer_tables
from repro.serve.ivm import IvmPolicy
from repro.serve.ivm.state import RetainedState, SiteState
from tests.conftest import ivm_policy

ALGORITHMS = ["hypercube", "multiround"]
P = 8

FAMILIES = [
    cycle_query(3),
    cycle_query(4),
    star_query(3),
    line_query(2),
    line_query(4),
    binomial_query(3, 2),
    spider_query(2),
]


def random_database(query, domain, rows_per_atom, rng):
    """Uniform rows over a small domain: joins (cycles too) are non-empty."""
    rng = random.Random(rng)
    return ColumnarDatabase.from_relations(
        [
            ColumnarRelation.from_rows(
                atom.name,
                [
                    tuple(rng.randint(1, domain) for _ in range(atom.arity))
                    for _ in range(rows_per_atom)
                ],
                domain_size=domain,
                arity=atom.arity,
            )
            for atom in query.atoms
        ]
    )


def rejoined(state: RetainedState) -> RetainedState:
    """The oracle: ``state`` with every site re-derived from its fragments."""

    def rejoin(site: SiteState) -> SiteState:
        tables = [
            evaluate_query_table(
                site.query,
                {
                    atom: state.fragment(key, worker)
                    for atom, key in site.keys.items()
                },
                assume_unique=True,
            )
            for worker in range(len(site.counts))
        ]
        merged = union_answer_tables(tables, len(site.query.head))
        counts = [len(table) for table in tables]
        return replace(site, counts=counts, merged=merged)

    views = {name: rejoin(site) for name, site in state.views.items()}
    projected = None
    if state.projected is not None:
        finalize = state.plan.finalize
        schema = views[finalize.view].query.head
        positions = [schema.index(variable) for variable in finalize.head]
        rows = sorted(
            tuple(row[i] for i in positions)
            for row in views[finalize.view].merged.tolist()
        )
        projected = numpy.array(rows, dtype=numpy.int64).reshape(
            len(rows), len(positions)
        )
    oracle = replace(
        state,
        views=views,
        collect=None if state.collect is None else rejoin(state.collect),
        projected=projected,
    )
    oracle.recount_bytes()
    return oracle


def _same_table(mine, theirs):
    assert mine.dtype == theirs.dtype
    assert mine.shape == theirs.shape
    assert (mine == theirs).all()


def assert_same_state(state: RetainedState, expected: RetainedState):
    """Same fragments as row sets; per-worker counts, merged and
    projected tables, round statistics and the byte estimate exactly."""
    assert state.pools.keys() == expected.pools.keys()
    p = state.plan.signature.p
    for key, pool in state.pools.items():
        assert pool.num_workers == expected.pools[key].num_workers == p
        for worker in range(p):
            mine = zip(*state.fragment(key, worker))
            theirs = zip(*expected.fragment(key, worker))
            assert set(mine) == set(theirs)
    assert state.views.keys() == expected.views.keys()
    pairs = [
        (state.views[name], expected.views[name]) for name in state.views
    ]
    assert (state.collect is None) == (expected.collect is None)
    if state.collect is not None:
        pairs.append((state.collect, expected.collect))
    for mine, theirs in pairs:
        assert mine.counts == theirs.counts
        assert sum(mine.counts) == len(mine.merged)
        _same_table(mine.merged, theirs.merged)
    assert (state.projected is None) == (expected.projected is None)
    if state.projected is not None:
        _same_table(state.projected, expected.projected)
    assert state.report_rounds == expected.report_rounds
    assert state.table_bytes == expected.table_bytes
    assert state.nbytes == expected.nbytes


def _only_state(session: Session) -> RetainedState:
    (state,) = session.ivm.store._states.values()
    return state


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("query", FAMILIES, ids=lambda query: query.name)
def test_captured_state_equals_the_rejoin_oracle(query, algorithm):
    plan = compile_with(algorithm, query, P)
    if IvmPolicy().plan_fallback_reason(plan) is not None:
        pytest.skip("plan shape is not incrementally maintainable")
    for database in (
        matching_database(query, n=30, rng=3),
        random_database(query, domain=9, rows_per_atom=24, rng=5),
    ):
        session = connect(database, p=P, algorithm=algorithm)
        result = session.execute(query)
        if any((result.heavy_hitters or {}).values()):
            # Routing read data statistics: capture keeps nothing.
            assert not session.ivm.store._states
            continue
        state = _only_state(session)
        assert_same_state(state, rejoined(state))
        if state.collect is not None:
            answers = state.collect.merged
        elif state.projected is not None:
            answers = state.projected
        else:
            answers = state.views[plan.finalize.view].merged
        _same_table(answers, result.table)


QUERIES = [
    cycle_query(3),
    line_query(3),
    star_query(2),
    # Multi-round plans finalize through a view whose columns this
    # head permutes.
    parse_query("q(z,x,y,w) = S1(x,y), S2(y,z), S3(z,w)"),
]
DOMAIN = 6
pairs = st.tuples(
    st.integers(1, DOMAIN), st.integers(1, DOMAIN)
)
deltas = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.integers(0, 2),  # which atom's relation
        st.lists(pairs, min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    query=st.sampled_from(QUERIES),
    algorithm=st.sampled_from(ALGORITHMS),
    rows=st.lists(
        st.lists(pairs, min_size=4, max_size=14), min_size=3, max_size=3
    ),
    deltas=deltas,
    read_between=st.booleans(),
)
def test_capture_plus_merges_equals_a_fresh_capture(
    query, algorithm, rows, deltas, read_between
):
    """Small databases, 1-4 interleaved insert/delete deltas (read
    after each, or composed into one merge): the maintained state
    equals what capturing the final database from scratch gives.  A
    final read that binds a heavy value re-executes and captures
    nothing, so then the retained state must lag the database."""
    names = [atom.name for atom in query.atoms]

    def build(contents):
        return ColumnarDatabase.from_relations(
            [
                ColumnarRelation.from_rows(
                    name, contents[name], domain_size=DOMAIN, arity=2
                )
                for name in names
            ]
        )

    with ivm_policy(max_delta_fraction=1.0):
        served = connect(
            build(dict(zip(names, rows))), p=P, algorithm=algorithm
        )
    served.execute(query)
    for kind, which, changed in deltas:
        name = names[which % len(names)]
        if kind == "insert":
            served.update(inserts={name: changed})
        else:
            served.update(deletes={name: changed})
        if read_between:
            served.execute(query)
    final = served.execute(query)

    fresh = connect(
        build({name: served.database[name].rows() for name in names}),
        p=P,
        algorithm=algorithm,
    )
    assert final.answers == fresh.execute(query).answers
    if any((final.heavy_hitters or {}).values()):
        assert all(
            state.version < served.version
            for state in served.ivm.store._states.values()
        )
        return
    # A mailbox key nothing was delivered into (an empty relation or
    # view) has no pool, and capture declines; a merge can still
    # empty one that was captured non-empty.
    assume(served.ivm.retained_states == 1)
    state = _only_state(served)
    assert state.version == served.version
    # The merges kept the byte count current: a recount agrees.
    counted = state.nbytes
    assert replace(state).recount_bytes() == counted
    assert_same_state(state, rejoined(state))
    if fresh.ivm.retained_states:
        assert_same_state(state, _only_state(fresh))
