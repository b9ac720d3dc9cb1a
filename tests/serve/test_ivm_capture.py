"""IVM capture against its oracle: re-join every retained fragment.

Capture takes the per-worker answer tables, the merged tables and the
answer tuples from the execution by reference.  The oracle here is the
derivation capture used to run itself: join each worker's retained
fragments with the single-worker evaluator, union the tables, project
the answers.  Captured state must equal it row for row and byte for
byte, on every algorithm x query family x backend IVM accepts, and must
stay equal to a fresh capture under any interleaving of small deltas.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import compile_with
from repro.backend import numpy_available
from repro.core.families import (
    binomial_query,
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.data.database import Database, Relation
from repro.data.matching import matching_database
from repro.serve import QueryService
from repro.serve.ivm import IvmPolicy
from repro.serve.ivm.state import (
    RetainedState,
    SiteState,
    _merge_tables,
    evaluate_worker,
    table_rows,
)

BACKENDS = ["pure"] + (["numpy"] if numpy_available() else [])
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
    return Database.from_relations(
        [
            Relation.from_tuples(
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
            evaluate_worker(
                site.query,
                {
                    atom: state.pools[key].fragments[worker]
                    for atom, key in site.keys.items()
                },
                state.backend,
            )
            for worker in range(site.workers)
        ]
        merged = _merge_tables(tables, len(site.query.head), state.backend)
        if site.answer_rows is None:
            answer_rows = None
        elif state.finalize_positions is None:
            answer_rows = table_rows(merged, state.backend)
        else:
            answer_rows = tuple(
                sorted(
                    tuple(row[i] for i in state.finalize_positions)
                    for row in table_rows(merged, state.backend)
                )
            )
        return replace(
            site, tables=tables, merged=merged, answer_rows=answer_rows
        )

    oracle = replace(
        state,
        views={name: rejoin(site) for name, site in state.views.items()},
        collect=None if state.collect is None else rejoin(state.collect),
    )
    oracle.recount_bytes()
    return oracle


def _row_set(table, backend):
    return set(table_rows(table, backend))


def assert_same_state(state: RetainedState, expected: RetainedState):
    """Same fragments and per-worker tables as row sets; merged tables,
    answer rows, round statistics and the byte estimate exactly."""
    backend = state.backend
    assert state.pools.keys() == expected.pools.keys()
    for key, store in state.pools.items():
        for mine, theirs in zip(
            store.fragments, expected.pools[key].fragments, strict=True
        ):
            if backend == "numpy":
                mine, theirs = zip(*mine), zip(*theirs)
            assert set(map(tuple, mine)) == set(map(tuple, theirs))
    assert state.views.keys() == expected.views.keys()
    pairs = [
        (state.views[name], expected.views[name]) for name in state.views
    ]
    assert (state.collect is None) == (expected.collect is None)
    if state.collect is not None:
        pairs.append((state.collect, expected.collect))
    for mine, theirs in pairs:
        assert mine.workers == theirs.workers == len(mine.tables)
        for table, other in zip(mine.tables, theirs.tables, strict=True):
            assert len(table) == len(other)
            assert _row_set(table, backend) == _row_set(other, backend)
        if backend == "numpy":
            assert mine.merged.dtype == theirs.merged.dtype
            assert mine.merged.shape == theirs.merged.shape
            assert (mine.merged == theirs.merged).all()
        else:
            assert mine.merged == theirs.merged
        assert mine.answer_rows == theirs.answer_rows
    assert state.report_rounds == expected.report_rounds
    assert state.input_bits == expected.input_bits
    assert state.nbytes == expected.nbytes


def _only_state(service: QueryService) -> RetainedState:
    (state,) = service.ivm.store._states.values()
    return state


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("query", FAMILIES, ids=lambda query: query.name)
def test_captured_state_equals_the_rejoin_oracle(query, algorithm, backend):
    plan = compile_with(algorithm, query, P, backend=backend)
    if IvmPolicy().plan_fallback_reason(plan) is not None:
        pytest.skip("plan shape is not incrementally maintainable")
    for database in (
        matching_database(query, n=30, rng=3),
        random_database(query, domain=9, rows_per_atom=24, rng=5),
    ):
        service = QueryService(
            database, p=P, backend=backend, algorithm=algorithm
        )
        result = service.execute(query)
        state = _only_state(service)
        assert_same_state(state, rejoined(state))
        answers_site = (
            state.collect
            if state.collect is not None
            else state.views[plan.finalize.view]
        )
        assert answers_site.answer_rows == result.answers


QUERIES = [cycle_query(3), line_query(3), star_query(2)]
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
    backend=st.sampled_from(BACKENDS),
    rows=st.lists(
        st.lists(pairs, min_size=4, max_size=14), min_size=3, max_size=3
    ),
    deltas=deltas,
    read_between=st.booleans(),
)
def test_capture_plus_merges_equals_a_fresh_capture(
    query, algorithm, backend, rows, deltas, read_between
):
    """Skew-free small databases, 1-4 interleaved insert/delete deltas
    (read after each, or composed into one merge): the maintained
    state equals what capturing the final database from scratch gives."""
    names = [atom.name for atom in query.atoms]

    def build(contents):
        return Database.from_relations(
            [
                Relation.from_tuples(
                    name, contents[name], domain_size=DOMAIN, arity=2
                )
                for name in names
            ]
        )

    served = QueryService(
        build(dict(zip(names, rows))),
        p=P,
        backend=backend,
        algorithm=algorithm,
        ivm_max_delta_fraction=1.0,
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

    fresh = QueryService(
        build({name: served.database[name].rows() for name in names}),
        p=P,
        backend=backend,
        algorithm=algorithm,
    )
    assert final.answers == fresh.execute(query).answers
    # A mailbox key nothing was delivered into (an empty relation or
    # view) has no pool, and capture declines; a merge can still
    # empty one that was captured non-empty.
    assume(served.ivm_retained_states == 1)
    state = _only_state(served)
    assert state.version == served.version
    assert_same_state(state, rejoined(state))
    if fresh.ivm_retained_states:
        assert_same_state(state, _only_state(fresh))
