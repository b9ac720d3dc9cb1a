"""Shared fixtures: canonical queries and small databases."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from unittest import mock

import pytest

from repro import oracle
from repro.algorithms.registry import compile_with
from repro.core.families import (
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.query import parse_query
from repro.data.columnar import ColumnarDatabase
from repro.data.generators import matching_database
from repro.engine import execute_plan
from repro.engine.deadline import Deadline
from repro.mpc.simulator import CapacityExceeded
from repro.serve.ivm import IvmPolicy


def run_pinned(name, query, database, p, *, profiler=None, **options):
    """The pinned, cache-free path: ``compile_with`` + ``execute_plan``."""
    plan = compile_with(name, query, p, **options)
    return execute_plan(plan, database, profiler=profiler)


@contextmanager
def ivm_policy(**gates):
    """Sessions connected inside retain IVM state under ``gates``
    instead of the :class:`~repro.serve.ivm.IvmPolicy` defaults."""
    with mock.patch(
        "repro.serve.ivm.IvmPolicy", partial(IvmPolicy, **gates)
    ):
        yield


@contextmanager
def statement_deadline(deadline):
    """Statements executed inside with any ``deadline_ms`` run under
    ``deadline`` (built on a fake clock) instead of a fresh budget."""
    with mock.patch.object(
        Deadline,
        "after_ms",
        staticmethod(
            lambda budget_ms: None if budget_ms is None else deadline
        ),
    ):
        yield


def exact_answers(query, database):
    """``query``'s answers over ``database`` by the oracle's backtracking
    join, as sorted tuples."""
    return oracle.evaluate_query(
        query,
        {relation.name: tuple(relation.rows()) for relation in database},
    )


def with_relation(database, relation):
    """A copy of ``database`` with ``relation`` added or replaced."""
    return ColumnarDatabase(
        relations={**database.relations, relation.name: relation},
        domain_size=database.domain_size,
    )


def light_plan(plan):
    """``plan`` with no heavy binding: plain HyperCube routing."""
    return replace(
        plan,
        rounds=tuple(
            replace(plan_round, bind_heavy=None)
            for plan_round in plan.rounds
        ),
    )


def run_with_oracle(plan, database, **engine_options):
    """``(engine execution, oracle execution)`` of one plan."""
    return (
        execute_plan(plan, database, **engine_options),
        oracle.execute_plan(plan, database),
    )


def assert_oracle_parity(execution, reference):
    """Everything observable of an engine run equals the oracle's:
    answers, per-server counts, views, heavy hitters and per-round
    received bits/tuples."""
    assert execution.answers == reference.answers
    assert execution.per_server == reference.per_server
    assert execution.view_sizes == reference.view_sizes
    assert execution.per_server_views == reference.per_server_views
    assert execution.heavy_hitters == reference.heavy_hitters
    assert len(execution.report.rounds) == len(reference.report.rounds)
    for ours, theirs in zip(execution.report.rounds, reference.report.rounds):
        assert ours.received_bits == theirs.received_bits
        assert ours.received_tuples == theirs.received_tuples
        assert ours.capacity_bits == theirs.capacity_bits


def pooled_rows(simulator, worker, key):
    """The rows ``worker`` holds under ``key``, read off the delivery
    pool as tuples (``[]`` when nothing was delivered)."""
    pool = simulator.relation_pool(key)
    if pool is None:
        return []
    columns = pool.worker_slice(worker)
    return list(zip(*(column.tolist() for column in columns)))


def capacity_failure(run):
    """Every field of the :class:`CapacityExceeded` ``run()`` raises."""
    with pytest.raises(CapacityExceeded) as info:
        run()
    error = info.value
    return (
        error.worker,
        error.received_bits,
        error.capacity_bits,
        error.round_index,
    )


@pytest.fixture
def triangle():
    """The C3 cycle query."""
    return cycle_query(3)


@pytest.fixture
def chain4():
    """The L4 line query."""
    return line_query(4)


@pytest.fixture
def star3():
    """The T3 star query."""
    return star_query(3)


@pytest.fixture
def spider2():
    """The SP2 spider query."""
    return spider_query(2)


@pytest.fixture
def two_hop():
    """The paper's L2 = S1(x,y), S2(y,z)."""
    return parse_query("q(x,y,z) = S1(x,y), S2(y,z)")


@pytest.fixture
def rng():
    """A deterministic RNG for data generation."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def triangle_db(triangle):
    """A small matching database for C3."""
    return matching_database(triangle, n=40, rng=7)


@pytest.fixture
def chain4_db(chain4):
    """A small matching database for L4."""
    return matching_database(chain4, n=40, rng=13)
