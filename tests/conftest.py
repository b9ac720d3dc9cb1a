"""Shared fixtures: canonical queries and small databases."""

from __future__ import annotations

import random

import pytest

from repro.algorithms.registry import compile_with
from repro.core.families import (
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.query import parse_query
from repro.data.matching import matching_database
from repro.engine import execute_plan


def run_pinned(name, query, database, p, *, profiler=None, **options):
    """The pinned, cache-free path: ``compile_with`` + ``execute_plan``."""
    plan = compile_with(name, query, p, **options)
    return execute_plan(plan, database, profiler=profiler)


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
