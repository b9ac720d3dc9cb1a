"""The oracle keeps its own books: simulator faults break parity.

:mod:`repro.oracle` counts bits and enforces capacity itself, so a
fault in :class:`~repro.mpc.simulator.MPCSimulator`'s accounting makes
the engine disagree with it.  Each fault below is patched into the
simulator class (the source is untouched) and must break engine-vs-
oracle parity on a C3 and an L3 cell, under HyperCube and the
multi-round plans; without a fault the same cells agree.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import oracle
from repro.algorithms.registry import compile_with
from repro.core.families import cycle_query, line_query
from repro.data.generators import matching_database
from repro.engine import execute_plan
from repro.mpc.simulator import MPCSimulator
from tests.conftest import (
    assert_oracle_parity,
    capacity_failure,
    run_with_oracle,
)

P = 8
QUERIES = {"C3": cycle_query(3), "L3": line_query(3)}
ALGORITHMS = ("hypercube", "multiround")


def _rewrite_stats(monkeypatch, rewrite):
    """Patch ``end_round`` to report ``rewrite(stats)`` instead."""
    end_round = MPCSimulator.end_round

    def faulty(self):
        stats = rewrite(end_round(self))
        self.report.rounds[-1] = stats
        return stats

    monkeypatch.setattr(MPCSimulator, "end_round", faulty)


def extra_bit_on_worker_zero(monkeypatch):
    _rewrite_stats(
        monkeypatch,
        lambda stats: replace(
            stats,
            received_bits=(
                stats.received_bits[0] + 1,
                *stats.received_bits[1:],
            ),
        ),
    )


def workers_reversed(monkeypatch):
    _rewrite_stats(
        monkeypatch,
        lambda stats: replace(
            stats,
            received_bits=stats.received_bits[::-1],
            received_tuples=stats.received_tuples[::-1],
        ),
    )


def doubled_capacity(monkeypatch):
    """Rounds close against twice the ``c * N / p^{1-eps}`` budget."""
    end_round = MPCSimulator.end_round

    def faulty(self):
        config = self.config
        self.config = replace(config, c=2 * config.c)
        try:
            return end_round(self)
        finally:
            self.config = config

    monkeypatch.setattr(MPCSimulator, "end_round", faulty)


#: Fault name -> installer taking a ``monkeypatch``.
FAULTS = {
    "extra_bit_on_worker_zero": extra_bit_on_worker_zero,
    "workers_reversed": workers_reversed,
    "doubled_capacity": doubled_capacity,
}


def _cell(algorithm, name, **options):
    query = QUERIES[name]
    plan = compile_with(algorithm, query, P, seed=2, **options)
    return plan, matching_database(query, n=30, rng=5)


def _overloaded(algorithm, name):
    return _cell(
        algorithm, name, capacity_c=0.01, enforce_capacity=True
    )


def _failures(plan, database):
    return (
        capacity_failure(lambda: execute_plan(plan, database)),
        capacity_failure(lambda: oracle.execute_plan(plan, database)),
    )


@pytest.mark.parametrize("name", QUERIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cells_agree_without_a_fault(algorithm, name):
    assert_oracle_parity(*run_with_oracle(*_cell(algorithm, name)))
    engine, reference = _failures(*_overloaded(algorithm, name))
    assert engine == reference


@pytest.mark.parametrize(
    "fault", ["extra_bit_on_worker_zero", "workers_reversed"]
)
@pytest.mark.parametrize("name", QUERIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_load_fault_breaks_parity(monkeypatch, algorithm, name, fault):
    FAULTS[fault](monkeypatch)
    execution, reference = run_with_oracle(*_cell(algorithm, name))
    with pytest.raises(AssertionError):
        assert_oracle_parity(execution, reference)


@pytest.mark.parametrize("name", QUERIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_capacity_fault_changes_the_failure(monkeypatch, algorithm, name):
    doubled_capacity(monkeypatch)
    engine, reference = _failures(*_overloaded(algorithm, name))
    assert engine != reference
