"""The one local-evaluation path (engine/local.py).

Whatever a query's deliveries look like -- eager pools (a monolithic
round), streamed recipes, or both at once -- local evaluation reaches
the segmented join kernel through ``evaluate_shard_pools`` and through
nothing else.
"""

from __future__ import annotations

import pytest

import repro.algorithms.localjoin as localjoin
import repro.engine.local as local
from repro import oracle
from repro.core.query import parse_query
from repro.data.columnar import ColumnarRelation
from repro.data.generators import matching_database
from repro.engine import (
    GridSpec,
    HashRoute,
    RoundEngine,
    collect_answers,
)
from repro.mpc.model import MPCConfig
from repro.mpc.routing import HashFamily
from repro.mpc.simulator import MPCSimulator
from tests.conftest import exact_answers, pooled_rows, with_relation

P = 8
QUERY = parse_query("S1(x,y), S2(y,z)")


def _routed_round(chunk_rows, small=()):
    """One HC round; atoms named in ``small`` keep 10 of their 50 rows,
    so their source fits in one 16-row block even when the round
    streams."""
    database = matching_database(QUERY, n=50, rng=3)
    for name in small:
        relation = database[name]
        database = with_relation(
            database,
            ColumnarRelation(
                name,
                relation.arity,
                tuple(column[:10] for column in relation.columns),
                relation.domain_size,
            ),
        )
    grid = GridSpec.from_shares(
        QUERY.variables, {"x": 1, "y": P, "z": 1}, HashFamily(0)
    )
    simulator = MPCSimulator(
        MPCConfig(p=P),
        input_bits=database.total_bits,
        enforce_capacity=False,
    )
    steps = [
        HashRoute(relation=atom.name, atom=atom, grid=grid)
        for atom in QUERY.atoms
    ]
    RoundEngine(simulator, chunk_rows=chunk_rows).run_round(
        steps, database.relations
    )
    return database, simulator


@pytest.mark.parametrize(
    "chunk_rows,small,lazy_atoms",
    [
        (None, (), set()),  # monolithic: eager pools only
        (16, (), {"S1", "S2"}),  # streamed: recipes only
        (16, ("S2",), {"S1"}),  # one query, both kinds of delivery
    ],
    ids=["monolithic", "streamed", "mixed"],
)
def test_every_delivery_kind_takes_the_shard_loop(
    monkeypatch, chunk_rows, small, lazy_atoms
):
    database, simulator = _routed_round(chunk_rows, small)
    assert {
        atom.name
        for atom in QUERY.atoms
        if simulator.has_lazy_deliveries(atom.name)
    } == lazy_atoms

    inside_shard_eval = []
    kernel_calls = []
    shard_eval = local.evaluate_shard_pools
    kernel = localjoin.evaluate_query_table_segmented

    def spy_shard_eval(*args, **kwargs):
        inside_shard_eval.append(True)
        try:
            return shard_eval(*args, **kwargs)
        finally:
            inside_shard_eval.pop()

    def spy_kernel(*args, **kwargs):
        kernel_calls.append(bool(inside_shard_eval))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(local, "evaluate_shard_pools", spy_shard_eval)
    # Both bindings: the engine's import and the module global that
    # ``evaluate_query_table`` (the one-segment wrapper) resolves.
    monkeypatch.setattr(
        local, "evaluate_query_table_segmented", spy_kernel
    )
    monkeypatch.setattr(
        localjoin, "evaluate_query_table_segmented", spy_kernel
    )

    table, per_server = collect_answers(
        QUERY, simulator, range(P)
    )
    answers = tuple(map(tuple, table.tolist()))
    assert kernel_calls and all(kernel_calls)
    assert answers == exact_answers(QUERY, database)
    assert sum(per_server) == len(answers) == (10 if small else 50)


@pytest.mark.parametrize("shard_bytes", [None, "1"], ids=["one", "per-worker"])
def test_eager_sites_are_retained_as_worker_counts(monkeypatch, shard_bytes):
    """A ``retain`` sink gets each worker's answer count and the merged
    table itself, however many shards evaluated the fleet."""
    from repro.engine.streaming import SHARD_BYTES_ENV

    if shard_bytes is not None:
        monkeypatch.setenv(SHARD_BYTES_ENV, shard_bytes)
    _, simulator = _routed_round(chunk_rows=None)
    sink = {}
    answers, per_server = collect_answers(
        QUERY, simulator, range(P), retain=sink, site="V"
    )
    site = sink["V"]
    assert site.counts == per_server
    assert sum(per_server) == 50
    for worker, count in enumerate(site.counts):
        assert count == len(
            oracle.evaluate_query(
                QUERY,
                {
                    atom.name: pooled_rows(simulator, worker, atom.name)
                    for atom in QUERY.atoms
                },
            )
        )
    assert site.merged is answers


@pytest.mark.parametrize("small", [(), ("S2",)], ids=["streamed", "mixed"])
def test_streamed_sites_retain_nothing(small):
    _, simulator = _routed_round(chunk_rows=16, small=small)
    sink = {}
    collect_answers(QUERY, simulator, range(P), retain=sink)
    assert not sink


def test_expired_deadline_evaluates_no_shard(monkeypatch):
    """An already-expired budget raises before the first shard."""
    from repro.engine.deadline import Deadline, DeadlineExceeded

    _, simulator = _routed_round(chunk_rows=16)
    evaluated = []
    monkeypatch.setattr(
        local, "_eval_shard_local", lambda *args: evaluated.append(args)
    )
    now = [0.0]
    deadline = Deadline(10.0, clock=lambda: now[0])
    now[0] = 1.0  # 1000 ms into a 10 ms budget
    with pytest.raises(DeadlineExceeded) as excinfo:
        collect_answers(QUERY, simulator, range(P), deadline=deadline)
    assert excinfo.value.where == "local-eval shard"
    assert not evaluated


def test_deadline_is_checked_between_shards(monkeypatch):
    """A budget that runs out during one shard stops the loop before
    the next: the checkpoint sits between worker shards."""
    from repro.engine.deadline import Deadline, DeadlineExceeded
    from repro.engine.streaming import SHARD_BYTES_ENV

    monkeypatch.setenv(SHARD_BYTES_ENV, "1")  # one shard per worker
    _, simulator = _routed_round(chunk_rows=None)
    now = [0.0]
    evaluated = []
    evaluate = local._eval_shard_local

    def slow_shard(*args):
        evaluated.append(args[2:4])
        now[0] = 1.0  # the budget runs out inside the first shard
        return evaluate(*args)

    monkeypatch.setattr(local, "_eval_shard_local", slow_shard)
    deadline = Deadline(10.0, clock=lambda: now[0])
    with pytest.raises(DeadlineExceeded) as excinfo:
        collect_answers(QUERY, simulator, range(P), deadline=deadline)
    assert excinfo.value.where == "local-eval shard"
    assert evaluated == [(0, 1)]
