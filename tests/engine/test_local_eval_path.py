"""The one numpy local-evaluation path (engine/local.py).

Whatever a query's deliveries look like -- eager pools (a monolithic
round), streamed recipes, or both at once -- the numpy backend reaches
the segmented join kernel through ``evaluate_shard_pools`` and through
nothing else.
"""

from __future__ import annotations

import pytest

import repro.algorithms.localjoin as localjoin
import repro.engine.local as local
from repro.backend import numpy_available
from repro.core.query import parse_query
from repro.data.columnar import columnar_database
from repro.data.matching import matching_database
from repro.engine import (
    GridSpec,
    HashRoute,
    HeavyGridRoute,
    RoundEngine,
    collect_answers,
)
from repro.mpc.model import MPCConfig
from repro.mpc.routing import HashFamily
from repro.mpc.simulator import MPCSimulator

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable"
)

P = 8
QUERY = parse_query("S1(x,y), S2(y,z)")


def _routed_round(chunk_rows, eager=()):
    """One HC round; atoms named in ``eager`` take a non-shardable step
    (routed whole even when the round streams)."""
    database = matching_database(QUERY, n=50, rng=3)
    grid = GridSpec.from_shares(
        QUERY.variables, {"x": 1, "y": P, "z": 1}, HashFamily(0)
    )
    simulator = MPCSimulator(
        MPCConfig(p=P, backend="numpy"),
        input_bits=database.total_bits,
        enforce_capacity=False,
    )
    steps = [
        HeavyGridRoute(
            relation=atom.name, atom=atom, grid=grid, heavy={}, roles={}
        )
        if atom.name in eager
        else HashRoute(relation=atom.name, atom=atom, grid=grid)
        for atom in QUERY.atoms
    ]
    RoundEngine(simulator, chunk_rows=chunk_rows).run_round(
        steps, columnar_database(database, "numpy")
    )
    return database, simulator


@pytest.mark.parametrize(
    "chunk_rows,eager,lazy_atoms",
    [
        (None, (), set()),  # monolithic: eager pools only
        (16, (), {"S1", "S2"}),  # streamed: recipes only
        (16, ("S2",), {"S1"}),  # one query, both kinds of delivery
    ],
    ids=["monolithic", "streamed", "mixed"],
)
def test_every_delivery_kind_takes_the_shard_loop(
    monkeypatch, chunk_rows, eager, lazy_atoms
):
    database, simulator = _routed_round(chunk_rows, eager)
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

    answers, per_server = collect_answers(
        QUERY, simulator, range(P), "numpy"
    )
    assert kernel_calls and all(kernel_calls)
    assert answers == localjoin.evaluate_query(
        QUERY, {r.name: r.tuples for r in database}
    )
    assert sum(per_server) == len(answers) == 50


def test_expired_deadline_submits_no_shard_to_the_pool(monkeypatch):
    """The process-pool fan-out honours the request deadline: an
    already-expired budget raises before any shard task is submitted."""
    from repro.engine.deadline import Deadline, DeadlineExceeded
    from repro.engine.parallel.engine import ParallelContext

    _, simulator = _routed_round(chunk_rows=16)  # recipes: pool-eligible
    now = [0.0]
    deadline = Deadline(10.0, clock=lambda: now[0])
    now[0] = 1.0  # 1000 ms into a 10 ms budget
    with ParallelContext(2, min_rows=0) as context:
        submitted = []
        monkeypatch.setattr(
            context.pool,
            "submit",
            lambda *args, **kwargs: submitted.append(args),
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            collect_answers(
                QUERY,
                simulator,
                range(P),
                "numpy",
                parallel=context,
                deadline=deadline,
            )
    assert excinfo.value.where == "local-eval shard"
    assert not submitted


@pytest.mark.parametrize("shard_bytes", [None, "1"], ids=["one", "per-worker"])
def test_eager_sites_are_retained_as_worker_slices(monkeypatch, shard_bytes):
    """A ``retain`` sink gets the shard results split by worker: each
    table is a zero-copy slice holding exactly that worker's answers,
    however many shards evaluated the fleet."""
    from repro.engine import worker_answer_rows
    from repro.engine.streaming import SHARD_BYTES_ENV

    if shard_bytes is not None:
        monkeypatch.setenv(SHARD_BYTES_ENV, shard_bytes)
    _, simulator = _routed_round(chunk_rows=None)
    sink = {}
    answers, per_server = collect_answers(
        QUERY, simulator, range(P), "numpy", retain=sink, site="V"
    )
    site = sink["V"]
    assert [len(table) for table in site.tables] == per_server
    assert sum(per_server) == 50
    for worker, table in enumerate(site.tables):
        assert table.base is not None  # a view, not a copy
        assert sorted(map(tuple, table.tolist())) == list(
            worker_answer_rows(QUERY, simulator, worker)
        )
    assert tuple(map(tuple, site.merged.tolist())) == answers


@pytest.mark.parametrize("eager", [(), ("S2",)], ids=["streamed", "mixed"])
def test_streamed_sites_retain_nothing(eager):
    _, simulator = _routed_round(chunk_rows=16, eager=eager)
    sink = {}
    collect_answers(QUERY, simulator, range(P), "numpy", retain=sink)
    assert not sink
