"""Smoke test of the benchmark harness itself, at toy sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of the tier-1 suite (``testpaths`` is ``tests``): it starts
real server subprocesses and talks TCP to them.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # noqa: F401 -- puts src/ on sys.path before the harness imports
import metrics
from harness import (
    Connection,
    Record,
    ServerCrashed,
    ServerProcess,
    run_pass,
    verify,
)
from workloads import WORKLOADS, build_plan

HERE = Path(__file__).resolve().parent
SEED = 3

TOYS = {
    "cached_mix": dict(n=300, repeats=3),
    "cold_exec": dict(n=400),
    "update_read": dict(n=300, repeats=4),
    "streamed_chain": dict(n=500, chunk_rows=128, stream_batch=100),
}


def toy(name: str):
    return dataclasses.replace(WORKLOADS[name], **TOYS[name])


#: Per-layer metrics that must be positive on a workload, and zero.
MOVES = {
    "cached_mix": (
        ["rpc.overhead_ms", "cache.result_hit_ratio", "cache.plan_hit_ratio"],
        ["engine.executions", "engine.local_ms", "planner.choose_ms"],
    ),
    # ivm.capture_ms and engine.other_ms; planner.choose_ms and
    # ivm.merge_ms: the suspects the issue wants as separate rows.
    "cold_exec": (
        ["ivm.capture_ms", "engine.other_ms", "algorithms.compile_ms"],
        ["cache.result_hit_ratio", "ivm.merge_ms"],
    ),
    "update_read": (
        ["planner.choose_ms", "ivm.merge_ms", "ivm.hit_ratio"],
        ["ivm.fallbacks"],
    ),
    "streamed_chain": (["rpc.streamed_batches", "engine.route_ms"], []),
}


@pytest.fixture(scope="module", params=list(TOYS))
def toy_run(request):
    """(name, [one untraced pass, one traced pass]) of a toy workload."""
    workload = toy(request.param)
    plan = build_plan(workload, SEED)
    return request.param, [
        run_pass(workload, plan, SEED, traced) for traced in (False, True)
    ]


def test_every_declared_metric_is_reported(toy_run):
    name, passes = toy_run
    values, details = metrics.end_to_end(passes[:1])
    assert set(values) == set(metrics.END_TO_END)
    for metric, value in values.items():
        if metric == "latency_tail_ms" and details["read_samples"] < 20:
            assert value is None
        else:
            assert isinstance(value, float) and value > 0, metric
    layers, trace_details = metrics.per_layer(passes)
    assert set(layers) == set(metrics.PER_LAYER)
    assert trace_details["missing_targets"] == []
    for metric, value in layers.items():
        assert isinstance(value, (int, float)), metric
    assert layers["mpc.rounds"] >= 1 and layers["mpc.max_load_bits"] > 0
    positive, zero = MOVES[name]
    assert all(layers[metric] > 0 for metric in positive), layers
    assert all(layers[metric] == 0 for metric in zero), layers


def test_no_request_fails(toy_run):
    _, passes = toy_run
    failures = [
        record.failure
        for result in passes
        for record in result.records
        if record.failure is not None
    ]
    assert failures == []


def test_the_ledger_closes(toy_run):
    """Span self times + rpc overhead = client latency, per request."""
    _, passes = toy_run
    rows = metrics.ledger(passes[1])
    timed = [r for r in passes[1].records if r.request.timed]
    assert len(rows) == len(timed)
    for row in rows:
        assert row.contained
        assert row.overhead > 0
        total = sum(row.spans.values()) + row.overhead
        assert total == pytest.approx(row.record.latency, rel=0.02)


def test_a_corrupted_reply_counts_as_a_failure():
    workload = toy("cached_mix")
    timed = build_plan(workload, SEED).timed
    request = next(r for r in timed if r.expected.count > 1)
    server = ServerProcess(workload, SEED, trace=False)
    try:
        connection = Connection(server.wait_ready())
        _, _, lines = connection.exchange(request.line)
        connection.close()
    finally:
        server.stop()

    def failure_of(reply: dict) -> str | None:
        record = Record(request, lines=[json.dumps(reply).encode() + b"\n"])
        verify(record)
        return record.failure

    # The server's own bytes take verify()'s short cut; re-encoded
    # with other separators the same reply is parsed and digested.
    assert request.expected.inlined in lines[-1]
    served = Record(request, lines=lines)
    verify(served)
    assert served.failure is None
    reply = json.loads(lines[-1])
    assert failure_of(reply) is None
    wrong = json.loads(lines[-1])
    wrong["answers"][0][0] += 1
    assert failure_of(wrong) == "wrong answers"
    short = json.loads(lines[-1])
    short["answers"].pop()
    assert failure_of(short).startswith("count")
    assert failure_of({"ok": False, "error": "boom"}).startswith("error reply")
    stale = dict(reply, version=7)
    assert failure_of(stale).startswith("version")


def test_a_crashed_server_fails_the_workload():
    workload = dataclasses.replace(toy("cached_mix"), vocabulary="nope")
    with pytest.raises(ServerCrashed, match="stderr tail"):
        run_pass(workload, build_plan(toy("cached_mix"), SEED), SEED, False)


def test_compare_applies_the_bounds():
    def results(p50: list[float], rounds: int) -> dict:
        return {"workloads": {"w": [
            {
                "end_to_end": {"latency_p50_ms": value},
                "per_layer": {"mpc.rounds": rounds},
                "details": {"failed_share": 0.0},
            }
            for value in p50
        ]}}

    steady = results([10.0, 10.1, 10.2, 10.1], 2)
    verdicts = {
        row[1]: row[4] for row in metrics.compare(steady, steady)
    }
    assert verdicts == {"latency_p50_ms": "ok", "mpc.rounds": "ok"}
    worse = 1.1 + metrics.END_TO_END["latency_p50_ms"]["bound"]
    slower = results([v * worse for v in (10.0, 10.1, 10.2, 10.1)], 3)
    verdicts = {row[1]: row[4] for row in metrics.compare(steady, slower)}
    assert verdicts == {
        "latency_p50_ms": "regressed", "mpc.rounds": "regressed"
    }
    noisy = results([8.0, 10.0, 12.0, 14.0], 2)
    verdicts = {row[1]: row[4] for row in metrics.compare(steady, noisy)}
    assert verdicts["latency_p50_ms"] == "unresolved"


def test_without_the_program_the_command_fails(tmp_path):
    """BENCHMARK.json + the benchmark's files alone: no result, not 0."""
    root = HERE.parents[1]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    finished = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cached_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert "{" not in finished.stdout
