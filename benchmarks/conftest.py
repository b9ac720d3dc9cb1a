"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper and prints
it (run with ``pytest benchmarks/ --benchmark-only -s`` to see the
tables; without ``-s`` the rows are still checked by assertions).
"""

from __future__ import annotations

import gc
import json
import os
import time
import tracemalloc

import pytest


def emit(text: str) -> None:
    """Print a regenerated table, surviving pytest capture settings."""
    print("\n" + text)


def peak_rss_bytes() -> int:
    """Lifetime peak resident set size of the benchmark process.

    The process's own ``ru_maxrss`` (Linux reports it in kilobytes,
    macOS in bytes); everything runs in this one process.  Returns 0
    on platforms without :mod:`resource`.  Lifetime-peak semantics
    make this a conservative ceiling check: nothing the benchmark did
    can have exceeded it.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak


def measure_peak(func):
    """Run ``func`` once and measure its peak memory.

    Returns ``(result, memory)`` where ``memory`` holds the two fields
    every BENCH_*.json records:

    * ``tracemalloc_peak`` -- peak *Python-allocator* bytes during the
      call (numpy array buffers included via its tracemalloc domain);
    * ``peak_rss_bytes`` -- the process's peak RSS after the call (OS
      view; includes interpreter + imports).
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = func()
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, {
        "tracemalloc_peak": int(traced_peak),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def run_pinned(name, query, database, p, **options):
    """The pinned, cache-free path: ``compile_with`` + ``execute_plan``."""
    # Imported late: benchmarks/e2e puts src/ on sys.path after this loads.
    from repro.algorithms.registry import compile_with
    from repro.engine import execute_plan

    return execute_plan(compile_with(name, query, p, **options), database)


def check_oracle_parity(plan, database):
    """Execute ``plan`` on the engine and on :mod:`repro.oracle` and
    assert everything observable agrees: answers, per-server answer
    counts, view sizes, heavy hitters and per-round received bits and
    tuples.  Returns the engine's execution."""
    from repro import oracle
    from repro.engine import execute_plan

    execution = execute_plan(plan, database)
    reference = oracle.execute_plan(plan, database)
    assert execution.answers == reference.answers
    assert execution.per_server == reference.per_server
    assert execution.view_sizes == reference.view_sizes
    assert execution.heavy_hitters == reference.heavy_hitters
    assert [
        (stats.received_bits, stats.received_tuples)
        for stats in execution.report.rounds
    ] == [
        (stats.received_bits, stats.received_tuples)
        for stats in reference.report.rounds
    ]
    return execution


def best_of(runs, func):
    """Best-of-N wall-clock timing: ``(seconds, last_result)``."""
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def record_bench(name: str, payload: dict) -> str:
    """Write one benchmark's results to ``BENCH_<name>.json``.

    The target directory is ``$BENCH_DIR`` (default: the current
    working directory); CI uploads these files as workflow artifacts
    so the perf trajectory of the engine is preserved run over run.

    Every payload records the runner's ``cores`` (unless the
    benchmark already did): recorded speedups are only comparable
    between runs on the same core count, and ``trend.py`` skips the
    comparison when the counts differ.
    """
    payload = dict(payload)
    payload.setdefault("cores", os.cpu_count() or 1)
    directory = os.environ.get("BENCH_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (heavy sweeps)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
