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


#: Peak RSS of executor children that exited during the *current*
#: measurement, summed.  Fan-out workers report their ``ru_maxrss`` as
#: they close (via ``repro.api.fanout.drain_worker_peaks``,
#: which pops on read); accumulating the drained values here keeps
#: repeated :func:`peak_rss_bytes` calls monotone within one
#: measurement, while :func:`measure_peak` zeroes the account so one
#: benchmark's dead workers are never charged against a later
#: benchmark's ceiling.
_CLOSED_CHILDREN_BYTES = 0


def _drain_closed_worker_peaks() -> None:
    global _CLOSED_CHILDREN_BYTES
    try:
        from repro.api.fanout import drain_worker_peaks
    except ImportError:  # pragma: no cover - partial checkout
        return
    _CLOSED_CHILDREN_BYTES += sum(drain_worker_peaks())


def _live_descendant_peak_bytes() -> int:
    """Summed ``VmHWM`` of every live descendant process (Linux).

    Walks ``/proc`` once, building the ppid tree, so executor
    processes that are still alive at measurement time (shard pools,
    fan-out workers, spawn resource trackers) are charged to the
    benchmark.  Returns 0 where ``/proc`` is unavailable.
    """
    proc = "/proc"
    if not os.path.isdir(proc):  # pragma: no cover - non-Linux
        return 0
    parents: dict[int, int] = {}
    peaks: dict[int, int] = {}
    for entry in os.listdir(proc):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join(proc, entry, "status")) as handle:
                fields = dict(
                    line.split(":", 1)
                    for line in handle
                    if ":" in line
                )
        except OSError:  # pid exited mid-walk
            continue
        pid = int(entry)
        try:
            parents[pid] = int(fields["PPid"].strip())
            peaks[pid] = int(fields["VmHWM"].strip().split()[0]) * 1024
        except (KeyError, ValueError):  # kernel threads lack VmHWM
            continue
    me = os.getpid()
    total = 0
    for pid in peaks:
        ancestor = parents.get(pid)
        while ancestor is not None and ancestor > 1:
            if ancestor == me:
                total += peaks[pid]
                break
            ancestor = parents.get(ancestor)
    return total


def peak_rss_bytes() -> int:
    """Lifetime peak resident set size of the whole process tree.

    The benchmark process's own ``ru_maxrss`` (Linux reports it in
    kilobytes, macOS in bytes) plus every executor child it spawned:
    live descendants contribute their ``/proc/<pid>/status`` ``VmHWM``,
    and fan-out workers that already exited contribute the peak they
    reported at close.  Returns 0 on platforms without
    :mod:`resource`.  Lifetime-peak semantics make this a conservative
    ceiling check: nothing the benchmark did can have exceeded it.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    _drain_closed_worker_peaks()
    return peak + _CLOSED_CHILDREN_BYTES + _live_descendant_peak_bytes()


def measure_peak(func):
    """Run ``func`` once and measure its peak memory.

    Returns ``(result, memory)`` where ``memory`` holds the two fields
    every BENCH_*.json records:

    * ``tracemalloc_peak`` -- peak *Python-allocator* bytes during the
      call (numpy array buffers included via its tracemalloc domain);
    * ``peak_rss_bytes`` -- the process tree's peak RSS after the
      call (OS view; includes interpreter + imports, plus executor
      children alive at or closed during the call -- children from
      *earlier* measurements are written off here first).
    """
    global _CLOSED_CHILDREN_BYTES
    _drain_closed_worker_peaks()
    _CLOSED_CHILDREN_BYTES = 0
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
    comparison when the counts differ or fall below a benchmark's
    ``speedup_gate_cores`` threshold.
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


def pytest_addoption(parser):
    """Select the execution engine for backend-aware benchmarks."""
    parser.addoption(
        "--backend",
        action="store",
        default="pure",
        choices=("pure", "numpy", "auto"),
        help="repro compute backend to benchmark (default: pure)",
    )


@pytest.fixture
def bench_backend(request):
    """The resolved compute backend selected via ``--backend``."""
    from repro.backend import resolve_backend

    return resolve_backend(request.config.getoption("--backend"))
