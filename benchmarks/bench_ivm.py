"""E14 -- delta-aware serving: incremental maintenance vs re-execution.

The IVM subsystem's claim: on an update-heavy serving workload, a
request that follows a small delta should cost proportional to the
*delta*, not the database -- while staying bit-identical to the full
re-execution it replaced.

``test_ivm_throughput`` pins the gate: on a 90/10 read/write workload
(10 update rounds, each a single-row insert followed by 9 distinct
query shapes) the IVM-enabled service answers the post-delta reads
>= 5x faster than an identical service with ``ivm=False``, with every
read's answers verified equal between the two paths, under the
standard RSS ceiling and the IVM store's own byte budget.

``test_ivm_fault_drill`` pins the degradation contract: under
``REPRO_FAULT_WORKER_DEATH`` the incremental path steps aside for the
named reason ``faults-active`` and every answer still matches the
healthy control -- degraded throughput, never wrong answers.
"""

from __future__ import annotations

import time

from conftest import emit, peak_rss_bytes, record_bench

from repro.analysis.reporting import format_table
from repro.core.query import parse_query
from repro.data.matching import matching_database
from repro.serve import QueryService
from repro.engine.faults import WORKER_DEATH_ENV

VOCAB = "S1(x,y), S2(y,z), S3(z,x)"
N = 1_000
#: The numpy engine re-executes n=1000 too quickly for the fixed
#: per-read serving overhead not to dominate; scale the database up so
#: the full-path cost is actually proportional to the data.
N_NUMPY = 8_000
P = 16
ROUNDS = 10
# 9 read shapes x ROUNDS = 90 reads against 10 writes: the 90/10 mix.
# Pairwise NON-isomorphic (the plan cache canonicalises up to renaming
# of variables and relations): isomorphic repeats would share a result
# cache entry and be served as plain result hits instead of merges.
DISTINCT_QUERIES = (
    "S1(x,y)",
    "S1(x,y), S2(y,z)",
    "S1(x,y), S2(x,z)",
    "S1(x,y), S3(y,x)",
    "S1(x,y), S2(x,y)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S1(x,y), S2(y,z), S3(z,w)",
    "S1(x,y), S2(y,z), S3(y,w)",
    "S1(x,y), S2(x,z), S3(x,w)",
)
#: Lifetime peak RSS ceiling, same rationale as bench_serving.
MEMORY_CEILING_BYTES = 2 * 1024**3


def _delta_rows(database, count):
    """``count`` absent S1 rows within the domain (no bit growth)."""
    present = set(database["S1"].tuples)
    rows = []
    for a in range(1, database.domain_size + 1):
        for b in range(1, database.domain_size + 1):
            if (a, b) not in present:
                rows.append((a, b))
                if len(rows) == count:
                    return rows
    raise AssertionError("domain exhausted")


def _run_leg(backend, deltas, ivm, n=N):
    """One service through the 90/10 workload; timed reads only."""
    database = matching_database(parse_query(VOCAB), n=n, rng=0)
    service = QueryService(database, p=P, backend=backend, ivm=ivm)
    for query in DISTINCT_QUERIES:  # warm: compile + capture state
        service.execute(query)
    read_seconds = 0.0
    transcript = []
    statuses = []
    for rows in deltas:
        service.update(inserts={"S1": rows})
        start = time.perf_counter()
        results = [service.execute(query) for query in DISTINCT_QUERIES]
        read_seconds += time.perf_counter() - start
        transcript.append([result.answers for result in results])
        statuses.extend(result.ivm for result in results)
    return service, read_seconds, transcript, statuses


def test_ivm_throughput(once, bench_backend):
    """IVM reads >= 5x over full re-execution on the 90/10 workload."""
    n = N if bench_backend == "pure" else N_NUMPY
    probe = matching_database(parse_query(VOCAB), n=n, rng=0)
    rows = _delta_rows(probe, ROUNDS)
    deltas = [[row] for row in rows]

    def timed():
        control, control_seconds, control_answers, _ = _run_leg(
            bench_backend, deltas, ivm=False, n=n
        )
        served, served_seconds, served_answers, statuses = _run_leg(
            bench_backend, deltas, ivm=True, n=n
        )
        return (
            control,
            served,
            control_seconds,
            served_seconds,
            control_answers,
            served_answers,
            statuses,
        )

    (
        control,
        served,
        control_seconds,
        served_seconds,
        control_answers,
        served_answers,
        statuses,
    ) = once(timed)

    # Bit-identical answers on every post-delta read, both paths.
    assert served_answers == control_answers
    # Each round's first pass merges; repeats within a round would be
    # result hits, but every shape runs once per version, so every
    # read was served by a delta merge.
    reads = ROUNDS * len(DISTINCT_QUERIES)
    assert statuses.count("merged") == reads, statuses
    assert served.stats.ivm_hits == reads
    assert served.stats.ivm_fallbacks == 0
    assert control.stats.ivm_hits == 0

    speedup = control_seconds / served_seconds
    retained = served.ivm_retained_bytes
    budget = served.ivm.policy.max_bytes
    memory_bytes = peak_rss_bytes()
    emit(
        format_table(
            ["serving path", "read seconds", "reads/s", "speedup"],
            [
                [
                    "full re-execution",
                    f"{control_seconds:.4f}",
                    f"{reads / control_seconds:.0f}",
                    "1.0x",
                ],
                [
                    "incremental maintenance",
                    f"{served_seconds:.4f}",
                    f"{reads / served_seconds:.0f}",
                    f"{speedup:.1f}x",
                ],
            ],
            title=f"E14: 90/10 workload, n={n} p={P} "
            f"({bench_backend}); {reads} post-delta reads, "
            f"{ROUNDS} single-row deltas; retained "
            f"{served.ivm_retained_states} states / {retained} bytes",
        )
    )
    record_bench(
        "ivm",
        {
            "vocab": VOCAB,
            "backend": bench_backend,
            "n": n,
            "p": P,
            "rounds": ROUNDS,
            "reads": reads,
            "writes": ROUNDS,
            "control_read_seconds": control_seconds,
            "ivm_read_seconds": served_seconds,
            "speedup": speedup,
            "ivm_hits": served.stats.ivm_hits,
            "ivm_fallbacks": served.stats.ivm_fallbacks,
            "retained_states": served.ivm_retained_states,
            "retained_bytes": retained,
            "peak_rss_bytes": memory_bytes,
        },
    )
    assert speedup >= 5.0, f"incremental serving only {speedup:.2f}x faster"
    assert retained <= budget, f"retained {retained} over budget {budget}"
    assert memory_bytes <= MEMORY_CEILING_BYTES, (
        f"peak RSS {memory_bytes} exceeds ceiling {MEMORY_CEILING_BYTES}"
    )


def test_ivm_fault_drill(once, bench_backend, monkeypatch):
    """Worker-death drill: full-path degradation, identical answers."""
    # Smaller data: the drill checks degradation, not throughput.
    drill_n = 200
    probe = matching_database(parse_query(VOCAB), n=drill_n, rng=0)
    deltas = [[row] for row in _delta_rows(probe, 3)]

    def drilled():
        control, _, control_answers, _ = _run_leg(
            bench_backend, deltas, ivm=False, n=drill_n
        )
        monkeypatch.setenv(WORKER_DEATH_ENV, "1")
        try:
            served, _, served_answers, statuses = _run_leg(
                bench_backend, deltas, ivm=True, n=drill_n
            )
        finally:
            monkeypatch.delenv(WORKER_DEATH_ENV)
        return control_answers, served, served_answers, statuses

    control_answers, served, served_answers, statuses = once(drilled)
    assert served_answers == control_answers
    assert set(statuses) == {"faults-active"}, statuses
    assert served.stats.ivm_hits == 0
    assert served.stats.ivm_fallbacks == len(statuses)
    emit(
        f"E14 fault drill: {len(statuses)} post-delta reads under "
        "REPRO_FAULT_WORKER_DEATH all fell back to full re-execution "
        "with answers identical to the healthy control."
    )
