"""E14 -- delta-aware serving: incremental maintenance vs re-execution.

The IVM subsystem's claim: on an update-heavy serving workload, a
request that follows a small delta should cost proportional to the
*delta*, not the database -- while staying bit-identical to the full
re-execution it replaced.

``test_ivm_throughput`` pins the gate: on a 90/10 read/write workload
(10 update rounds, each a single-row insert followed by 9 distinct
query shapes) an IVM-enabled ``connect(..., algorithm="hypercube")``
session answers the post-delta reads >= 5x faster than an identical
session with ``ivm=False``, with every
read's answers verified equal between the two paths, under the
standard RSS ceiling and the IVM store's own byte budget.
"""

from __future__ import annotations

import time

from conftest import emit, peak_rss_bytes, record_bench

from repro import connect
from repro.analysis.reporting import format_table
from repro.core.query import parse_query
from repro.data.generators import matching_database

VOCAB = "S1(x,y), S2(y,z), S3(z,x)"
#: The engine re-executes n=1000 too quickly for the fixed per-read
#: serving overhead not to dominate; n=8000 makes the full-path cost
#: actually proportional to the data.
N = 8_000
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
    present = set(database["S1"].rows())
    rows = []
    for a in range(1, database.domain_size + 1):
        for b in range(1, database.domain_size + 1):
            if (a, b) not in present:
                rows.append((a, b))
                if len(rows) == count:
                    return rows
    raise AssertionError("domain exhausted")


def _run_leg(deltas, ivm, n=N):
    """One session through the 90/10 workload; timed reads only."""
    database = matching_database(parse_query(VOCAB), n=n, rng=0)
    session = connect(database, p=P, algorithm="hypercube", ivm=ivm)
    for query in DISTINCT_QUERIES:  # warm: compile + capture state
        session.execute(query)
    read_seconds = 0.0
    transcript = []
    statuses = []
    for rows in deltas:
        session.update(inserts={"S1": rows})
        start = time.perf_counter()
        results = [session.execute(query) for query in DISTINCT_QUERIES]
        read_seconds += time.perf_counter() - start
        transcript.append([result.answers for result in results])
        statuses.extend(result.ivm for result in results)
    return session, read_seconds, transcript, statuses


def test_ivm_throughput(once):
    """IVM reads >= 5x over full re-execution on the 90/10 workload."""
    probe = matching_database(parse_query(VOCAB), n=N, rng=0)
    rows = _delta_rows(probe, ROUNDS)
    deltas = [[row] for row in rows]

    def timed():
        control, control_seconds, control_answers, _ = _run_leg(
            deltas, ivm=False
        )
        served, served_seconds, served_answers, statuses = _run_leg(
            deltas, ivm=True
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
    retained = served.ivm.retained_bytes
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
            title=f"E14: 90/10 workload, n={N} p={P}; "
            f"{reads} post-delta reads, "
            f"{ROUNDS} single-row deltas; retained "
            f"{served.ivm.retained_states} states / {retained} bytes",
        )
    )
    record_bench(
        "ivm",
        {
            "vocab": VOCAB,
            "n": N,
            "p": P,
            "rounds": ROUNDS,
            "reads": reads,
            "writes": ROUNDS,
            "control_read_seconds": control_seconds,
            "ivm_read_seconds": served_seconds,
            "speedup": speedup,
            "ivm_hits": served.stats.ivm_hits,
            "ivm_fallbacks": served.stats.ivm_fallbacks,
            "retained_states": served.ivm.retained_states,
            "retained_bytes": retained,
            "peak_rss_bytes": memory_bytes,
        },
    )
    assert speedup >= 5.0, f"incremental serving only {speedup:.2f}x faster"
    assert retained <= budget, f"retained {retained} over budget {budget}"
    assert memory_bytes <= MEMORY_CEILING_BYTES, (
        f"peak RSS {memory_bytes} exceeds ceiling {MEMORY_CEILING_BYTES}"
    )
