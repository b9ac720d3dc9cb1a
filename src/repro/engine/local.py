"""Post-round local evaluation shared by every algorithm.

After the engine delivers a round, each worker evaluates a conjunctive
query over the fragments it received.  This module is the single
join-and-collect loop, the shard loop: contiguous worker ranges are
planned against a byte budget (:func:`_plan_eval_shards`), each
range's delivery pools are handed over by
:meth:`~repro.mpc.simulator.MPCSimulator.pool_shard` (eager pools
sliced zero-copy, multi-block recipes re-routed for the range only) and
joined in one vectorized pass by
:func:`~repro.algorithms.localjoin.evaluate_query_table_segmented`,
which prepends the worker id to every join key.  Per-server answer
counts fall out of one ``bincount`` over the answer segment ids; the
deduplicated union out of one
:func:`~repro.data.columnar.sorted_unique_rows` over all shards -- the
engine's one row sort, on packed int64 keys.  A
monolithic execution under the default budget is exactly one shard
spanning the fleet; a streamed one is many.  Every site -- views and
answer collection alike -- evaluates in this process.

The answer sets, per-server answer counts and materialised views
equal what the row-at-a-time reference (:mod:`repro.oracle`) computes
with the backtracking join over each worker's rows.

Routing never delivers the same source row twice to one worker under
any :class:`~repro.engine.steps.RoutingStep` (a step's destination set
per row is duplicate-free, and engine sources are deduplicated), so
the join skips the dedup passes (``assume_unique``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy

from repro.algorithms.localjoin import evaluate_query_table_segmented
from repro.core.query import ConjunctiveQuery
from repro.data.columnar import ColumnarRelation, sorted_unique_rows
from repro.engine.deadline import Deadline
from repro.engine.profile import RoundProfiler
from repro.mpc.simulator import ColumnPool, MPCSimulator

KeyOf = Callable[[str], str]


def _identity_key(name: str) -> str:
    return name


@dataclass(frozen=True)
class SiteAnswers:
    """One evaluation site's answers, as local evaluation produced them.

    What incremental maintenance retains from a full execution: the
    state a delta is later merged into is these very objects, never a
    re-derivation.

    Attributes:
        counts: per-worker answer counts, worker order.
        merged: the canonical merged table (lex-sorted unique rows),
            one int64 array.
    """

    counts: list[int]
    merged: Any


#: Site name (None for the answer-collection site) -> its answers.
SiteSink = dict[str | None, SiteAnswers]


def union_answer_tables(tables: Iterable[Any], arity: int):
    """The sorted duplicate-free union of int64 answer tables.

    One :func:`~repro.data.columnar.sorted_unique_rows` over the
    stacked tables.  Row order is lexicographic -- exactly the order
    Python tuple sorting gives -- so the result is the canonical form
    every consumer (shard merge, IVM) compares and stores.
    """
    nonempty = [table for table in tables if len(table)]
    if not nonempty:
        return numpy.zeros((0, arity), dtype=numpy.int64)
    stacked = (
        nonempty[0] if len(nonempty) == 1 else numpy.concatenate(nonempty)
    )
    return sorted_unique_rows(stacked)


def evaluate_shard_pools(
    query: ConjunctiveQuery,
    pools: dict[str, ColumnPool | None],
    width: int,
):
    """Evaluate one contiguous worker shard from per-atom pools.

    ``pools`` maps atom name to that shard's delivery pool (None when
    the relation received nothing -- an empty fragment, exactly what a
    worker with no deliveries joins against).  Returns ``(answers
    table, per-worker answer counts)`` for the shard's ``width``
    workers.  The table is grouped by worker, ascending: pools lay
    their rows out worker by worker and the segmented join keeps its
    first atom's row order, so worker ``w``'s answers are the row
    slice the counts' running sum delimits.
    """
    fragments: dict[str, tuple] = {}
    segments: dict[str, object] = {}
    sorted_relations: set[str] = set()
    for atom in query.atoms:
        pool = pools.get(atom.name)
        if pool is None or not len(pool.columns):
            fragments[atom.name] = tuple(
                numpy.zeros(0, dtype=numpy.int64)
                for _ in range(atom.arity)
            )
            segments[atom.name] = numpy.zeros(0, dtype=numpy.int64)
            sorted_relations.add(atom.name)
            continue
        counts = pool.offsets[1:] - pool.offsets[:-1]
        fragments[atom.name] = pool.columns
        segments[atom.name] = numpy.repeat(
            numpy.arange(width, dtype=numpy.int64), counts
        )
        if pool.source_sorted:
            sorted_relations.add(atom.name)
    answers, answer_segments = evaluate_query_table_segmented(
        query,
        fragments,
        segments,
        num_segments=width,
        assume_unique=True,
        sorted_relations=sorted_relations,
    )
    per_worker = numpy.bincount(answer_segments, minlength=width)
    return answers, per_worker.tolist()


def _plan_eval_shards(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    k: int,
    key_of: KeyOf,
) -> list[tuple[int, int]]:
    """Contiguous worker shards whose pooled bytes fit the eval budget.

    The budget covers the *sum* of all atoms' fragments in a shard --
    the rows the segmented join actually touches at once.
    """
    from repro.engine.streaming import (
        plan_worker_shards,
        resolve_shard_bytes,
    )

    per_worker = numpy.zeros(k, dtype=numpy.int64)
    for atom in query.atoms:
        byte_counts = simulator.pool_worker_bytes(key_of(atom.name))
        if byte_counts is not None:
            per_worker += byte_counts[:k]
    return plan_worker_shards(per_worker, k, resolve_shard_bytes())


def _eval_shard_local(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    lo: int,
    hi: int,
    key_of: KeyOf,
):
    """Materialise and evaluate workers ``[lo, hi)`` in-process."""
    pools = {
        atom.name: simulator.pool_shard(key_of(atom.name), lo, hi)
        for atom in query.atoms
    }
    return evaluate_shard_pools(query, pools, hi - lo)


def _merged_answer_table(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    workers: Iterable[int],
    key_of: KeyOf,
    profiler: RoundProfiler | None = None,
    deadline: Deadline | None = None,
    retain: SiteSink | None = None,
    site: str | None = None,
):
    """All workers' answers, one bounded worker shard at a time.

    The only site evaluator.  Contiguous worker ranges
    are materialised (eager pools sliced zero-copy, recipes re-routed
    for the range), evaluated with the segmented join and
    freed -- peak memory is one shard's pools plus join temporaries.
    Eager deliveries under the default budget plan a single shard, so
    a monolithic execution joins the whole fleet in one pass.

    With a ``retain`` sink and eager deliveries only, the merged
    table and the per-worker answer counts are kept as
    ``retain[site]``.  Recipe (multi-block) deliveries record
    nothing: materialising them for retention is the peak streaming
    avoids.

    Returns:
        ``(merged, per_server)`` -- the deduplicated union (sorted
        lexicographically) and the per-worker answer counts.

    Raises:
        ValueError: when ``workers`` is not the prefix ``0..k-1``
            (shards are contiguous worker ranges).
        DeadlineExceeded: when ``deadline`` expires before a shard.
    """
    workers = list(workers)
    k = len(workers)
    if workers != list(range(k)):
        raise ValueError(
            "local evaluation shards the worker prefix 0..k-1; "
            f"got {workers}"
        )
    results = []
    for lo, hi in _plan_eval_shards(query, simulator, k, key_of):
        if deadline is not None:
            deadline.check("local-eval shard")
        began = time.perf_counter()
        results.append(_eval_shard_local(query, simulator, lo, hi, key_of))
        if profiler is not None:
            profiler.add_block(
                simulator.round_index,
                "eval",
                time.perf_counter() - began,
            )
    merged = union_answer_tables(
        (answers for answers, _ in results), len(query.head)
    )
    per_server = [count for _, counts in results for count in counts]
    if retain is not None and not any(
        simulator.has_lazy_deliveries(key_of(atom.name))
        for atom in query.atoms
    ):
        retain[site] = SiteAnswers(counts=per_server, merged=merged)
    return merged, per_server


def _measure_local(profiler: RoundProfiler | None, simulator: MPCSimulator):
    if profiler is None:
        return nullcontext()
    return profiler.measure(simulator.round_index, "local")


def collect_answers(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    workers: Iterable[int],
    key_of: KeyOf = _identity_key,
    profiler: RoundProfiler | None = None,
    deadline: Deadline | None = None,
    retain: SiteSink | None = None,
    site: str | None = None,
) -> tuple[Any, list[int]]:
    """Evaluate ``query`` at every worker and union the results.

    ``retain``, when given, receives the per-worker answer counts and
    the merged table under ``site`` (see :class:`SiteAnswers`) --
    unless some delivery is a multi-block recipe, which retains
    nothing.

    Returns:
        ``(table, per_server)`` -- the sorted duplicate-free union
        of all workers' answers as one int64 table (``retain``'s
        ``merged``), and the per-worker answer counts in iteration
        order.
    """
    with _measure_local(profiler, simulator):
        return _merged_answer_table(
            query,
            simulator,
            workers,
            key_of,
            profiler=profiler,
            deadline=deadline,
            retain=retain,
            site=site,
        )


def materialise_view(
    name: str,
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    workers: Iterable[int],
    domain_size: int,
    key_of: KeyOf = _identity_key,
    profiler: RoundProfiler | None = None,
    deadline: Deadline | None = None,
    retain: SiteSink | None = None,
) -> tuple[ColumnarRelation, list[int]]:
    """Materialise an operator's output view from all workers' answers.

    The view's schema is ``query.head``; its tuples are the sorted
    duplicate-free union of the per-worker evaluations, stored
    columnar so the next round can re-route the view
    by content exactly like a base relation (the tuple-based MPC
    discipline of Section 4.2.1).  ``retain`` receives the view's
    :class:`SiteAnswers` under ``name``, as in :func:`collect_answers`.

    Returns:
        ``(view, per_server_counts)``.
    """
    merged, per_server = collect_answers(
        query, simulator, workers, key_of, profiler, deadline, retain,
        site=name,
    )
    view = _view_from_table(name, merged, len(query.head), domain_size)
    return view, per_server


def _view_from_table(
    name: str, merged: Any, arity: int, domain_size: int
) -> ColumnarRelation:
    """An answer table as a columnar relation."""
    return ColumnarRelation(
        name=name,
        arity=arity,
        columns=tuple(
            numpy.ascontiguousarray(merged[:, position])
            for position in range(arity)
        ),
        domain_size=domain_size,
    )


def fragment_tuple_count(
    simulator: MPCSimulator, worker: int, relation: str
) -> int:
    """Tuples of ``relation`` held by ``worker`` (its delivery pools)."""
    counts = simulator.pool_worker_counts(relation)
    return 0 if counts is None else int(counts[worker])
