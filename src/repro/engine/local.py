"""Post-round local evaluation shared by every algorithm.

After the engine delivers a round, each worker evaluates a conjunctive
query over the fragments it received.  This module is the single
join-and-collect loop, with one path per backend:

* ``pure`` -- the reference: the backtracking join
  (:func:`~repro.algorithms.localjoin.evaluate_query`) over each
  worker's mailbox rows, unioned in a Python set;
* ``numpy`` -- the shard loop: contiguous worker ranges are planned
  against a byte budget (:func:`_plan_eval_shards`), each range's
  delivery pools are handed over by
  :meth:`~repro.mpc.simulator.MPCSimulator.pool_shard` (eager pools
  sliced zero-copy, streamed recipes re-routed for the range only) and
  joined in one vectorized pass by
  :func:`~repro.algorithms.localjoin.evaluate_query_table_segmented`,
  which prepends the worker id to every join key.  Per-server answer
  counts fall out of one ``bincount`` over the answer segment ids; the
  deduplicated union out of one ``unique`` over all shards.  A
  monolithic execution under the default budget is exactly one shard
  spanning the fleet; a streamed one is many, optionally evaluated on
  the process pool.

Both backends hand the callers identical answer sets, per-server
answer counts and (for the multi-round executor) materialised views.

Routing never delivers the same source row twice to one worker under
any :class:`~repro.engine.steps.RoutingStep` (a step's destination set
per row is duplicate-free, and engine sources are deduplicated), so
the numpy path skips the dedup passes (``assume_unique``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Iterable

from repro.backend import NUMPY, require_numpy
from repro.algorithms.localjoin import (
    evaluate_query,
    evaluate_query_table_segmented,
)
from repro.core.query import ConjunctiveQuery
from repro.data.columnar import ColumnarRelation
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
        tables: per-worker duplicate-free answer tables, worker order
            -- numpy: int64 row slices of the shard results
            (zero-copy); pure: each worker's sorted row tuples.
        merged: the canonical merged table (lex-sorted unique rows) --
            numpy: one int64 array; pure: a tuple of row tuples.
    """

    tables: list[Any]
    merged: Any


#: Site name (None for the answer-collection site) -> its answers.
SiteSink = dict[str | None, SiteAnswers]


def worker_answer_rows(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    worker: int,
    key_of: KeyOf = _identity_key,
) -> tuple[tuple[int, ...], ...]:
    """One worker's answers as sorted row tuples (pure backend)."""
    local = {
        atom.name: simulator.worker_rows(worker, key_of(atom.name))
        for atom in query.atoms
    }
    return evaluate_query(query, local)


def union_answer_tables(tables: Iterable[Any], arity: int):
    """The sorted duplicate-free union of int64 answer tables.

    Row order is lexicographic -- exactly the order Python tuple
    sorting gives -- so the result is the canonical form every numpy
    consumer (shard merge, async views, IVM) compares and stores.
    """
    numpy = require_numpy()
    nonempty = [table for table in tables if len(table)]
    if not nonempty:
        return numpy.zeros((0, arity), dtype=numpy.int64)
    stacked = (
        nonempty[0] if len(nonempty) == 1 else numpy.concatenate(nonempty)
    )
    return numpy.unique(stacked, axis=0)


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
    slice the counts' running sum delimits.  Shared verbatim by the
    in-process shard loop and the process-pool eval task, so both
    produce identical rows.
    """
    numpy = require_numpy()
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
    shard_bytes: int | None = None,
) -> list[tuple[int, int]]:
    """Contiguous worker shards whose pooled bytes fit the eval budget.

    The budget covers the *sum* of all atoms' fragments in a shard --
    the rows the segmented join actually touches at once.
    """
    from repro.engine.streaming import (
        plan_worker_shards,
        resolve_shard_bytes,
    )

    numpy = require_numpy()
    per_worker = numpy.zeros(k, dtype=numpy.int64)
    for atom in query.atoms:
        byte_counts = simulator.pool_worker_bytes(key_of(atom.name))
        if byte_counts is not None:
            per_worker += byte_counts[:k]
    return plan_worker_shards(per_worker, k, resolve_shard_bytes(shard_bytes))


def _lazy_shard_specs(
    query: ConjunctiveQuery, simulator: MPCSimulator, key_of: KeyOf
) -> list[tuple[str, tuple]] | None:
    """Per-atom streamed recipes, when recipes alone cover the query.

    Returns ``[(atom name, contributions), ...]`` -- empty tuples for
    atoms with no deliveries -- or None when some atom has row-path or
    eager columnar deliveries (the process-pool eval task rebuilds
    shard pools exclusively from streamed recipes, so mixed deliveries
    evaluate in the parent instead) or nothing was streamed at all.
    """
    specs: list[tuple[str, tuple]] = []
    for atom in query.atoms:
        key = key_of(atom.name)
        if simulator.has_row_deliveries(key) or simulator.has_eager_pools(
            key
        ):
            return None
        specs.append((atom.name, simulator.lazy_contributions(key)))
    if not any(contributions for _, contributions in specs):
        return None
    return specs


def _submit_eval_shards(
    query: ConjunctiveQuery,
    specs: list[tuple[str, tuple]],
    shards: list[tuple[int, int]],
    p: int,
    parallel: Any,
) -> list[Any]:
    """Publish the recipes' sources and submit one task per shard.

    May raise :class:`~repro.engine.parallel.pool.PoolBroken`; the
    callers fall back to in-process shard evaluation.
    """
    from repro.engine.parallel.pool import eval_shard_task

    task_specs = [
        (
            name,
            tuple(
                (
                    contribution.step,
                    parallel.handle_for(contribution.columns),
                    contribution.num_rows,
                    contribution.chunk_rows,
                    contribution.source_sorted,
                )
                for contribution in contributions
            ),
        )
        for name, contributions in specs
    ]
    detach = parallel.evicted_names()
    return [
        parallel.pool.submit(
            eval_shard_task, query, task_specs, lo, hi, p, detach
        )
        for lo, hi in shards
    ]


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


def _eval_shard_snapshot(
    query: ConjunctiveQuery,
    snapshots: list[tuple[str, tuple]],
    lo: int,
    hi: int,
    p: int,
):
    """Evaluate one shard from snapshotted recipes (async fallback)."""
    from repro.engine.streaming import materialize_shard

    pools = {
        name: materialize_shard(contributions, lo, hi, p)
        if contributions
        else None
        for name, contributions in snapshots
    }
    return evaluate_shard_pools(query, pools, hi - lo)


def _eval_shards_parallel(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    shards: list[tuple[int, int]],
    key_of: KeyOf,
    parallel: Any,
    profiler: RoundProfiler | None,
) -> list[tuple] | None:
    """Evaluate the shards on the process pool; None means go serial.

    Any worker-side failure (a died process, an unlinked segment)
    degrades to the in-process path, which computes the identical
    result from the simulator's own state.
    """
    specs = _lazy_shard_specs(query, simulator, key_of)
    if specs is None:
        return None
    try:
        futures = _submit_eval_shards(
            query, specs, shards, simulator.num_workers, parallel
        )
        results = parallel.pool.collect(futures)
    except Exception:
        return None
    if profiler is not None:
        round_index = simulator.round_index
        for shard_index, result in enumerate(results):
            profiler.add_shard(round_index, shard_index, result["seconds"])
            profiler.add_block(round_index, "eval", result["seconds"])
    return [(result["answers"], result["per_server"]) for result in results]


def _merged_answer_table(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    workers: Iterable[int],
    key_of: KeyOf,
    parallel: Any = None,
    profiler: RoundProfiler | None = None,
    deadline: Deadline | None = None,
    retain: SiteSink | None = None,
    site: str | None = None,
):
    """All workers' answers, one bounded worker shard at a time.

    The numpy backend's only site evaluator.  Contiguous worker ranges
    are materialised (eager pools sliced zero-copy, streamed recipes
    re-routed for the range), evaluated with the segmented join and
    freed -- peak memory is one shard's pools plus join temporaries.
    Eager deliveries under the default budget plan a single shard, so
    a monolithic execution joins the whole fleet in one pass; with a
    usable ``parallel`` context and purely streamed deliveries the
    shards evaluate on the process pool.

    With a ``retain`` sink and eager deliveries only, the shard
    results are kept as ``retain[site]`` -- each worker's table a
    zero-copy slice of its shard's -- instead of being dropped after
    the union.  Streamed deliveries record nothing: holding every
    shard's answers past its turn is the peak streaming avoids.

    Returns:
        ``(merged, per_server)`` -- the deduplicated union (sorted
        lexicographically) and the per-worker answer counts.

    Raises:
        ValueError: when ``workers`` is not the prefix ``0..k-1``
            (shards are contiguous worker ranges).
        RuntimeError: when some atom saw row-path deliveries, which no
            delivery pool holds.
        DeadlineExceeded: when ``deadline`` expires before the shards
            are dispatched or between two in-process shards.
    """
    workers = list(workers)
    k = len(workers)
    if workers != list(range(k)):
        raise ValueError(
            "numpy local evaluation shards the worker prefix 0..k-1; "
            f"got {workers}"
        )
    for atom in query.atoms:
        if simulator.has_row_deliveries(key_of(atom.name)):
            raise RuntimeError(
                f"relation {key_of(atom.name)!r} received row-path "
                "deliveries; the numpy backend evaluates delivery "
                "pools only"
            )
    shards = _plan_eval_shards(query, simulator, k, key_of)
    results = None
    if parallel is not None and parallel.usable:
        if deadline is not None:
            deadline.check("local-eval shard")
        results = _eval_shards_parallel(
            query, simulator, shards, key_of, parallel, profiler
        )
    if results is None:
        results = []
        for lo, hi in shards:
            if deadline is not None:
                deadline.check("local-eval shard")
            began = time.perf_counter()
            results.append(
                _eval_shard_local(query, simulator, lo, hi, key_of)
            )
            if profiler is not None:
                profiler.add_block(
                    simulator.round_index,
                    "eval",
                    time.perf_counter() - began,
                )
    merged = union_answer_tables(
        (answers for answers, _ in results), len(query.head)
    )
    if retain is not None and not any(
        simulator.has_lazy_deliveries(key_of(atom.name))
        for atom in query.atoms
    ):
        tables = []
        for answers, counts in results:
            ends = list(accumulate(counts))
            tables.extend(
                answers[start:end]
                for start, end in zip([0] + ends, ends)
            )
        retain[site] = SiteAnswers(tables=tables, merged=merged)
    return merged, [count for _, counts in results for count in counts]


def _measure_local(profiler: RoundProfiler | None, simulator: MPCSimulator):
    if profiler is None:
        return nullcontext()
    return profiler.measure(simulator.round_index, "local")


def collect_answers(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    workers: Iterable[int],
    backend: str,
    key_of: KeyOf = _identity_key,
    profiler: RoundProfiler | None = None,
    parallel: Any = None,
    deadline: Deadline | None = None,
    retain: SiteSink | None = None,
    site: str | None = None,
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Evaluate ``query`` at every worker and union the results.

    ``retain``, when given, receives the per-worker tables and the
    merged table under ``site`` (see :class:`SiteAnswers`) -- unless
    the deliveries were streamed, which retain nothing.

    Returns:
        ``(answers, per_server)`` -- the sorted duplicate-free union
        of all workers' answers, and the per-worker answer counts in
        iteration order.  Both are backend-independent (and
        ``parallel``-independent: a usable
        :class:`~repro.engine.parallel.engine.ParallelContext` only
        moves streamed shard evaluation onto the process pool).
    """
    with _measure_local(profiler, simulator):
        if backend == NUMPY:
            merged, per_server = _merged_answer_table(
                query,
                simulator,
                workers,
                key_of,
                parallel=parallel,
                profiler=profiler,
                deadline=deadline,
                retain=retain,
                site=site,
            )
            return tuple(map(tuple, merged.tolist())), per_server
        tables = [
            worker_answer_rows(query, simulator, worker, key_of)
            for worker in workers
        ]
        answers: set[tuple[int, ...]] = set()
        for found in tables:
            answers.update(found)
        merged = tuple(sorted(answers))
        if retain is not None:
            retain[site] = SiteAnswers(tables=tables, merged=merged)
        return merged, [len(found) for found in tables]


def materialise_view(
    name: str,
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    workers: Iterable[int],
    backend: str,
    domain_size: int,
    key_of: KeyOf = _identity_key,
    profiler: RoundProfiler | None = None,
    parallel: Any = None,
    deadline: Deadline | None = None,
    retain: SiteSink | None = None,
) -> tuple[ColumnarRelation, list[int]]:
    """Materialise an operator's output view from all workers' answers.

    The view's schema is ``query.head``; its tuples are the sorted
    duplicate-free union of the per-worker evaluations, stored
    columnar under ``backend`` so the next round can re-route the view
    by content exactly like a base relation (the tuple-based MPC
    discipline of Section 4.2.1).  ``retain`` receives the view's
    :class:`SiteAnswers` under ``name``, as in :func:`collect_answers`.

    Returns:
        ``(view, per_server_counts)``.
    """
    arity = len(query.head)
    if backend == NUMPY:
        numpy = require_numpy()
        with _measure_local(profiler, simulator):
            merged, per_server = _merged_answer_table(
                query,
                simulator,
                workers,
                key_of,
                parallel=parallel,
                profiler=profiler,
                deadline=deadline,
                retain=retain,
                site=name,
            )
        view = _view_from_table(name, merged, arity, domain_size)
        return view, per_server
    answers, per_server = collect_answers(
        query,
        simulator,
        workers,
        backend,
        key_of,
        profiler=profiler,
        retain=retain,
        site=name,
    )
    view = ColumnarRelation(
        name=name,
        arity=arity,
        columns=tuple(
            [row[position] for row in answers] for position in range(arity)
        ),
        domain_size=domain_size,
        backend=backend,
    )
    return view, per_server


def _view_from_table(
    name: str, merged: Any, arity: int, domain_size: int
) -> ColumnarRelation:
    """An answer table as a columnar relation (numpy backend)."""
    numpy = require_numpy()
    return ColumnarRelation(
        name=name,
        arity=arity,
        columns=tuple(
            numpy.ascontiguousarray(merged[:, position])
            for position in range(arity)
        ),
        domain_size=domain_size,
        backend=NUMPY,
    )


class PendingView:
    """A view materialisation in flight on the process pool.

    Created by :func:`materialise_view_async`; the caller keeps
    routing the next round while the shard futures evaluate, then
    calls :meth:`result` when -- and only when -- a data dependency
    needs the view.  The evaluation inputs were snapshotted at submit
    time (immutable streamed recipes), so resolving after further
    rounds ran cannot change the answer, including the in-process
    fallback taken when the pool breaks mid-flight: it re-evaluates
    the same snapshot shard by shard.
    """

    def __init__(
        self,
        name: str,
        query: ConjunctiveQuery,
        shards: list[tuple[int, int]],
        futures: list[Any],
        snapshots: list[tuple[str, tuple]],
        pool: Any,
        num_workers: int,
        domain_size: int,
        round_index: int,
        profiler: RoundProfiler | None,
    ) -> None:
        self.name = name
        self.query = query
        self.shards = shards
        self.futures = futures
        self.snapshots = snapshots
        self.pool = pool
        self.num_workers = num_workers
        self.domain_size = domain_size
        self.round_index = round_index
        self.profiler = profiler
        self._submitted = time.perf_counter()

    def result(self) -> tuple[ColumnarRelation, list[int]]:
        """Block on the shards and merge; identical to the sync path."""
        waited = time.perf_counter()
        profiler = self.profiler
        try:
            collected = self.pool.collect(self.futures)
            results = [
                (result["answers"], result["per_server"])
                for result in collected
            ]
            if profiler is not None:
                for shard_index, result in enumerate(collected):
                    profiler.add_shard(
                        self.round_index, shard_index, result["seconds"]
                    )
                    profiler.add_block(
                        self.round_index, "eval", result["seconds"]
                    )
        except Exception:
            # A died worker or an evicted segment: recompute the
            # identical result from the snapshot, in-process.
            results = [
                _eval_shard_snapshot(
                    self.query, self.snapshots, lo, hi, self.num_workers
                )
                for lo, hi in self.shards
            ]
        if profiler is not None:
            profiler.add_overlap(
                self.round_index, waited - self._submitted
            )
        arity = len(self.query.head)
        merged = union_answer_tables(
            (answers for answers, _ in results), arity
        )
        per_server = [count for _, counts in results for count in counts]
        view = _view_from_table(self.name, merged, arity, self.domain_size)
        if profiler is not None:
            profiler.add(
                self.round_index, "local", time.perf_counter() - waited
            )
        return view, per_server


def materialise_view_async(
    name: str,
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    workers: Iterable[int],
    backend: str,
    domain_size: int,
    key_of: KeyOf = _identity_key,
    parallel: Any = None,
    profiler: RoundProfiler | None = None,
    shard_bytes: int | None = None,
) -> PendingView | None:
    """Submit a view's shard evaluation to the process pool, or None.

    The streamed-overlap entry point: when the view's deliveries are
    purely streamed recipes and a usable parallel context is at hand,
    the shard-eval tasks are dispatched immediately and a
    :class:`PendingView` handle is returned -- its :meth:`result
    <PendingView.result>` yields exactly what :func:`materialise_view`
    returns.  None means overlap is not possible here (pure backend,
    no pool, non-prefix workers, eager or row-path deliveries mixed
    in, or nothing delivered at all); the caller materialises
    synchronously, which is always correct.
    """
    if backend != NUMPY or parallel is None or not parallel.usable:
        return None
    workers = list(workers)
    k = len(workers)
    if k == 0 or workers != list(range(k)):
        return None
    specs = _lazy_shard_specs(query, simulator, key_of)
    if specs is None:
        return None
    shards = _plan_eval_shards(query, simulator, k, key_of, shard_bytes)
    from repro.engine.parallel.pool import PoolBroken

    try:
        futures = _submit_eval_shards(
            query, specs, shards, simulator.num_workers, parallel
        )
    except PoolBroken:
        return None
    return PendingView(
        name=name,
        query=query,
        shards=shards,
        futures=futures,
        snapshots=specs,
        pool=parallel.pool,
        num_workers=simulator.num_workers,
        domain_size=domain_size,
        round_index=simulator.round_index,
        profiler=profiler,
    )


def fragment_tuple_count(
    simulator: MPCSimulator, worker: int, relation: str, backend: str
) -> int:
    """Tuples of ``relation`` held by ``worker`` (backend-aware)."""
    if backend == NUMPY:
        counts = simulator.pool_worker_counts(relation)
        if counts is not None:
            return int(counts[worker])
        return sum(
            len(batch[0]) if batch else 0
            for batch in simulator.worker_column_batches(worker, relation)
        )
    return len(simulator.worker_rows(worker, relation))
