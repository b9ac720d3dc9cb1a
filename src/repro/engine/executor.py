"""The round engine: execute routing steps -- and whole plans.

This is the single route/ship loop every algorithm in the repository
compiles to.  A :class:`RoundEngine` wraps one :class:`MPCSimulator`
and a resolved compute backend; :meth:`RoundEngine.run_round` opens a
round, executes each :class:`~repro.engine.steps.RoutingStep` against
its source relation, and closes the round (which delivers messages and
enforces the capacity bound).

Under the ``pure`` backend each step is routed row by row through
:meth:`RoutingStep.destinations` and shipped with per-(receiver,
relation) batching -- the reference the tests compare against.  Under
``numpy`` every step is one loop over ``[start, end)`` row ranges of
its source (:mod:`repro.engine.streaming` holds the primitive,
:func:`~repro.engine.streaming.route_range`), with

* two **consumers**: *ship whole* -- the ranges' routing decisions are
  joined (:func:`_reassemble`) and staged with one
  :meth:`MPCSimulator.send_columns` call, which bins them by receiver
  at round close -- or, when ``chunk_rows`` is set and the step is
  shardable, *count* -- each range is bincounted block by block and
  the delivery staged as a re-routable recipe
  (:meth:`MPCSimulator.stage_lazy_columns`);
* two **executors**: *inline*, when the range list is the single range
  ``[0, n)``, or the *process pool* of a
  :class:`~repro.engine.parallel.engine.ParallelContext`, one
  contiguous shard per worker.  Non-shardable steps, small or empty
  sources, a closed context and a pool that died mid-round are all the
  same case: one range, inline.

A tuple's destinations depend on the tuple alone and a round charges
each server only for what it receives, so every range list produces
the same multiset of (row, destination) pairs: answers, per-round
received bits/tuples and capacity failures are bit-identical across
backends, block sizes and worker counts by construction.

:func:`execute_plan` is the plan-level entry point: it takes an
immutable :class:`~repro.engine.plan.Plan` (the output of an
algorithm's compiler) plus a database, builds the simulator from the
plan's signature, runs every round (binding heavy hitters and
materialising views where the plan says so) and finalizes the answer.

Vectorized sends carry the step's
:attr:`~repro.engine.steps.RoutingStep.preserves_source_order` promise
so the simulator's delivery pools can mark worker fragments as
pre-sorted -- the precondition of the local join's sort-free path.
An optional :class:`~repro.engine.profile.RoundProfiler` splits each
round's wall-clock into route/ship/deliver phases.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.backend import NUMPY, require_numpy, resolve_backend
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.engine.deadline import Deadline
from repro.engine.faults import (
    block_delay_seconds,
    inject_round_delay,
    round_delay_seconds,
)
from repro.engine.plan import (
    CollectAnswers,
    FinalizeView,
    Plan,
    key_map_of,
)
from repro.engine.profile import RoundProfiler
from repro.engine.steps import HeavyGridRoute, RoutingStep
from repro.engine.streaming import (
    LazyContribution,
    count_shard,
    resolve_chunk_rows,
    route_shard,
)
from repro.mpc.message import input_server
from repro.mpc.model import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.mpc.stats import RoundStats, SimulationReport

if TYPE_CHECKING:
    from repro.engine.local import SiteAnswers


@dataclass(frozen=True)
class RoutedStep:
    """One numpy step's routing decision: the route -> ship hand-off.

    ``columns``/``destinations``/``row_indices`` are one
    :meth:`RoutingStep.route_columns` triple over the whole source.
    """

    columns: tuple
    destinations: Any
    row_indices: Any = None


def _reassemble(
    numpy: Any,
    source: ColumnarRelation,
    bounds: list[tuple[int, int]],
    results: list[dict],
) -> RoutedStep:
    """Join per-range routing decisions into the whole-source triple.

    ``results`` holds one :func:`~repro.engine.streaming.route_shard`
    dict per range of ``bounds``.  Range row indices are local to the
    range's *kept* rows, so each range's index array is offset by the
    cumulative kept-row count before it; a range returning
    ``columns=None`` kept every row, letting the join substitute the
    source's own zero-copy slice.  A single range covering the source
    passes through untouched (nothing is concatenated or copied).

    For :class:`~repro.engine.steps.HashRoute` the joined arrays are
    element-identical to routing the source whole; for
    :class:`~repro.engine.steps.Broadcast` the layout is range-major
    rather than worker-major, but the delivery pool's stable grouping
    by receiver restores the exact per-worker row order, so delivered
    pools -- and therefore answers, loads and capacity behaviour --
    are bit-identical for every range list.
    """
    if len(results) == 1:
        (only,) = results
        return RoutedStep(
            columns=source.columns
            if only["columns"] is None
            else only["columns"],
            destinations=only["destinations"],
            row_indices=only["row_indices"],
        )
    destinations = numpy.concatenate(
        [result["destinations"] for result in results]
    )
    if any(result["columns"] is not None for result in results):
        pieces = [
            result["columns"]
            if result["columns"] is not None
            else tuple(column[start:end] for column in source.columns)
            for (start, end), result in zip(bounds, results)
        ]
        columns = tuple(
            numpy.concatenate([piece[i] for piece in pieces])
            for i in range(len(source.columns))
        )
    else:
        columns = source.columns

    if all(result["row_indices"] is None for result in results):
        row_indices = None
    else:
        offset = 0
        indexed = []
        for result in results:
            indices = result["row_indices"]
            if indices is None:
                indices = numpy.arange(result["kept"], dtype=numpy.int64)
            indexed.append(indices + offset)
            offset += result["kept"]
        row_indices = numpy.concatenate(indexed)
    return RoutedStep(
        columns=columns,
        destinations=destinations,
        row_indices=row_indices,
    )


class RoundEngine:
    """Executes routing-step rounds on one simulator.

    Args:
        simulator: the MPC network to route over.
        backend: ``"pure"``, ``"numpy"`` or ``"auto"``; defaults to
            the simulator config's backend.
        profiler: optional phase-timing collector; when given, every
            round records route/ship/deliver seconds against its round
            index.
        chunk_rows: streaming block size (numpy backend only; ignored
            under ``pure``).  When set, shardable steps are *counted*
            in ``chunk_rows``-row blocks -- zero-copy column views --
            and ship as lazy deliveries
            (:meth:`MPCSimulator.stage_lazy_columns`): rows are
            materialised at local-evaluation time one worker shard at
            a time, so the engine's peak memory per step is
            ``O(chunk_rows x replication)`` instead of
            ``O(n x replication)``.  Answers, per-server loads and
            capacity behaviour are bit-identical for every block size;
            None (the default) ships each step whole.
        deadline: optional per-request latency budget, checked
            cooperatively between streamed blocks (never
            mid-primitive).  Capacity precedence is preserved: the
            deadline is never consulted at round close, so a round
            that both overflows and overruns raises
            ``CapacityExceeded``.
        parallel: optional
            :class:`~repro.engine.parallel.engine.ParallelContext`.
            Shardable steps over sources of at least its ``min_rows``
            rows split into one row range per pool worker; everything
            else -- and everything after the pool breaks -- is the
            single range ``[0, n)``, run inline.  A round counts into
            the context's ``parallel_rounds`` when at least one step
            ran on the pool, ``fallback_rounds`` otherwise.
    """

    def __init__(
        self,
        simulator: MPCSimulator,
        backend: str | None = None,
        profiler: RoundProfiler | None = None,
        chunk_rows: int | None = None,
        deadline: Deadline | None = None,
        parallel: Any = None,
    ) -> None:
        self.simulator = simulator
        self.backend = (
            simulator.config.backend
            if backend is None
            else resolve_backend(backend)
        )
        self.profiler = profiler
        self.chunk_rows = chunk_rows if self.backend == NUMPY else None
        self.deadline = deadline
        self.parallel = parallel
        self._round_parallel = False

    def _measure(self, phase: str):
        if self.profiler is None:
            return nullcontext()
        return self.profiler.measure(self.simulator.round_index, phase)

    def run_round(
        self,
        steps: Sequence[RoutingStep],
        sources: Mapping[str, ColumnarRelation],
    ) -> RoundStats:
        """Execute one communication round: route, ship, deliver.

        Args:
            steps: the routing steps of the round.
            sources: source relation/view per step ``relation`` name;
                column storage must match the engine's backend.

        Returns:
            The closed round's statistics.

        Raises:
            CapacityExceeded: via :meth:`MPCSimulator.end_round` when
                enforcement is on and a worker's budget is blown.
        """
        self._round_parallel = False
        try:
            self.simulator.begin_round()
            for step in steps:
                source = sources[step.relation]
                if self.backend != NUMPY:
                    self._send_rows(step, source)
                elif self.chunk_rows is not None and step.shardable:
                    self._stage_counts(step, source)
                else:
                    self._send_columns(step, source)
            with self._measure("deliver"):
                return self.simulator.end_round()
        finally:
            if self.parallel is not None and steps:
                if self._round_parallel:
                    self.parallel.parallel_rounds += 1
                else:
                    self.parallel.fallback_rounds += 1

    # -- row ranges: where they run -------------------------------------------

    def _row_ranges(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> list[tuple[int, int]]:
        """The ``[start, end)`` ranges one numpy step is routed in.

        One contiguous shard per pool worker when the context is
        usable, the step's routing depends on row content alone
        (:attr:`RoutingStep.shardable`) and the source is non-empty
        and at least ``min_rows`` long; the single range ``[0, n)``
        otherwise.
        """
        num_rows = len(source) if source.columns else 0
        context = self.parallel
        if (
            context is None
            or not context.usable
            or not step.shardable
            or num_rows == 0
            or num_rows < context.min_rows
        ):
            return [(0, num_rows)]
        chunk = -(-num_rows // context.workers)  # ceil division
        return [
            (start, min(start + chunk, num_rows))
            for start in range(0, num_rows, chunk)
        ]

    def _over_ranges(
        self,
        consumer: Any,
        step: RoutingStep,
        source: ColumnarRelation,
        bounds: list[tuple[int, int]],
        *args: Any,
        **inline_only: Any,
    ) -> tuple[list[tuple[int, int]], list[Any], list[float]]:
        """Apply ``consumer`` to each row range of one step's source.

        Several ranges run as :func:`~repro.engine.parallel.pool.range_task`
        on the context's pool against the source's shared-memory
        segment; one range -- and every step once the pool has died --
        runs inline on the source's own columns (``inline_only``
        carries what cannot cross a process boundary).

        Returns the ranges actually run, the consumer's result per
        range, and the pool workers' seconds per range (empty when
        the ranges ran inline).
        """
        if len(bounds) > 1:
            from repro.engine.parallel.pool import PoolBroken, range_task

            context = self.parallel
            handle = context.handle_for(source.columns)
            detach = context.evicted_names()
            try:
                answers = context.pool.collect(
                    [
                        context.pool.submit(
                            range_task,
                            consumer, step, handle, start, end, args, detach,
                        )
                        for start, end in bounds
                    ]
                )
            except PoolBroken:
                bounds = [(0, bounds[-1][1])]
            else:
                self._round_parallel = True
                results, seconds = zip(*answers)
                if self.profiler is not None:
                    for shard_index, elapsed in enumerate(seconds):
                        self.profiler.add_shard(
                            self.simulator.round_index, shard_index, elapsed
                        )
                return bounds, list(results), list(seconds)
        results = [
            consumer(step, source.columns, start, end, *args, **inline_only)
            for start, end in bounds
        ]
        return bounds, results, []

    # -- the two consumers: count (streamed) and ship whole -------------------

    @contextmanager
    def _block_checkpoint(self, block_delay: float):
        """Around one inline streamed block: deadline, fault, timing."""
        if self.deadline is not None:
            self.deadline.check("streamed block")
        if block_delay > 0:
            time.sleep(block_delay)
        began = time.perf_counter()
        yield
        if self.profiler is not None:
            self.profiler.add_block(
                self.simulator.round_index,
                "route",
                time.perf_counter() - began,
            )

    def _stage_counts(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> None:
        """Count one step block-by-block and ship it lazily.

        The route phase is a counting pass (per-block destinations ->
        bincount, arrays freed immediately); the ship phase stages the
        delivery *recipe* plus counts on the simulator.  Bincount is
        additive over any row partition, so the summed counts equal
        ``send_columns``' own accounting bit-for-bit and capacity
        behaviour -- including which worker raises at ``end_round``
        -- is that of shipping the step whole.
        """
        simulator = self.simulator
        p = simulator.num_workers
        with self._measure("route"):
            bounds = self._row_ranges(step, source)
            if len(bounds) > 1 and self.deadline is not None:
                # Pool shards have no per-block checkpoint in the
                # parent; check once before dispatching them.
                self.deadline.check("streamed step dispatch")
            _, shard_counts, shard_seconds = self._over_ranges(
                count_shard, step, source, bounds, p, self.chunk_rows,
                block_hook=partial(
                    self._block_checkpoint, block_delay_seconds()
                ),
            )
            counts = sum(shard_counts)
            if self.profiler is not None:
                for seconds in shard_seconds:  # a pool shard = one block
                    self.profiler.add_block(
                        simulator.round_index, "route", seconds
                    )
        with self._measure("ship"):
            simulator.stage_lazy_columns(
                _sender_of(step),
                step.mailbox_key,
                LazyContribution(
                    step=step,
                    columns=source.columns,
                    num_rows=len(source),
                    chunk_rows=self.chunk_rows,
                    source_sorted=step.preserves_source_order,
                ),
                counts,
                bits_per_tuple=source.tuple_bits,
            )

    def _send_columns(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> None:
        """Route one numpy step whole and stage it on the simulator."""
        with self._measure("route"):
            bounds, results, _ = self._over_ranges(
                route_shard,
                step,
                source,
                self._row_ranges(step, source),
                self.simulator.num_workers,
            )
            routed = _reassemble(require_numpy(), source, bounds, results)
        with self._measure("ship"):
            self.simulator.send_columns(
                _sender_of(step),
                routed.destinations,
                step.mailbox_key,
                routed.columns,
                bits_per_tuple=source.tuple_bits,
                row_indices=routed.row_indices,
                source_sorted=step.preserves_source_order,
            )

    def _send_rows(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> None:
        """The ``pure`` path: route row by row, ship per-receiver batches."""
        p = self.simulator.num_workers
        with self._measure("route"):
            batches: dict[int, list[tuple[int, ...]]] = {}
            for index, row in enumerate(source.rows()):
                for destination in step.destinations(row, index, p):
                    batches.setdefault(destination, []).append(row)
        sender = _sender_of(step)
        with self._measure("ship"):
            for destination, rows in batches.items():
                self.simulator.send(
                    sender,
                    destination,
                    step.mailbox_key,
                    rows,
                    source.tuple_bits,
                )


def _sender_of(step: RoutingStep):
    """The endpoint a step's rows are sent from."""
    return (
        step.sender if step.sender is not None else input_server(step.relation)
    )


@dataclass
class PlanExecution:
    """Everything one plan execution produced.

    Attributes:
        plan: the executed plan.
        simulator: the simulator after the run (callers post-process
            fragment counts, reports, mailboxes from here).
        answers: the finalized answer tuples, sorted, in the plan
            query's head order (empty when ``plan.finalize`` is None).
        per_server: per-worker answer counts, zero-padded to ``p``.
        view_sizes: materialised size of every intermediate view.
        per_server_views: per view, each worker's answer contribution.
        heavy_hitters: the heavy values bound during execution, when
            the plan asked for heavy binding.
        site_answers: per evaluation site (view name; None for the
            ``CollectAnswers`` site), the per-worker answer tables and
            merged table local evaluation computed
            (:class:`~repro.engine.local.SiteAnswers`) -- what
            incremental maintenance retains, by reference.  Sites
            evaluated from streamed deliveries are absent.
    """

    plan: Plan
    simulator: MPCSimulator
    answers: tuple[tuple[int, ...], ...] = ()
    per_server: tuple[int, ...] = ()
    view_sizes: dict[str, int] | None = None
    per_server_views: dict[str, tuple[int, ...]] | None = None
    heavy_hitters: dict[str, frozenset[int]] | None = None
    site_answers: dict[str | None, SiteAnswers] | None = None

    @property
    def report(self) -> SimulationReport:
        """The run's communication statistics."""
        return self.simulator.report


def plan_config(plan: Plan) -> MPCConfig:
    """The :class:`MPCConfig` a plan's signature describes."""
    signature = plan.signature
    return MPCConfig(
        p=signature.p,
        eps=signature.eps,
        c=signature.capacity_c,
        backend=signature.backend,
    )


def plan_simulator(
    plan: Plan,
    input_bits: int,
    simulator: MPCSimulator | None = None,
) -> MPCSimulator:
    """A simulator for one execution of ``plan``.

    Passing an existing ``simulator`` (the serving layer's reuse path)
    resets it in place instead of allocating ``p`` fresh mailboxes;
    its configuration must match the plan's.
    """
    config = plan_config(plan)
    if simulator is None:
        return MPCSimulator(
            config,
            input_bits=input_bits,
            enforce_capacity=plan.signature.enforce_capacity,
        )
    if simulator.config != config:
        raise ValueError(
            f"simulator config {simulator.config} does not match plan "
            f"config {config}"
        )
    simulator.reset(
        input_bits=input_bits,
        enforce_capacity=plan.signature.enforce_capacity,
    )
    return simulator


def _plan_sources(
    database: Any, backend: str
) -> dict[str, ColumnarRelation]:
    """Columnarise any accepted database shape under ``backend``."""
    from repro.data.columnar import columnar_database

    if isinstance(database, Mapping):
        return {
            name: relation.with_backend(backend)
            if isinstance(relation, ColumnarRelation)
            else ColumnarRelation.from_relation(relation, backend)
            for name, relation in database.items()
        }
    return columnar_database(database, backend)


def _database_bits(database: Any, sources: Mapping[str, ColumnarRelation]) -> int:
    """Input size ``N`` in bits for the capacity bound."""
    total = getattr(database, "total_bits", None)
    if total is not None:
        return total
    return sum(relation.size_bits for relation in sources.values())


class _ResolvingEnvironment(dict):
    """An execution environment that resolves pending views on access.

    Streamed executions materialise a round's views *asynchronously*
    (shard-eval tasks on the process pool) while the next round's
    routing proceeds; a step whose source view is still pending blocks
    here, exactly when the data dependency bites and not a moment
    earlier.
    """

    resolver: Any = None

    def __missing__(self, key: str) -> ColumnarRelation:
        if self.resolver is not None:
            self.resolver(key)
            if key in self:
                return dict.__getitem__(self, key)
        raise KeyError(key)


def execute_plan(
    plan: Plan,
    database: Any,
    *,
    profiler: RoundProfiler | None = None,
    simulator: MPCSimulator | None = None,
    relation_map: Mapping[str, str] | None = None,
    input_bits: int | None = None,
    parallel: Any = None,
    chunk_rows: int | None = None,
    deadline: Deadline | None = None,
) -> PlanExecution:
    """Execute a compiled plan against a database.

    Args:
        plan: the immutable physical plan (an algorithm compiler's
            output).
        database: a row :class:`~repro.data.database.Database`, a
            :class:`~repro.data.columnar.ColumnarDatabase`, or a plain
            mapping of relation name to
            :class:`~repro.data.columnar.ColumnarRelation`.
        profiler: optional per-round route/ship/deliver/local timing
            collector.
        simulator: optional simulator to reuse (reset in place); must
            match the plan's configuration.
        relation_map: plan relation name -> database relation name,
            for executing a cached plan against an isomorphic query's
            relations (the plan-cache rebind).
        input_bits: override for the capacity bound's ``N`` (callers
            with bespoke input accounting, e.g. the cartesian-grid
            baseline).
        parallel: optional
            :class:`~repro.engine.parallel.engine.ParallelContext`;
            when given (and usable) shardable steps route as one row
            range per pool worker (see :class:`RoundEngine`) -- and,
            combined with ``chunk_rows``, shard-wise local evaluation
            fans out too, overlapping a round's view materialisation
            with the next round's routing where data dependencies
            allow.  Answers, loads and capacity behaviour are
            bit-identical to in-process execution; non-shardable steps
            and small sources run as one inline range.
        chunk_rows: streaming block size (see :class:`RoundEngine`);
            None or non-positive ships every step whole.  Answers,
            loads and capacity failures stay bit-identical for every
            chunk size.
        deadline: optional per-request latency budget.  Checked
            cooperatively -- before each round, between streamed
            blocks, before and between local-evaluation shards
            (monolithic executions evaluate one shard, so every view
            and the final collect check once; a process-pool fan-out
            checks once before submitting), and before the
            finalize -- never mid-primitive, so an abandoned execution
            leaves a pooled simulator reusable after ``reset()``
            exactly like a capacity failure does.

    Returns:
        A :class:`PlanExecution` with answers, loads and views.

    Raises:
        CapacityExceeded: when the plan enforces capacity and a worker
            overflows.  Takes precedence over the deadline when a
            round both overflows and overruns (the round-close check
            fires first).
        DeadlineExceeded: when ``deadline`` expires at a cooperative
            checkpoint.
    """
    backend = plan.signature.backend
    sources = _plan_sources(database, backend)
    if relation_map:
        sources = {
            plan_name: sources[database_name]
            for plan_name, database_name in relation_map.items()
        }
    if input_bits is None:
        input_bits = _database_bits(database, sources)
    simulator = plan_simulator(plan, input_bits, simulator)
    parallel_ctx = (
        parallel if parallel is not None and parallel.usable else None
    )
    engine = RoundEngine(
        simulator,
        profiler=profiler,
        chunk_rows=resolve_chunk_rows(chunk_rows),
        deadline=deadline,
        parallel=parallel_ctx,
    )

    domain_size = getattr(database, "domain_size", None)
    if domain_size is None:
        domain_size = max(
            (relation.domain_size for relation in sources.values()),
            default=1,
        )
    environment: _ResolvingEnvironment = _ResolvingEnvironment(sources)
    if plan.uniform_domain_bits:
        for name, relation in list(environment.items()):
            environment[name] = replace(relation, domain_size=domain_size)

    view_sizes: dict[str, int] = {}
    per_server_views: dict[str, tuple[int, ...]] = {}
    heavy_hitters: dict[str, frozenset[int]] | None = None
    from repro.engine.local import (
        collect_answers,
        materialise_view,
        materialise_view_async,
    )

    #: Left on the execution for IVM capture.
    site_answers: dict[str | None, SiteAnswers] = {}

    #: view name -> async materialisation handle (streamed overlap).
    pending: dict[str, Any] = {}

    def resolve_view(name: str) -> None:
        handle = pending.pop(name, None)
        if handle is None:
            return
        materialised, counts = handle.result()
        environment[name] = materialised
        view_sizes[name] = len(materialised)
        per_server_views[name] = tuple(counts)

    environment.resolver = resolve_view

    fault_round_delay = round_delay_seconds()
    for plan_round in plan.rounds:
        inject_round_delay(fault_round_delay)
        if deadline is not None:
            deadline.check("between rounds")
        steps = plan_round.steps
        if pending and plan_round.bind_heavy is not None:
            # Heavy detection scans the environment directly; settle
            # every outstanding view before statistics are taken.
            for name in list(pending):
                resolve_view(name)
        if pending:
            # Streamed rounds route steps whose sources are already
            # settled first, so pending views keep evaluating on the
            # pool while base relations stream -- the round r local /
            # round r+1 route overlap.  Step order within a round
            # never affects answers, loads or capacity (staging is
            # additive per relation).
            steps = tuple(
                sorted(steps, key=lambda step: step.relation in pending)
            )
        if plan_round.bind_heavy is not None:
            from repro.algorithms.skewaware import detect_heavy_hitters

            bind = plan_round.bind_heavy
            heavy_hitters = detect_heavy_hitters(
                bind.query,
                environment,
                dict(bind.shares),
                backend=backend,
                columnar=environment,
            )
            steps = tuple(
                replace(step, heavy=heavy_hitters)
                if isinstance(step, HeavyGridRoute)
                else step
                for step in steps
            )
        engine.run_round(steps, environment)

        for view in plan_round.views:
            key_of = key_map_of(view.key_map)
            if engine.chunk_rows is not None:
                handle = materialise_view_async(
                    view.name,
                    view.query,
                    simulator,
                    range(plan.signature.p),
                    backend,
                    domain_size=domain_size,
                    key_of=key_of,
                    parallel=parallel_ctx,
                    profiler=profiler,
                )
                if handle is not None:
                    pending[view.name] = handle
                    continue
            materialised, counts = materialise_view(
                view.name,
                view.query,
                simulator,
                range(plan.signature.p),
                backend,
                domain_size=domain_size,
                key_of=key_of,
                profiler=profiler,
                parallel=parallel_ctx,
                deadline=deadline,
                retain=site_answers,
            )
            environment[view.name] = materialised
            view_sizes[view.name] = len(materialised)
            per_server_views[view.name] = tuple(counts)

    for name in list(pending):
        resolve_view(name)
    if deadline is not None:
        deadline.check("before finalize")
    answers: tuple[tuple[int, ...], ...] = ()
    per_server: tuple[int, ...] = ()
    finalize = plan.finalize
    if isinstance(finalize, CollectAnswers):
        answers, counts = collect_answers(
            finalize.query,
            simulator,
            range(finalize.workers),
            backend,
            key_of=key_map_of(finalize.key_map),
            profiler=profiler,
            parallel=parallel_ctx,
            deadline=deadline,
            retain=site_answers,
        )
        per_server = tuple(
            list(counts) + [0] * (plan.signature.p - finalize.workers)
        )
    elif isinstance(finalize, FinalizeView):
        view = environment[finalize.view]
        schema = next(
            spec.query.head
            for plan_round in plan.rounds
            for spec in plan_round.views
            if spec.name == finalize.view
        )
        positions = [schema.index(variable) for variable in finalize.head]
        answers = tuple(
            sorted(
                tuple(row[i] for i in positions) for row in view.rows()
            )
        )
    return PlanExecution(
        plan=plan,
        simulator=simulator,
        answers=answers,
        per_server=per_server,
        view_sizes=view_sizes,
        per_server_views=per_server_views,
        heavy_hitters=heavy_hitters,
        site_answers=site_answers,
    )
