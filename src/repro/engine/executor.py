"""The round engine: execute routing steps -- and whole plans.

This is the single route/ship loop every algorithm in the repository
compiles to.  A :class:`RoundEngine` wraps one :class:`MPCSimulator`
and a resolved compute backend; :meth:`RoundEngine.run_round` opens a
round, executes each :class:`~repro.engine.steps.RoutingStep` against
its source relation, and closes the round (which delivers messages and
enforces the capacity bound).

Under the ``pure`` backend each step is routed row by row through
:meth:`RoutingStep.destinations` and shipped with per-(receiver,
relation) batching; under ``numpy`` the step's whole routing decision
is computed in one :meth:`RoutingStep.route_columns` pass and shipped
with a single :meth:`MPCSimulator.send_columns` call.  Both paths
produce the same multiset of (row, destination) pairs, so answers,
per-round received bits/tuples and capacity failures are bit-identical
across backends by construction.

Routing and shipping are separate verbs
(:meth:`RoundEngine.route_step` / :meth:`RoundEngine.ship_step`) with
a :class:`RoutedStep` handed between them, so a subclass can compute
the routing decision elsewhere (the process-parallel engine routes row
shards on a pool) and ship it through the same code.

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

from dataclasses import dataclass, replace
from contextlib import nullcontext
from typing import Any, Mapping, Sequence

from repro.backend import NUMPY, resolve_backend
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
from repro.mpc.message import input_server
from repro.mpc.model import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.mpc.stats import RoundStats, SimulationReport


@dataclass(frozen=True)
class RoutedStep:
    """One step's routing decision: the route -> ship hand-off.

    Exactly one representation is populated, matching the backend that
    produced it: ``batches`` maps destination worker to its row list
    (``pure``); ``columns``/``destinations``/``row_indices`` are the
    :meth:`RoutingStep.route_columns` triple (``numpy``).
    """

    batches: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] | None = None
    columns: tuple | None = None
    destinations: Any = None
    row_indices: Any = None


class RoundEngine:
    """Executes routing-step rounds on one simulator.

    Args:
        simulator: the MPC network to route over.
        backend: ``"pure"``, ``"numpy"`` or ``"auto"``; defaults to
            the simulator config's backend.
        profiler: optional phase-timing collector; when given, every
            round records route/ship/deliver seconds against its round
            index.
        chunk_rows: streaming block size.  When set (numpy backend
            only), shardable steps route in ``chunk_rows``-row blocks
            -- zero-copy column views -- and ship as *lazy* deliveries
            (:meth:`MPCSimulator.stage_lazy_columns`): loads are
            accounted from a per-block counting pass and rows are
            materialised at local-evaluation time one worker shard at
            a time, so the engine's peak memory per step is
            ``O(chunk_rows x replication)`` instead of
            ``O(n x replication)``.  Answers, per-server loads and
            capacity behaviour are bit-identical to the monolithic
            path; None (the default) is exactly today's code.
        deadline: optional per-request latency budget, checked
            cooperatively between streamed blocks (never
            mid-primitive).  Capacity precedence is preserved: the
            deadline is never consulted at round close, so a round
            that both overflows and overruns raises
            ``CapacityExceeded``.
    """

    def __init__(
        self,
        simulator: MPCSimulator,
        backend: str | None = None,
        profiler: RoundProfiler | None = None,
        chunk_rows: int | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        self.simulator = simulator
        self.backend = (
            simulator.config.backend
            if backend is None
            else resolve_backend(backend)
        )
        self.profiler = profiler
        self.chunk_rows = chunk_rows
        self.deadline = deadline

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
        self.simulator.begin_round()
        for step in steps:
            source = sources[step.relation]
            if self._stream_eligible(step, source):
                self.stream_step(step, source)
            else:
                self.ship_step(step, source, self.route_step(step, source))
        with self._measure("deliver"):
            return self.simulator.end_round()

    # -- streaming ----------------------------------------------------------

    def _stream_eligible(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> bool:
        """Whether a step streams in blocks instead of routing whole.

        Block-streaming reuses the shardability contract: routing must
        depend on row content alone so ``route_columns`` over a block
        equals the monolithic decision restricted to those rows.
        Non-shardable steps (global row indices, global signature
        grouping) and the ``pure`` backend route monolithically inside
        an otherwise-streamed round -- always correct, since eager and
        lazy deliveries coexist per relation.
        """
        return (
            self.chunk_rows is not None
            and self.backend == NUMPY
            and step.shardable
            and bool(source.columns)
        )

    def stream_step(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> None:
        """Route one step block-by-block and ship it lazily.

        The route phase is a counting pass (per-block destinations ->
        bincount, arrays freed immediately); the ship phase stages the
        delivery *recipe* plus counts on the simulator.  Load totals
        equal the monolithic ``send_columns`` accounting bit-for-bit,
        so capacity behaviour -- including which worker raises at
        ``end_round`` -- is unchanged.
        """
        from repro.engine.streaming import LazyContribution

        simulator = self.simulator
        with self._measure("route"):
            counts = self._stream_counts(step, source)
        sender = (
            step.sender
            if step.sender is not None
            else input_server(step.relation)
        )
        with self._measure("ship"):
            simulator.stage_lazy_columns(
                sender,
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

    def _stream_counts(self, step: RoutingStep, source: ColumnarRelation):
        """Per-worker delivered counts of one streamed step."""
        import time as _time

        from repro.backend import require_numpy
        from repro.engine.streaming import iter_blocks

        numpy = require_numpy()
        simulator = self.simulator
        p = simulator.num_workers
        counts = numpy.zeros(p, dtype=numpy.int64)
        profiler = self.profiler
        deadline = self.deadline
        block_delay = block_delay_seconds()
        round_index = simulator.round_index
        for start, end in iter_blocks(len(source), self.chunk_rows):
            if deadline is not None:
                deadline.check("streamed block")
            if block_delay > 0:
                _time.sleep(block_delay)
            began = _time.perf_counter()
            block = tuple(column[start:end] for column in source.columns)
            _, destinations, _ = step.route_columns(block, p)
            if len(destinations):
                low = int(destinations.min())
                high = int(destinations.max())
                if low < 0 or high >= p:
                    from repro.mpc.simulator import ProtocolError

                    offender = low if low < 0 else high
                    raise ProtocolError(
                        f"receiver {offender} outside [0, {p})"
                    )
                counts += numpy.bincount(destinations, minlength=p)
            if profiler is not None:
                profiler.add_block(
                    round_index, "route", _time.perf_counter() - began
                )
        return counts

    def route_step(
        self, step: RoutingStep, source: ColumnarRelation
    ) -> RoutedStep:
        """Compute one step's routing decision (no simulator effects)."""
        p = self.simulator.num_workers
        if self.backend == NUMPY:
            with self._measure("route"):
                columns, destinations, row_indices = step.route_columns(
                    source.columns, p
                )
            return RoutedStep(
                columns=columns,
                destinations=destinations,
                row_indices=row_indices,
            )
        with self._measure("route"):
            batches: dict[int, list[tuple[int, ...]]] = {}
            for index, row in enumerate(source.rows()):
                for destination in step.destinations(row, index, p):
                    batches.setdefault(destination, []).append(row)
        return RoutedStep(
            batches=tuple(
                (destination, tuple(rows))
                for destination, rows in batches.items()
            )
        )

    def ship_step(
        self,
        step: RoutingStep,
        source: ColumnarRelation,
        routed: RoutedStep,
    ) -> None:
        """Stage one routed step on the simulator (inside a round)."""
        simulator = self.simulator
        sender = (
            step.sender
            if step.sender is not None
            else input_server(step.relation)
        )
        key = step.mailbox_key
        if routed.batches is None:
            with self._measure("ship"):
                simulator.send_columns(
                    sender,
                    routed.destinations,
                    key,
                    routed.columns,
                    bits_per_tuple=source.tuple_bits,
                    row_indices=routed.row_indices,
                    source_sorted=step.preserves_source_order,
                )
            return
        with self._measure("ship"):
            for destination, rows in routed.batches:
                simulator.send(
                    sender, destination, key, rows, source.tuple_bits
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
    """

    plan: Plan
    simulator: MPCSimulator
    answers: tuple[tuple[int, ...], ...] = ()
    per_server: tuple[int, ...] = ()
    view_sizes: dict[str, int] | None = None
    per_server_views: dict[str, tuple[int, ...]] | None = None
    heavy_hitters: dict[str, frozenset[int]] | None = None

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
            when given (and usable) rounds execute on a
            :class:`~repro.engine.parallel.engine.ParallelRoundEngine`
            that fans shardable route phases out across the context's
            process pool -- and, combined with ``chunk_rows``, fans
            ship/deliver and shard-wise local evaluation out too,
            overlapping a round's view materialisation with the next
            round's routing where data dependencies allow.  Answers,
            loads and capacity behaviour are bit-identical to the
            in-process engine; non-shardable steps and small sources
            fall back transparently.
        chunk_rows: streaming block size (see :class:`RoundEngine`);
            None reads the ``REPRO_CHUNK_ROWS`` environment knob, and
            an unset knob means monolithic execution.  Answers, loads
            and capacity failures stay bit-identical for every chunk
            size.
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
        ValueError: for fixpoint plans (those are executed by their
            algorithm's driver).
    """
    if plan.fixpoint is not None:
        raise ValueError(
            "fixpoint plans are executed by their algorithm driver, "
            "not execute_plan"
        )
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
    from repro.engine.streaming import resolve_chunk_rows

    chunk_rows = resolve_chunk_rows(chunk_rows)
    streaming = chunk_rows is not None and backend == NUMPY
    parallel_ctx = (
        parallel if parallel is not None and parallel.usable else None
    )
    if parallel_ctx is not None:
        from repro.engine.parallel.engine import ParallelRoundEngine

        engine: RoundEngine = ParallelRoundEngine(
            simulator, parallel_ctx, profiler=profiler,
            chunk_rows=chunk_rows if streaming else None,
            deadline=deadline,
        )
    else:
        engine = RoundEngine(
            simulator, profiler=profiler,
            chunk_rows=chunk_rows if streaming else None,
            deadline=deadline,
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
            if streaming:
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
    )
