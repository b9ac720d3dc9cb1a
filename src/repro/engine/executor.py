"""The round engine: execute routing steps -- and whole plans.

This is the single route/ship loop every algorithm in the repository
compiles to.  A :class:`RoundEngine` wraps one :class:`MPCSimulator`;
:meth:`RoundEngine.run_round` opens a round, executes each
:class:`~repro.engine.steps.RoutingStep` against its source relation,
and closes the round (which delivers messages and enforces the
capacity bound).

Every step is routed inline, in this process, through the one route
primitive :func:`~repro.engine.streaming.route_range`, block by block
(:func:`~repro.engine.streaming.route_blocks`; ``chunk_rows=None``
makes the whole source one block), and staged as one delivery with
the one staging verb :meth:`MPCSimulator.send`: a source that fits in
one block keeps its routed arrays (a
:class:`~repro.mpc.simulator.RoutedBlock`, binned by receiver at round
close); a longer one ships as a re-routable recipe
(:class:`~repro.engine.streaming.LazyContribution`).

A tuple's destinations depend on the tuple alone (and, for the
content-free round-robin grid, on its row index, which every block
carries as its offset) and a round charges each server only for what
it receives, so every block size produces the same multiset of (row,
destination) pairs: answers, per-round received bits/tuples and
capacity failures are bit-identical across block sizes by
construction -- and to the row-at-a-time reference of
:mod:`repro.oracle`, which routes each tuple through
:meth:`RoutingStep.destinations`.

:func:`execute_plan` is the plan-level entry point: it takes an
immutable :class:`~repro.engine.plan.Plan` (the output of an
algorithm's compiler) plus a database, builds the simulator from the
plan's signature, runs every round (binding heavy hitters and
materialising views where the plan says so) and finalizes the answer.
Everything -- routing, shipping, delivery, view materialisation and
answer collection -- runs in this process, one round after the other.

Deliveries carry the step's
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
from functools import cached_property, partial
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy

from repro.data.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    sorted_unique_rows,
)
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
from repro.engine.steps import RoutingStep
from repro.engine.streaming import (
    LazyContribution,
    resolve_chunk_rows,
    route_blocks,
)
from repro.mpc.model import MPCConfig
from repro.mpc.simulator import MPCSimulator, RoutedBlock, input_server
from repro.mpc.stats import RoundStats, SimulationReport

if TYPE_CHECKING:
    from repro.engine.local import SiteAnswers


class RoundEngine:
    """Executes routing-step rounds on one simulator.

    Args:
        simulator: the MPC network to route over.
        profiler: optional phase-timing collector; when given, every
            round records route/ship/deliver seconds against its round
            index.
        chunk_rows: routing block size; None (the default) makes
            every source one block.  Blocks are zero-copy column
            views.  A source longer than one block ships as a recipe,
            materialised at local-evaluation time one worker shard at
            a time, so the engine's peak memory per step is
            ``O(chunk_rows x replication)`` instead of
            ``O(n x replication)``.  Answers, per-server loads and
            capacity behaviour are bit-identical for every block size.
        deadline: optional per-request latency budget, checked
            cooperatively before every routed block (never
            mid-primitive).  Capacity precedence is preserved: the
            deadline is never consulted at round close, so a round
            that both overflows and overruns raises
            ``CapacityExceeded``.
    """

    def __init__(
        self,
        simulator: MPCSimulator,
        profiler: RoundProfiler | None = None,
        chunk_rows: int | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        self.simulator = simulator
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
            sources: source relation/view per step ``relation`` name.

        Returns:
            The closed round's statistics.

        Raises:
            CapacityExceeded: via :meth:`MPCSimulator.end_round` when
                enforcement is on and a worker's budget is blown.
        """
        self.simulator.begin_round()
        for step in steps:
            self._send(step, sources[step.relation])
        with self._measure("deliver"):
            return self.simulator.end_round()

    @contextmanager
    def _block_checkpoint(self, block_delay: float):
        """Around one routed block: deadline, fault, timing."""
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

    def _send(self, step: RoutingStep, source: ColumnarRelation) -> None:
        """Route one step block by block and stage its one delivery.

        Bincount is additive over any row partition, so the summed
        block counts are the step's exact load, and capacity behaviour
        -- including which worker raises at ``end_round`` -- does not
        depend on the block size.
        """
        simulator = self.simulator
        num_rows = len(source) if source.columns else 0
        with self._measure("route"):
            counts, routed = route_blocks(
                step,
                source.columns,
                num_rows,
                self.chunk_rows,
                simulator.num_workers,
                block_hook=partial(
                    self._block_checkpoint, block_delay_seconds()
                ),
            )
        with self._measure("ship"):
            if routed is not None:
                delivery = RoutedBlock(
                    *routed, source_sorted=step.preserves_source_order
                )
            else:
                delivery = LazyContribution(
                    step=step,
                    columns=source.columns,
                    num_rows=num_rows,
                    chunk_rows=self.chunk_rows,
                    source_sorted=step.preserves_source_order,
                )
            simulator.send(
                _sender_of(step),
                step.mailbox_key,
                delivery,
                counts,
                bits_per_tuple=source.tuple_bits,
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
        simulator: the simulator after the run (callers read the
            report and the delivery pools from here).
        table: the finalized answers as one sorted duplicate-free
            int64 ``(rows, arity)`` table in the plan query's head
            order (empty when ``plan.finalize`` is None).
        per_server: per-worker answer counts, zero-padded to ``p``.
        view_sizes: materialised size of every intermediate view.
        per_server_views: per view, each worker's answer contribution.
        heavy_hitters: the heavy values bound during execution, when
            the plan asked for heavy binding.
        site_answers: per evaluation site (view name; None for the
            ``CollectAnswers`` site), the per-worker answer counts and
            merged table local evaluation computed
            (:class:`~repro.engine.local.SiteAnswers`) -- what
            incremental maintenance retains, by reference.  Sites
            evaluated from multi-block (recipe) deliveries are absent.
    """

    plan: Plan
    simulator: MPCSimulator
    table: Any
    per_server: tuple[int, ...] = ()
    view_sizes: dict[str, int] | None = None
    per_server_views: dict[str, tuple[int, ...]] | None = None
    heavy_hitters: dict[str, frozenset[int]] | None = None
    site_answers: dict[str | None, SiteAnswers] | None = None

    @cached_property
    def answers(self) -> tuple[tuple[int, ...], ...]:
        """:attr:`table` as sorted answer tuples, built on first use."""
        return tuple(map(tuple, self.table.tolist()))

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
    )


def plan_simulator(plan: Plan, input_bits: int) -> MPCSimulator:
    """A fresh simulator for one execution of ``plan``."""
    return MPCSimulator(
        plan_config(plan),
        input_bits=input_bits,
        enforce_capacity=plan.signature.enforce_capacity,
    )


def _plan_sources(
    database: ColumnarDatabase | Mapping[str, ColumnarRelation],
) -> dict[str, ColumnarRelation]:
    """The relations of either accepted database shape."""
    return dict(
        database if isinstance(database, Mapping) else database.relations
    )


def _database_bits(database: Any, sources: Mapping[str, ColumnarRelation]) -> int:
    """Input size ``N`` in bits for the capacity bound."""
    total = getattr(database, "total_bits", None)
    if total is not None:
        return total
    return sum(relation.size_bits for relation in sources.values())


def execute_plan(
    plan: Plan,
    database: ColumnarDatabase | Mapping[str, ColumnarRelation],
    *,
    profiler: RoundProfiler | None = None,
    relation_map: Mapping[str, str] | None = None,
    input_bits: int | None = None,
    chunk_rows: int | None = None,
    deadline: Deadline | None = None,
) -> PlanExecution:
    """Execute a compiled plan against a database.

    Args:
        plan: the immutable physical plan (an algorithm compiler's
            output).
        database: a :class:`~repro.data.columnar.ColumnarDatabase`,
            or a plain mapping of relation name to
            :class:`~repro.data.columnar.ColumnarRelation`.
        profiler: optional per-round route/ship/deliver/local timing
            collector.
        relation_map: plan relation name -> database relation name,
            for executing a cached plan against an isomorphic query's
            relations (the plan-cache rebind).
        input_bits: override for the capacity bound's ``N`` (callers
            with bespoke input accounting, e.g. the cartesian-grid
            baseline).
        chunk_rows: routing block size (see :class:`RoundEngine`);
            None or non-positive makes every source one block.
            Answers, loads and capacity failures stay bit-identical
            for every chunk size.
        deadline: optional per-request latency budget.  Checked
            cooperatively -- before each round, before every routed
            block, before and between local-evaluation shards
            (monolithic executions evaluate one shard, so every view
            and the final collect check once), and before the
            finalize -- never mid-primitive.

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
    sources = _plan_sources(database)
    if relation_map:
        sources = {
            plan_name: sources[database_name]
            for plan_name, database_name in relation_map.items()
        }
    if input_bits is None:
        input_bits = _database_bits(database, sources)
    simulator = plan_simulator(plan, input_bits)
    engine = RoundEngine(
        simulator,
        profiler=profiler,
        chunk_rows=resolve_chunk_rows(chunk_rows),
        deadline=deadline,
    )

    domain_size = getattr(database, "domain_size", None)
    if domain_size is None:
        domain_size = max(
            (relation.domain_size for relation in sources.values()),
            default=1,
        )
    environment = dict(sources)
    if plan.uniform_domain_bits:
        for name, relation in list(environment.items()):
            environment[name] = replace(relation, domain_size=domain_size)

    view_sizes: dict[str, int] = {}
    per_server_views: dict[str, tuple[int, ...]] = {}
    heavy_hitters: dict[str, frozenset[int]] | None = None
    from repro.engine.local import collect_answers, materialise_view

    #: Left on the execution for IVM capture.
    site_answers: dict[str | None, SiteAnswers] = {}

    fault_round_delay = round_delay_seconds()
    for plan_round in plan.rounds:
        inject_round_delay(fault_round_delay)
        if deadline is not None:
            deadline.check("between rounds")
        steps = plan_round.steps
        bind = plan_round.bind_heavy
        if bind is not None:
            from repro.algorithms.hypercube import detect_heavy_hitters

            heavy_hitters = detect_heavy_hitters(
                bind.query, environment, dict(bind.shares)
            )
            steps = bind.bind(steps, heavy_hitters)
        engine.run_round(steps, environment)

        for view in plan_round.views:
            materialised, counts = materialise_view(
                view.name,
                view.query,
                simulator,
                range(plan.signature.p),
                domain_size=domain_size,
                key_of=key_map_of(view.key_map),
                profiler=profiler,
                deadline=deadline,
                retain=site_answers,
            )
            environment[view.name] = materialised
            view_sizes[view.name] = len(materialised)
            per_server_views[view.name] = tuple(counts)

    if deadline is not None:
        deadline.check("before finalize")
    table = numpy.zeros((0, 0), dtype=numpy.int64)
    per_server: tuple[int, ...] = ()
    finalize = plan.finalize
    if isinstance(finalize, CollectAnswers):
        table, counts = collect_answers(
            finalize.query,
            simulator,
            range(finalize.workers),
            key_of=key_map_of(finalize.key_map),
            profiler=profiler,
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
        table = numpy.column_stack(
            [view.column(schema.index(v)) for v in finalize.head]
        )
        if finalize.head != schema:
            # A materialised view is canonical (sorted unique), and
            # permuted columns of unique rows stay unique; only the
            # order needs restoring.
            table = sorted_unique_rows(table)
    return PlanExecution(
        plan=plan,
        simulator=simulator,
        table=table,
        per_server=per_server,
        view_sizes=view_sizes,
        per_server_views=per_server_views,
        heavy_hitters=heavy_hitters,
        site_answers=site_answers,
    )
