"""The row-at-a-time reference executor the engine is tested against.

The paper's multi-round model is tuple-based: a tuple's destinations
depend on that tuple alone (Section 4.2.1).  :func:`execute_plan` here
states that model directly and nothing more -- every step routes each
source row through the scalar :meth:`RoutingStep.destinations
<repro.engine.steps.RoutingStep.destinations>` and ships it with the
simulator's row API (:meth:`MPCSimulator.send
<repro.mpc.simulator.MPCSimulator.send>`), every worker evaluates its
rows with the backtracking join
(:func:`~repro.algorithms.localjoin.evaluate_query`), and a site's
answer is the sorted union.  Heavy hitters are counted in a dict.

It mirrors :func:`repro.engine.executor.execute_plan` round for round,
so both return a :class:`~repro.engine.executor.PlanExecution` with the
same answers, per-server counts, view sizes, heavy hitters and
per-round received bits/tuples -- and raise the same
:class:`~repro.mpc.simulator.CapacityExceeded`, since load accounting
and enforcement are the simulator's own code on both paths.  The
engine's block size, worker pool and shard budget have no counterpart
here: they must never change what it returns.

Only tests and benchmarks import this module; nothing under
:mod:`repro` does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping

import numpy

from repro.algorithms.localjoin import evaluate_query
from repro.core.query import ConjunctiveQuery
from repro.data.database import Relation
from repro.engine.executor import PlanExecution, plan_simulator
from repro.engine.plan import CollectAnswers, FinalizeView, Plan, key_map_of
from repro.engine.steps import HeavyGridRoute
from repro.mpc.message import input_server
from repro.mpc.simulator import MPCSimulator

Rows = tuple[tuple[int, ...], ...]


def _as_relation(name: str, relation: Any) -> Relation:
    """A row :class:`Relation` from either storage (rows stay sorted)."""
    if isinstance(relation, Relation):
        return relation
    return Relation(
        name=name,
        arity=relation.arity,
        tuples=tuple(relation.rows()),
        domain_size=relation.domain_size,
    )


def heavy_hitters(
    query: ConjunctiveQuery,
    environment: Mapping[str, Relation],
    shares: Mapping[str, int],
) -> dict[str, frozenset[int]]:
    """Values occurring more than ``|S_j| / p_i`` times, by counting."""
    heavy: dict[str, set[int]] = {v: set() for v in query.variables}
    for atom in query.atoms:
        relation = environment[atom.name]
        for position, variable in enumerate(atom.variables):
            share = shares.get(variable, 1)
            if share <= 1 or not len(relation):
                continue
            threshold = max(1, len(relation) // share)
            counts: dict[int, int] = {}
            for row in relation:
                counts[row[position]] = counts.get(row[position], 0) + 1
            heavy[variable].update(
                value for value, count in counts.items() if count > threshold
            )
    return {v: frozenset(values) for v, values in heavy.items()}


def _evaluate_site(
    query: ConjunctiveQuery,
    simulator: MPCSimulator,
    workers: range,
    key_of,
) -> tuple[Rows, list[int]]:
    """Every worker's answers over its rows: the sorted union, counts."""
    union: set[tuple[int, ...]] = set()
    counts = []
    for worker in workers:
        found = evaluate_query(
            query,
            {
                atom.name: simulator.worker_rows(worker, key_of(atom.name))
                for atom in query.atoms
            },
        )
        union.update(found)
        counts.append(len(found))
    return tuple(sorted(union)), counts


def execute_plan(
    plan: Plan,
    database: Any,
    *,
    relation_map: Mapping[str, str] | None = None,
    input_bits: int | None = None,
) -> PlanExecution:
    """Execute ``plan`` tuple at a time; see the module docstring.

    Takes the database shapes and the ``relation_map`` / ``input_bits``
    overrides of :func:`repro.engine.executor.execute_plan`.

    Raises:
        CapacityExceeded: when the plan enforces capacity and a worker
            overflows.
    """
    relations = dict(
        database if isinstance(database, Mapping) else database.relations
    )
    sources = {
        name: _as_relation(name, relation)
        for name, relation in relations.items()
    }
    if relation_map:
        sources = {
            plan_name: sources[database_name]
            for plan_name, database_name in relation_map.items()
        }
    if input_bits is None:
        input_bits = getattr(database, "total_bits", None)
        if input_bits is None:
            input_bits = sum(r.size_bits for r in sources.values())
    domain_size = getattr(database, "domain_size", None)
    if domain_size is None:
        domain_size = max(
            (relation.domain_size for relation in sources.values()),
            default=1,
        )
    if plan.uniform_domain_bits:
        sources = {
            name: replace(relation, domain_size=domain_size)
            for name, relation in sources.items()
        }
    environment: dict[str, Relation] = dict(sources)
    simulator = plan_simulator(plan, input_bits)
    p = plan.signature.p
    view_sizes: dict[str, int] = {}
    per_server_views: dict[str, tuple[int, ...]] = {}
    heavy: dict[str, frozenset[int]] | None = None

    for plan_round in plan.rounds:
        steps = plan_round.steps
        if plan_round.bind_heavy is not None:
            bind = plan_round.bind_heavy
            heavy = heavy_hitters(bind.query, environment, dict(bind.shares))
            steps = tuple(
                replace(step, heavy=heavy)
                if isinstance(step, HeavyGridRoute)
                else step
                for step in steps
            )
        simulator.begin_round()
        for step in steps:
            source = environment[step.relation]
            batches: dict[int, list[tuple[int, ...]]] = {}
            for index, row in enumerate(source):
                for destination in step.destinations(row, index, p):
                    batches.setdefault(destination, []).append(row)
            sender = (
                step.sender
                if step.sender is not None
                else input_server(step.relation)
            )
            for destination, rows in batches.items():
                simulator.send(
                    sender, destination, step.mailbox_key, rows,
                    source.tuple_bits,
                )
        simulator.end_round()

        for view in plan_round.views:
            rows, counts = _evaluate_site(
                view.query, simulator, range(p), key_map_of(view.key_map)
            )
            environment[view.name] = Relation(
                name=view.name,
                arity=len(view.query.head),
                tuples=rows,
                domain_size=domain_size,
            )
            view_sizes[view.name] = len(rows)
            per_server_views[view.name] = tuple(counts)

    answers: Rows = ()
    arity = 0
    per_server: tuple[int, ...] = ()
    finalize = plan.finalize
    if isinstance(finalize, CollectAnswers):
        arity = len(finalize.query.head)
        answers, counts = _evaluate_site(
            finalize.query,
            simulator,
            range(finalize.workers),
            key_map_of(finalize.key_map),
        )
        per_server = tuple(counts + [0] * (p - finalize.workers))
    elif isinstance(finalize, FinalizeView):
        schema = next(
            spec.query.head
            for plan_round in plan.rounds
            for spec in plan_round.views
            if spec.name == finalize.view
        )
        positions = [schema.index(variable) for variable in finalize.head]
        arity = len(positions)
        answers = tuple(
            sorted(
                tuple(row[i] for i in positions)
                for row in environment[finalize.view]
            )
        )
    return PlanExecution(
        plan=plan,
        simulator=simulator,
        table=numpy.array(answers, dtype=numpy.int64).reshape(
            len(answers), arity
        ),
        per_server=per_server,
        view_sizes=view_sizes,
        per_server_views=per_server_views,
        heavy_hitters=heavy,
    )
