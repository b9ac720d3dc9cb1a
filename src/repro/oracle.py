"""The row-at-a-time reference executor the engine is tested against.

The paper's multi-round model is tuple-based: a tuple's destinations
depend on that tuple alone (Section 4.2.1), and a server's load in a
round is the bits it receives.  :func:`execute_plan` here states that
model directly and nothing more -- every step routes each source row
through the scalar :meth:`RoutingStep.destinations
<repro.engine.steps.RoutingStep.destinations>` into the oracle's own
per-round, per-worker row lists, every worker evaluates its rows with
the backtracking join (:func:`evaluate_query`, an index-backed join
over row tuples that lives only here), and a site's answer is the
sorted union.  Heavy hitters are counted in
a dict.

The oracle keeps its own books.  A row of arity ``a`` over ``[n]``
costs ``a * ceil(log2 n)`` bits (Section 2.1), a worker's budget is
``c * N / p^{1-eps}`` from the plan's signature, and an overloaded
round raises :class:`~repro.mpc.simulator.CapacityExceeded` for the
first overloaded worker in index order -- all computed here, none of
it by :class:`~repro.mpc.simulator.MPCSimulator`, so a fault in the
simulator's accounting shows up as a parity failure.

It mirrors :func:`repro.engine.executor.execute_plan` round for round:
an :class:`OracleExecution` carries the same answers, per-server
counts, view sizes, heavy hitters and per-round received bits/tuples
as the engine's :class:`~repro.engine.executor.PlanExecution`.  The
engine's block size and shard budget have no counterpart here: they
must never change what it returns.

Only tests and benchmarks import this module; nothing under
:mod:`repro` does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.query import Atom, ConjunctiveQuery
from repro.engine.plan import CollectAnswers, FinalizeView, Plan, key_map_of
from repro.mpc.simulator import CapacityExceeded
from repro.mpc.stats import RoundStats, SimulationReport

Rows = tuple[tuple[int, ...], ...]

#: One round's deliveries: per worker, mailbox key -> received rows.
Delivered = list[dict[str, list[tuple[int, ...]]]]


@dataclass(frozen=True)
class _Relation:
    """The oracle's own row relation: sorted distinct rows over ``[n]``."""

    name: str
    arity: int
    tuples: Rows
    domain_size: int

    def __len__(self) -> int:
        return len(self.tuples)

    def rows(self) -> Iterator[tuple[int, ...]]:
        return iter(self.tuples)


def _tuple_bits(relation: _Relation) -> int:
    """``arity * ceil(log2 n)``: one row's cost on the wire."""
    return relation.arity * max(1, (relation.domain_size - 1).bit_length())


def _as_relation(name: str, relation: Any) -> _Relation:
    """A columnar relation's rows (sorted, as stored), held as tuples."""
    return _Relation(
        name=name,
        arity=relation.arity,
        tuples=tuple(relation.rows()),
        domain_size=relation.domain_size,
    )


def evaluate_query(
    query: ConjunctiveQuery,
    relations: Mapping[str, Iterable[Sequence[int]]],
) -> tuple[tuple[int, ...], ...]:
    """All answers of ``query`` over the given relation instances.

    Args:
        query: a full conjunctive query.
        relations: rows per relation name; every atom of the query
            must be present (missing relations are treated as empty).

    Returns:
        Sorted, duplicate-free answer tuples in head-variable order.
    """
    instances: dict[str, list[tuple[int, ...]]] = {}
    for atom in query.atoms:
        rows = relations.get(atom.name, ())
        instances[atom.name] = [tuple(row) for row in rows]
        if not instances[atom.name]:
            return ()

    order = _atom_order(query, instances)
    indexes = _build_indexes(query, order, instances)

    answers: set[tuple[int, ...]] = set()
    binding: dict[str, int] = {}

    def extend(depth: int) -> None:
        if depth == len(order):
            answers.add(tuple(binding[v] for v in query.head))
            return
        atom = order[depth]
        bound_positions, index = indexes[depth]
        key = tuple(binding[atom.variables[i]] for i in bound_positions)
        for row in index.get(key, ()):
            assigned: list[str] = []
            consistent = True
            for position, variable in enumerate(atom.variables):
                value = row[position]
                if variable in binding:
                    if binding[variable] != value:
                        consistent = False
                        break
                else:
                    binding[variable] = value
                    assigned.append(variable)
            if consistent:
                extend(depth + 1)
            for variable in assigned:
                del binding[variable]

    extend(0)
    return tuple(sorted(answers))


def _atom_order(
    query: ConjunctiveQuery,
    instances: Mapping[str, list[tuple[int, ...]]],
) -> list[Atom]:
    """Greedy join order: smallest first, then stay connected."""
    def size(atom: Atom) -> int:
        return len(instances[atom.name])

    remaining = sorted(query.atoms, key=size)
    order = [remaining.pop(0)]
    bound = set(order[0].variable_set)
    while remaining:
        connected = [atom for atom in remaining if atom.variable_set & bound]
        chosen = min(connected or remaining, key=size)
        remaining.remove(chosen)
        order.append(chosen)
        bound |= chosen.variable_set
    return order


def _build_indexes(
    query: ConjunctiveQuery,
    order: Sequence[Atom],
    instances: Mapping[str, list[tuple[int, ...]]],
) -> list[tuple[tuple[int, ...], dict[tuple[int, ...], list[tuple[int, ...]]]]]:
    """Per-atom hash index on the positions bound before the atom.

    For each atom in join order, determine which of its positions hold
    variables bound by earlier atoms; index its rows by the values at
    those positions.  Rows violating intra-atom repeated-variable
    equality are dropped at build time.
    """
    indexes = []
    bound: set[str] = set()
    for atom in order:
        first_position = atom.first_positions
        bound_positions = tuple(
            first_position[variable]
            for variable in dict.fromkeys(atom.variables)
            if variable in bound
        )
        index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for row in instances[atom.name]:
            if any(
                row[position] != row[first_position[variable]]
                for position, variable in enumerate(atom.variables)
            ):
                continue
            key = tuple(row[i] for i in bound_positions)
            index.setdefault(key, []).append(row)
        indexes.append((bound_positions, index))
        bound |= atom.variable_set
    return indexes


@dataclass
class OracleExecution:
    """Everything one oracle run observed.

    Attributes:
        answers: the finalized answers, sorted and duplicate-free.
        per_server: per-worker answer counts, zero-padded to ``p``.
        view_sizes: materialised size of every intermediate view.
        per_server_views: per view, each worker's answer count.
        heavy_hitters: the heavy values bound during execution.
        report: per-round received bits/tuples and capacity.
        received: per round, per worker, the rows received by key.
    """

    answers: Rows
    per_server: tuple[int, ...]
    view_sizes: dict[str, int]
    per_server_views: dict[str, tuple[int, ...]]
    heavy_hitters: dict[str, frozenset[int]] | None
    report: SimulationReport
    received: list[Delivered]


def _received_rows(
    received: list[Delivered], worker: int, key: str
) -> list[tuple[int, ...]]:
    """A worker keeps everything it ever received (Section 2.1)."""
    return [row for got in received for row in got[worker].get(key, ())]


def heavy_hitters(
    query: ConjunctiveQuery,
    environment: Mapping[str, Any],
    shares: Mapping[str, int],
) -> dict[str, frozenset[int]]:
    """Values occurring more than ``|S_j| / p_i`` times, counted over
    each relation's ``rows()`` (the oracle's own, or a database's)."""
    heavy: dict[str, set[int]] = {v: set() for v in query.variables}
    for atom in query.atoms:
        relation = environment[atom.name]
        for position, variable in enumerate(atom.variables):
            share = shares.get(variable, 1)
            if share <= 1 or not len(relation):
                continue
            threshold = max(1, len(relation) // share)
            counts: dict[int, int] = {}
            for row in relation.rows():
                counts[row[position]] = counts.get(row[position], 0) + 1
            heavy[variable].update(
                value for value, count in counts.items() if count > threshold
            )
    return {v: frozenset(values) for v, values in heavy.items()}


def _evaluate_site(
    query: ConjunctiveQuery,
    received: list[Delivered],
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
                atom.name: _received_rows(
                    received, worker, key_of(atom.name)
                )
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
) -> OracleExecution:
    """Execute ``plan`` tuple at a time; see the module docstring.

    Takes the database shapes and the ``relation_map`` / ``input_bits``
    overrides of :func:`repro.engine.executor.execute_plan`.

    Raises:
        CapacityExceeded: when the plan enforces capacity and a worker
            overflows.
    """
    database_relations = {
        name: _as_relation(name, relation)
        for name, relation in (
            database if isinstance(database, Mapping) else database.relations
        ).items()
    }
    sources = database_relations
    if relation_map:
        sources = {
            plan_name: database_relations[database_name]
            for plan_name, database_name in relation_map.items()
        }
    if input_bits is None:
        # ``N``: the database's relations, or the plan's sources when
        # handed a bare mapping (the engine's rule).
        counted = (
            sources if isinstance(database, Mapping) else database_relations
        )
        input_bits = sum(
            len(relation) * _tuple_bits(relation)
            for relation in counted.values()
        )
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
    environment: dict[str, _Relation] = dict(sources)
    signature = plan.signature
    p = signature.p
    capacity = (
        signature.capacity_c
        * input_bits
        / (p ** float(1 - Fraction(signature.eps)))
    )
    report = SimulationReport(input_bits=input_bits)
    received: list[Delivered] = []
    view_sizes: dict[str, int] = {}
    per_server_views: dict[str, tuple[int, ...]] = {}
    heavy: dict[str, frozenset[int]] | None = None

    for round_index, plan_round in enumerate(plan.rounds, start=1):
        steps = plan_round.steps
        bind = plan_round.bind_heavy
        if bind is not None:
            heavy = heavy_hitters(bind.query, environment, dict(bind.shares))
            steps = bind.bind(steps, heavy)
        delivered: Delivered = [{} for _ in range(p)]
        bits = [0] * p
        tuples = [0] * p
        for step in steps:
            source = environment[step.relation]
            width = _tuple_bits(source)
            for index, row in enumerate(source.rows()):
                for destination in step.destinations(row, index, p):
                    delivered[destination].setdefault(
                        step.mailbox_key, []
                    ).append(row)
                    bits[destination] += width
                    tuples[destination] += 1
        if signature.enforce_capacity:
            for worker, load in enumerate(bits):
                if load > capacity:
                    raise CapacityExceeded(worker, load, capacity, round_index)
        received.append(delivered)
        report.rounds.append(
            RoundStats(round_index, tuple(bits), tuple(tuples), capacity)
        )

        for view in plan_round.views:
            rows, counts = _evaluate_site(
                view.query, received, range(p), key_map_of(view.key_map)
            )
            environment[view.name] = _Relation(
                name=view.name,
                arity=len(view.query.head),
                tuples=rows,
                domain_size=domain_size,
            )
            view_sizes[view.name] = len(rows)
            per_server_views[view.name] = tuple(counts)

    answers: Rows = ()
    per_server: tuple[int, ...] = ()
    finalize = plan.finalize
    if isinstance(finalize, CollectAnswers):
        answers, counts = _evaluate_site(
            finalize.query,
            received,
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
        answers = tuple(
            sorted(
                tuple(row[i] for i in positions)
                for row in environment[finalize.view].rows()
            )
        )
    return OracleExecution(
        answers=answers,
        per_server=per_server,
        view_sizes=view_sizes,
        per_server_views=per_server_views,
        heavy_hitters=heavy,
        report=report,
        received=received,
    )
