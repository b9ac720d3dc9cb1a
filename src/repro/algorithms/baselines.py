"""Baseline algorithms the paper measures HyperCube against.

* :func:`compile_broadcast_join` -- ship every relation to every
  server (the degenerate ``eps = 1`` regime): one round, replication
  exactly ``p``, always correct.
* :func:`compile_single_server` -- ship everything to server 0 (the
  ``p = 1`` regime in disguise): one round, maximum load ``N``.
* :func:`compile_single_attribute_join` -- hash all relations on one
  shared variable (the classical parallel hash join, the one-round
  algorithm of Koutris-Suciu [17] for queries with a variable in every
  atom -- exactly ``tau* = 1``, Corollary 3.10's class): replication
  rate 1.
* :func:`run_cartesian_grid` -- the introduction's drug-interaction
  tradeoff: compute a cartesian product ``A x B`` with a ``g x g``
  grid of reducers; replication rate ``g``, reducer input ``2n/g``,
  optimal at ``g = sqrt(p)``.

All four compile to the shared plan IR --
:class:`~repro.engine.steps.Broadcast`,
:class:`~repro.engine.steps.ToServer`, a one-dimensional
:class:`~repro.engine.steps.HashRoute` grid, and
:class:`~repro.engine.steps.RoundRobinGrid` respectively -- and
:func:`~repro.engine.executor.execute_plan` runs the plans; all honour
``backend=`` like every other compiler in the package.  The cartesian
grid takes two bare relations rather than a query, so it keeps its
own driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.backend import resolve_backend
from repro.core.query import ConjunctiveQuery, QueryError
from repro.data.columnar import ColumnarRelation
from repro.data.database import Relation, bits_per_value
from repro.engine import (
    Broadcast,
    CollectAnswers,
    GridSpec,
    HashRoute,
    Plan,
    PlanRound,
    PlanSignature,
    RoundRobinGrid,
    ToServer,
    execute_plan,
    fragment_tuple_count,
)
from repro.mpc.routing import HashFamily
from repro.mpc.stats import SimulationReport


def compile_broadcast_join(
    query: ConjunctiveQuery, p: int, backend: str | None = None
) -> Plan:
    """Compile the broadcast join: every atom to every worker."""
    return Plan(
        signature=PlanSignature(
            algorithm="broadcast",
            query_text=str(query),
            eps=Fraction(1),
            p=p,
            backend=resolve_backend(backend),
            seed=0,
            capacity_c=2.0,
            enforce_capacity=True,
        ),
        rounds=(
            PlanRound(
                steps=tuple(
                    Broadcast(relation=atom.name) for atom in query.atoms
                )
            ),
        ),
        # Every worker holds the whole input; evaluating at worker 0
        # suffices and already yields the sorted full answer.
        finalize=CollectAnswers(query=query, workers=1),
    )


def compile_single_server(
    query: ConjunctiveQuery, p: int = 1, backend: str | None = None
) -> Plan:
    """Compile the single-server strawman: everything to worker 0."""
    return Plan(
        signature=PlanSignature(
            algorithm="single_server",
            query_text=str(query),
            eps=Fraction(1),
            p=max(1, p),
            backend=resolve_backend(backend),
            seed=0,
            capacity_c=2.0,
            enforce_capacity=False,
        ),
        rounds=(
            PlanRound(
                steps=tuple(
                    ToServer(relation=atom.name, worker=0)
                    for atom in query.atoms
                )
            ),
        ),
        finalize=CollectAnswers(query=query, workers=1),
    )


def compile_single_attribute_join(
    query: ConjunctiveQuery,
    p: int,
    seed: int = 0,
    backend: str | None = None,
) -> Plan:
    """Compile the classical hash join on one all-atom shared variable.

    Raises:
        QueryError: if no variable is shared by all atoms.
    """
    shared = None
    for variable in query.variables:
        if all(
            variable in atom.variable_set for atom in query.atoms
        ):
            shared = variable
            break
    if shared is None:
        raise QueryError(
            "single-attribute hash join needs a variable in every atom "
            f"(tau* = 1); {query.name} has none"
        )
    grid = GridSpec(
        variables=(shared,), dimensions=(p,), hashes=HashFamily(seed)
    )
    steps = tuple(
        # The classical hash join routes *every* tuple by its hash --
        # it never inspects the other columns -- so keep the
        # repeated-variable short-circuit off to preserve the
        # baseline's exact shipping statistics.
        HashRoute(
            relation=atom.name,
            atom=atom,
            grid=grid,
            filter_contradictions=False,
        )
        for atom in query.atoms
    )
    return Plan(
        signature=PlanSignature(
            algorithm="single_attribute",
            query_text=str(query),
            eps=Fraction(0),
            p=p,
            backend=resolve_backend(backend),
            seed=seed,
            capacity_c=2.0,
            enforce_capacity=False,
        ),
        rounds=(PlanRound(steps=steps),),
        finalize=CollectAnswers(query=query, workers=p),
    )


@dataclass(frozen=True)
class CartesianResult:
    """The drug-interaction tradeoff, measured.

    Attributes:
        num_pairs: pairs examined (must be ``|A| * |B|``).
        replication_rate: times each input item was shipped (``g``).
        max_reducer_tuples: largest reducer input (``~ 2n/g``).
        report: communication statistics.
    """

    num_pairs: int
    replication_rate: float
    max_reducer_tuples: int
    report: SimulationReport


def run_cartesian_grid(
    left: Relation,
    right: Relation,
    p: int,
    groups: int | None = None,
    backend: str | None = None,
) -> CartesianResult:
    """Compute ``left x right`` with a ``g x g`` reducer grid.

    Each side is split into ``g`` groups; reducer ``(i, j)`` receives
    group ``i`` of ``left`` and group ``j`` of ``right`` -- Ullman's
    drug-interaction example from the introduction.  With ``g**2 <= p``
    each reducer is a worker; the tradeoff is replication ``g`` versus
    reducer input ``|left|/g + |right|/g``.  On the engine each side
    is one :class:`~repro.engine.steps.RoundRobinGrid` step pinning
    its own axis of the grid.

    Args:
        left, right: unary or wider relations (rows are items).
        p: number of workers; reducers use the first ``g*g``.
        groups: ``g``; defaults to ``floor(sqrt(p))`` (the optimum).
        backend: ``"pure"``, ``"numpy"`` or ``"auto"``.
    """
    plan = compile_cartesian_grid(
        left.name, right.name, p, groups=groups, backend=backend
    )
    backend = plan.signature.backend
    n_bits = bits_per_value(max(left.domain_size, right.domain_size))
    input_bits = (len(left) + len(right)) * n_bits
    sources = {
        relation.name: ColumnarRelation.from_relation(relation, backend)
        for relation in (left, right)
    }
    execution = execute_plan(plan, sources, input_bits=input_bits)
    simulator = execution.simulator

    g = plan.rounds[0].steps[0].grid.dimensions[0]
    pairs = 0
    max_reducer = 0
    for reducer in range(g * g):
        a = fragment_tuple_count(simulator, reducer, left.name, backend)
        b = fragment_tuple_count(simulator, reducer, right.name, backend)
        pairs += a * b
        max_reducer = max(max_reducer, a + b)
    replication = (
        simulator.report.rounds[0].total_tuples / (len(left) + len(right))
        if (len(left) + len(right))
        else 0.0
    )
    return CartesianResult(
        num_pairs=pairs,
        replication_rate=replication,
        max_reducer_tuples=max_reducer,
        report=simulator.report,
    )


def compile_cartesian_grid(
    left: str,
    right: str,
    p: int,
    groups: int | None = None,
    backend: str | None = None,
) -> Plan:
    """Compile the ``g x g`` cartesian grid over two relation names.

    The plan has no finalize spec: the caller reads fragment counts
    off the execution's simulator (the tradeoff being measured is
    about shipping, not answers).
    """
    import math

    g = groups if groups is not None else max(1, math.isqrt(p))
    if g * g > p:
        raise ValueError(f"grid {g}x{g} needs {g * g} workers, have {p}")
    grid = GridSpec(variables=("left", "right"), dimensions=(g, g))
    return Plan(
        signature=PlanSignature(
            algorithm="cartesian",
            query_text=f"{left} x {right} @ {g}x{g}",
            eps=Fraction(1, 2),
            p=p,
            backend=resolve_backend(backend),
            seed=0,
            capacity_c=4.0,
            enforce_capacity=False,
        ),
        rounds=(
            PlanRound(
                steps=(
                    RoundRobinGrid(relation=left, grid=grid, axis=0),
                    RoundRobinGrid(relation=right, grid=grid, axis=1),
                )
            ),
        ),
    )
