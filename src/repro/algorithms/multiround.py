"""Multi-round plan execution (Proposition 4.1).

Executes a :class:`repro.core.plans.QueryPlan` on the MPC simulator:
each plan round is one communication round in which every operator
(a ``Gamma^1_eps`` subquery) is evaluated by the HyperCube routing of
Section 3.1, with all operators of the round sharing the same ``p``
servers (their loads add within the round, as in the paper's
"computed in parallel" argument of Lemma 4.3).

View materialisation follows the tuple-based MPC discipline
(Section 4.2.1): the tuples of a view are *join tuples* of the base
relations; between rounds they are re-routed purely by content -- the
executor hashes each view tuple exactly like a base tuple, so the
whole execution is a legal tuple-based MPC(eps) algorithm.

Compilation and execution are split: :func:`compile_multiround` turns
a validated logical :class:`~repro.core.plans.QueryPlan` into an
immutable physical :class:`~repro.engine.plan.Plan` -- per logical
round, one list of :class:`~repro.engine.steps.HashRoute` steps (one
per operator atom, on the operator's own share grid, namespaced per
operator so concurrent operators sharing a relation do not mix
fragments) plus the view-materialisation specs -- and
:func:`~repro.engine.executor.execute_plan` runs it round by round,
materialising views columnar so the ``numpy`` backend never leaves
column space between rounds.  Operator/view schema compatibility is
checked once, at compile time.

The executor returns both the final answer (asserted in tests to equal
the single-site join) and the per-round communication statistics, so
benchmarks can confirm that plan depth equals the number of simulator
rounds and that loads respect the ``eps`` budget.
"""

from __future__ import annotations

from repro.backend import resolve_backend
from repro.core.covers import fractional_vertex_cover
from repro.core.plans import PlanStep, QueryPlan, validate_plan
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.engine import (
    FinalizeView,
    GridSpec,
    HashRoute,
    Plan,
    PlanRound,
    PlanSignature,
    ViewSpec,
)
from repro.mpc.routing import HashFamily


def _step_key(step: PlanStep, atom_name: str) -> str:
    """Mailbox namespace: operator output x input relation."""
    return f"{step.output}:{atom_name}"


def compile_multiround(
    plan: QueryPlan,
    p: int,
    seed: int = 0,
    capacity_c: float = 8.0,
    enforce_capacity: bool = False,
    backend: str | None = None,
) -> Plan:
    """Compile a logical plan into an immutable physical plan.

    Per logical round, every operator gets its own share grid (with a
    per-(round, step) derived hash seed) and one
    :class:`~repro.engine.steps.HashRoute` per atom, namespaced into
    the operator's mailbox keys; the round's
    :class:`~repro.engine.plan.ViewSpec`s materialise operator outputs
    for content-based re-routing.  Operator/view schema compatibility
    is validated here, once -- execution never re-checks it.

    Raises:
        QueryError: from :func:`~repro.core.plans.validate_plan`.
        ValueError: on an operator whose atom schema does not match
            the view (or base relation) it reads.
    """
    validate_plan(plan)
    # Compile-time environment: relation/view name -> schema.  Base
    # relations enter with their atom's variable schema.
    schemas: dict[str, tuple[str, ...]] = {
        atom.name: atom.variables for atom in plan.query.atoms
    }
    rounds: list[PlanRound] = []
    for round_number, plan_round in enumerate(plan.rounds, start=1):
        steps: list[HashRoute] = []
        views: list[ViewSpec] = []
        for step_index, plan_step in enumerate(plan_round.steps):
            step_query = plan_step.query
            cover = fractional_vertex_cover(step_query)
            exponents = share_exponents(step_query, cover)
            allocation = allocate_integer_shares(exponents, p)
            grid = GridSpec.from_shares(
                step_query.variables,
                allocation.shares,
                HashFamily(seed ^ (round_number << 20) ^ (step_index << 10)),
            )
            for atom in step_query.atoms:
                schema = schemas[atom.name]
                if schema != atom.variables:
                    raise ValueError(
                        f"schema mismatch for {atom.name}: "
                        f"{schema} vs {atom.variables}"
                    )
                steps.append(
                    HashRoute(
                        relation=atom.name,
                        destination=_step_key(plan_step, atom.name),
                        atom=atom,
                        grid=grid,
                        # Round 1: the input server for the relation
                        # routes its tuples (arbitrary round-1
                        # messages are allowed by the model).  Rounds
                        # >= 2 are tuple-based: a worker holding the
                        # join tuple forwards it by content; worker 0
                        # stands in for "some holder" and the receiver
                        # is charged the same bits either way.
                        sender=None if round_number == 1 else 0,
                    )
                )
            views.append(
                ViewSpec(
                    name=plan_step.output,
                    query=step_query,
                    key_map=tuple(
                        (atom.name, _step_key(plan_step, atom.name))
                        for atom in step_query.atoms
                    ),
                )
            )
            schemas[plan_step.output] = step_query.head
        rounds.append(PlanRound(steps=tuple(steps), views=tuple(views)))
    return Plan(
        signature=PlanSignature(
            algorithm="multiround",
            query_text=f"{plan.query}@eps={plan.eps}",
            eps=plan.eps,
            p=p,
            backend=resolve_backend(backend),
            seed=seed,
            capacity_c=capacity_c,
            enforce_capacity=enforce_capacity,
        ),
        rounds=tuple(rounds),
        finalize=FinalizeView(view=plan.output, head=plan.query.head),
        # Bits are charged uniformly at the database's domain width
        # for base relations and views alike (tuple-based discipline).
        uniform_domain_bits=True,
    )
