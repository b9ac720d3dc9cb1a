"""The physical plan IR: compile once, execute many times.

Every algorithm in :mod:`repro.algorithms` is split into a pure *plan
compiler* -- a function of the query and the MPC parameters only, never
of the data -- and plan *execution*
(:func:`repro.engine.executor.execute_plan`).  A :class:`Plan` is the
immutable value passed across that seam:

* an ordered program of rounds, each a tuple of
  :class:`~repro.engine.steps.RoutingStep`s plus the views to
  materialise after delivery (:class:`ViewSpec`) and any
  data-dependent binding to perform at execute time
  (:class:`HeavyBind` -- heavy-hitter detection is round-1 statistics
  work, so it belongs to execution, not compilation);
* a final local-evaluation spec (:class:`CollectAnswers` for one-shot
  queries, :class:`FinalizeView` for multi-round plans whose answer is
  a materialised view);
* metadata identifying the compilation: query text, ``eps``, ``p``,
  seed, capacity constants (:class:`PlanSignature`) and the
  integer share vector used.

Because compilation is deterministic and data-independent, a plan can
be cached keyed by its signature and re-executed against any database
over the same vocabulary -- the seam the serving layer
(:mod:`repro.serve`) builds on.  Executing the same plan twice on the
same database is bit-identical in answers, per-server loads and
capacity failures by construction.

A plan's round list is static.  An algorithm whose depth depends on
the data (hash-to-min connected components, Theorem 4.10) is not a
plan: its driver runs :class:`~repro.engine.executor.RoundEngine`
rounds directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from repro.core.query import ConjunctiveQuery
from repro.core.shares import ShareAllocation
from repro.engine.steps import HeavyGridRoute, RoutingStep

#: Pairs ``(atom name, mailbox key)`` -- the immutable form of the
#: ``key_of`` callables the local-evaluation helpers take.
KeyMap = tuple[tuple[str, str], ...]


def key_map_of(key_map: KeyMap) -> Callable[[str], str]:
    """A ``key_of`` callable from an immutable :data:`KeyMap`.

    Atom names absent from the map key their own name (identity), so
    an empty map is the common single-round case.
    """
    table = dict(key_map)
    return lambda name: table.get(name, name)


@dataclass(frozen=True)
class PlanSignature:
    """What a plan was compiled *for* -- the cache identity.

    Attributes:
        algorithm: compiler name (``"hypercube"``, ``"multiround"``,
            ...).
        query_text: canonical text of the compiled query (or logical
            plan) -- ``str(query)`` includes head order, atom order
            and variable names, all of which the routing depends on.
        eps: the space exponent of the capacity accounting.
        p: number of workers.
        seed: hash-family seed.
        capacity_c: the constant of the capacity bound.
        enforce_capacity: whether execution raises on overload.
    """

    algorithm: str
    query_text: str
    eps: Fraction
    p: int
    seed: int
    capacity_c: float
    enforce_capacity: bool

    @property
    def cache_key(self) -> tuple:
        """Hashable identity for plan / result caches."""
        return (
            self.algorithm,
            self.query_text,
            self.eps,
            self.p,
            self.seed,
            self.capacity_c,
            self.enforce_capacity,
        )


@dataclass(frozen=True)
class ViewSpec:
    """Materialise one operator's output view after a round delivers.

    Attributes:
        name: the view's name in the execution environment.
        query: the operator query evaluated at every worker; the
            view's schema is ``query.head``.
        key_map: mailbox key per atom (the multi-round executor
            namespaces step deliveries per operator).
    """

    name: str
    query: ConjunctiveQuery
    key_map: KeyMap = ()


@dataclass(frozen=True)
class HeavyBind:
    """Execute-time binding of heavy hitters into a round's steps.

    Heavy-hitter detection reads the data (legal round-1 statistics
    work, Section 2.4), so a HyperCube plan carries this declarative
    marker instead of baked-in heavy sets: before routing, the
    executor (and the oracle) detect heavy values under ``shares`` and
    route the round through :meth:`bind`.

    Attributes:
        query: the query whose atoms the round routes.
        shares: the share grid the heavy thresholds come from.
        roles: per variable, atom -> cartesian grid role (see
            :class:`~repro.engine.steps.HeavyGridRoute`).
    """

    query: ConjunctiveQuery
    shares: tuple[tuple[str, int], ...]
    roles: Mapping[str, Mapping[str, int] | None]

    def bind(
        self,
        steps: tuple[RoutingStep, ...],
        heavy: Mapping[str, frozenset[int]],
    ) -> tuple[RoutingStep, ...]:
        """The steps that route the round under ``heavy``.

        With every detected set empty these are ``steps`` themselves
        (plain HyperCube); otherwise one
        :class:`~repro.engine.steps.HeavyGridRoute` per step, on the
        step's grid and atom.
        """
        if not any(heavy.values()):
            return steps
        return tuple(
            HeavyGridRoute(
                relation=step.relation,
                atom=step.atom,
                grid=step.grid,
                heavy=heavy,
                roles=self.roles,
            )
            for step in steps
        )


@dataclass(frozen=True)
class PlanRound:
    """One communication round of a plan."""

    steps: tuple[RoutingStep, ...]
    views: tuple[ViewSpec, ...] = ()
    bind_heavy: HeavyBind | None = None


@dataclass(frozen=True)
class CollectAnswers:
    """Final local evaluation: join fragments at every worker, union.

    Attributes:
        query: the conjunctive query each worker evaluates.
        workers: evaluate workers ``0..workers-1`` (the grid's used
            servers); per-server counts are zero-padded to ``p``.
        key_map: mailbox key per atom (identity when empty).
    """

    query: ConjunctiveQuery
    workers: int
    key_map: KeyMap = ()


@dataclass(frozen=True)
class FinalizeView:
    """The answer is a materialised view, re-ordered to ``head``."""

    view: str
    head: tuple[str, ...]


@dataclass(frozen=True)
class Plan:
    """An immutable, data-independent physical plan.

    Attributes:
        signature: what the plan was compiled for (cache identity).
        rounds: the routing-step program, in execution order.
        finalize: how the answer is produced after the last round
            (None for plans whose caller post-processes the simulator
            directly, e.g. the cartesian-grid baseline).
        allocation: the integer share grid, when the algorithm uses
            one (diagnostics and result metadata).
        uniform_domain_bits: charge every source relation's tuples at
            the database's domain width (the tuple-based multi-round
            discipline where views and base tuples cost the same).
    """

    signature: PlanSignature
    rounds: tuple[PlanRound, ...] = ()
    finalize: CollectAnswers | FinalizeView | None = None
    allocation: ShareAllocation | None = None
    uniform_domain_bits: bool = False

    @property
    def num_rounds(self) -> int:
        """Static round count."""
        return len(self.rounds)

    def describe(self) -> dict:
        """Explain metadata: a JSON-friendly structural summary.

        The execution-side half of an explain report -- what the
        compiled program actually looks like (the planner's
        :class:`~repro.planner.Explain` covers the *why*).  Includes
        per-round step types and grids, view materialisations,
        heavy-hitter binding points, the finalize spec and the share
        vector.
        """
        rounds: list[dict] = []
        for plan_round in self.rounds:
            steps: list[dict] = []
            for step in plan_round.steps:
                entry: dict = {
                    "type": type(step).__name__,
                    "relation": step.relation,
                }
                if step.destination is not None:
                    entry["mailbox"] = step.destination
                grid = getattr(step, "grid", None)
                if grid is None:
                    inner = getattr(step, "inner", None)
                    grid = getattr(inner, "grid", None)
                if grid is not None:
                    entry["grid"] = dict(
                        zip(grid.variables, grid.dimensions)
                    )
                virtual = getattr(step, "virtual_size", None)
                if virtual is not None:
                    entry["virtual_grid_points"] = virtual
                steps.append(entry)
            round_entry: dict = {"steps": steps}
            if plan_round.views:
                round_entry["views"] = [
                    view.name for view in plan_round.views
                ]
            if plan_round.bind_heavy is not None:
                round_entry["binds_heavy_hitters"] = True
            rounds.append(round_entry)
        finalize: dict | None = None
        if isinstance(self.finalize, CollectAnswers):
            finalize = {
                "type": "CollectAnswers",
                "workers": self.finalize.workers,
            }
        elif isinstance(self.finalize, FinalizeView):
            finalize = {
                "type": "FinalizeView",
                "view": self.finalize.view,
                "head": list(self.finalize.head),
            }
        signature = self.signature
        return {
            "algorithm": signature.algorithm,
            "query": signature.query_text,
            "eps": str(signature.eps),
            "p": signature.p,
            "seed": signature.seed,
            "rounds": rounds,
            "num_rounds": self.num_rounds,
            "finalize": finalize,
            "shares": dict(self.allocation.shares)
            if self.allocation is not None
            else None,
        }

    def relations(self) -> tuple[str, ...]:
        """Source relations the plan reads from the database.

        View names produced by earlier rounds are excluded: only names
        the *database* must provide are returned (the keys a serving
        rebind must map).
        """
        produced: set[str] = set()
        needed: list[str] = []
        for plan_round in self.rounds:
            for step in plan_round.steps:
                if step.relation not in produced and step.relation not in needed:
                    needed.append(step.relation)
            for view in plan_round.views:
                produced.add(view.name)
        return tuple(needed)
