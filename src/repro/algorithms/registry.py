"""The algorithm registry: one table of compilers with cost models.

Every query-answering algorithm in the repository is registered here
as an :class:`AlgorithmSpec` -- a uniform ``compile(query, p, ...)``
entry point over the per-module ``compile_*`` functions plus a
*declared cost model* the planner (:mod:`repro.planner`) uses to
choose between them.  The registry is the single source of truth for
"what can answer a conjunctive query": the planner iterates it, the
CLI dispatches through it, and :class:`~repro.serve.service.QueryService`
compiles through it.

Cost models are deliberately coarse -- they rank algorithms, they do
not predict wall-clock.  Each returns a :class:`CostEstimate` whose
``predicted_load`` is the paper's per-worker tuple count for the
algorithm (``O(n / p^{1/tau*})`` for one-round HyperCube by
Theorem 1.1 / Proposition 3.2, ``O(n / p)`` per round for multi-round
plans at ``eps = 0``) corrected by the data profile's skew statistics,
and whose ``cost`` adds the planner's round penalty so that a
lower-load multi-round plan must beat one-round HC by enough to pay
for its extra synchronisation barriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.covers import fractional_vertex_cover, space_exponent
from repro.core.plans import build_plan
from repro.core.query import ConjunctiveQuery, QueryError
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.engine.plan import Plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.planner.stats import DataProfile

#: Extra weight a multi-round plan pays per communication round over a
#: one-round algorithm (synchronisation barriers, view shipping).  At
#: 3/2, matching-database staples (two-atom joins, C_3) stay on
#: HyperCube while chains of four or more atoms -- whose ``tau*`` grows
#: linearly and whose one-round load decays only as ``p^{2/k}`` --
#: switch to the logarithmic-depth multi-round plan.
ROUND_PENALTY = 1.5

#: Mild multiplier steering ties away from skew-aware routing: on
#: skew-free data its routing degenerates to plain HC, so plain HC
#: wins unless the profile actually found heavy hitters.
SKEW_TIEBREAK = 1.05

#: Single source of the per-algorithm capacity defaults (each module's
#: own ``compile_*`` default), consumed by both the compile wrappers
#: (resolving ``capacity_c=None``) and each spec's
#: ``default_capacity_c``.
_CAPACITY_DEFAULTS = {
    "hypercube": 4.0,
    "skewaware": 4.0,
    "multiround": 8.0,
    "partial": 4.0,
}


@dataclass(frozen=True)
class CostEstimate:
    """One algorithm's bid for a query under a data profile.

    Attributes:
        eligible: the algorithm can answer this (query, eps) at all;
            ineligible bids are reported in explains but never chosen.
        cost: comparable score, lower wins (predicted load x round
            penalties); ``inf`` when ineligible.
        predicted_load: predicted per-worker tuples of the heaviest
            round (the paper's load measure ``L``).
        rounds: predicted communication rounds.
        shares: the integer share vector the algorithm would route on
            (None when it has no single grid, e.g. multi-round plans).
        reason: one line of why -- surfaced verbatim in explains.
    """

    eligible: bool
    cost: float
    predicted_load: float
    rounds: int
    shares: tuple[tuple[str, int], ...] | None
    reason: str


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm.

    Attributes:
        name: registry key (``"hypercube"``, ``"multiround"``, ...).
        compile: uniform compiler ``(query, p, *, eps, seed,
            capacity_c, enforce_capacity, backend) -> Plan``; wraps
            the module-level ``compile_*`` function (building the
            logical plan for multi-round, dropping unsupported
            parameters for partial).
        cost: declared cost model ``(query, profile, p, eps) ->
            CostEstimate`` consumed by the planner.
        default_capacity_c: the capacity constant ``capacity_c=None``
            resolves to (the module-level compiler's own default).
        exact: False for algorithms that report only a subset of the
            answer (the below-threshold partial algorithm); the
            planner never auto-picks inexact algorithms unless the
            statement opts in.
    """

    name: str
    compile: Callable[..., Plan]
    cost: Callable[
        [ConjunctiveQuery, "DataProfile", int, Fraction | None], CostEstimate
    ]
    default_capacity_c: float
    exact: bool = True


def _ineligible(reason: str) -> CostEstimate:
    return CostEstimate(
        eligible=False,
        cost=float("inf"),
        predicted_load=float("inf"),
        rounds=0,
        shares=None,
        reason=reason,
    )


def _hc_base(
    query: ConjunctiveQuery, profile: "DataProfile", p: int
) -> tuple[float, tuple[tuple[str, int], ...], Fraction]:
    """(skew-free one-round load, integer shares, tau*) for HC routing."""
    cover = fractional_vertex_cover(query)
    tau = sum((Fraction(v) for v in cover.values()), start=Fraction(0))
    allocation = allocate_integer_shares(share_exponents(query, cover), p)
    tau = max(tau, Fraction(1))
    load = profile.total_rows / float(p) ** float(1 / tau)
    return load, tuple(sorted(allocation.shares.items())), tau


def _hypercube_cost(
    query: ConjunctiveQuery,
    profile: "DataProfile",
    p: int,
    eps: Fraction | None,
) -> CostEstimate:
    """One-round HC: ``n / p^{1/tau*}`` plus full skew concentration.

    A heavy value on a dimension with share ``p_v`` pins all its
    tuples to one grid slice, so the predicted load is raised to the
    heaviest multiplicity the profile sampled.  Below the query's
    space exponent a one-round algorithm cannot report the full answer
    (Theorem 3.3), so HC is ineligible there.
    """
    query_eps = space_exponent(query)
    if eps is not None and eps < query_eps:
        return _ineligible(
            f"one round needs eps >= {query_eps} (Theorem 3.3); "
            f"got {eps}"
        )
    base, shares, tau = _hc_base(query, profile, p)
    heavy = max(
        (profile.heavy_multiplicity(v) for v, s in shares if s > 1),
        default=0,
    )
    load = max(base, float(heavy))
    return CostEstimate(
        eligible=True,
        cost=load,
        predicted_load=load,
        rounds=1,
        shares=shares,
        reason=f"one round at load n/p^(1/{tau})"
        + (f", skew raises load to {heavy}" if heavy > base else ""),
    )


def _skewaware_cost(
    query: ConjunctiveQuery,
    profile: "DataProfile",
    p: int,
    eps: Fraction | None,
) -> CostEstimate:
    """Skew-aware HC: heavy values spread over a ``g1 x g2`` sub-grid.

    The heavy term drops from the full multiplicity to
    ``multiplicity / isqrt(p_v)`` (the [17] cartesian split); a small
    tie-break keeps plain HC ahead on skew-free data where the two
    algorithms route identically.
    """
    query_eps = space_exponent(query)
    if eps is not None and eps < query_eps:
        return _ineligible(
            f"one round needs eps >= {query_eps} (Theorem 3.3); "
            f"got {eps}"
        )
    base, shares, tau = _hc_base(query, profile, p)
    heavy = 0.0
    for variable, share in shares:
        if share <= 1:
            continue
        multiplicity = profile.heavy_multiplicity(variable)
        if multiplicity:
            heavy = max(heavy, multiplicity / max(1, isqrt(share)))
    load = max(base, heavy)
    return CostEstimate(
        eligible=True,
        cost=load * SKEW_TIEBREAK,
        predicted_load=load,
        rounds=1,
        shares=shares,
        reason="heavy values split over cartesian sub-grids"
        if profile.has_skew
        else "no heavy hitters sampled; routing equals plain HC",
    )


def _multiround_cost(
    query: ConjunctiveQuery,
    profile: "DataProfile",
    p: int,
    eps: Fraction | None,
) -> CostEstimate:
    """Multi-round plan: depth rounds at ``n / p`` each (Prop. 4.1)."""
    eps_mr = Fraction(0) if eps is None else Fraction(eps)
    try:
        logical = build_plan(query, eps_mr)
    except QueryError as error:
        return _ineligible(f"no multi-round plan: {error}")
    depth = logical.depth
    load = profile.total_rows / float(p) ** float(1 - eps_mr)
    return CostEstimate(
        eligible=True,
        cost=depth * ROUND_PENALTY * load,
        predicted_load=load,
        rounds=depth,
        shares=None,
        reason=f"depth-{depth} plan at eps={eps_mr}, "
        f"load n/p^{float(1 - eps_mr):g} per round",
    )


def _partial_cost(
    query: ConjunctiveQuery,
    profile: "DataProfile",
    p: int,
    eps: Fraction | None,
) -> CostEstimate:
    """Below-threshold partial HC: one round, a fraction of answers.

    Only meaningful when the statement pins ``eps`` *below* the
    query's space exponent -- at or above it, plain HC reports
    everything at the same budget.
    """
    if eps is None:
        return _ineligible("partial answers need an explicit eps")
    if not query.is_connected:
        return _ineligible("partial coverage needs a connected query")
    query_eps = space_exponent(query)
    if Fraction(eps) >= query_eps:
        return _ineligible(
            f"eps {eps} >= space exponent {query_eps}: plain HC "
            "reports every answer"
        )
    load = profile.total_rows / float(p) ** float(1 - Fraction(eps))
    return CostEstimate(
        eligible=True,
        cost=load,
        predicted_load=load,
        rounds=1,
        shares=None,
        reason=f"one round under budget eps={eps}; reports ~"
        f"p^(1-(1-eps)tau*) of the answers (Prop. 3.11)",
    )


def _compile_hypercube(
    query: ConjunctiveQuery,
    p: int,
    *,
    eps: Fraction | None = None,
    seed: int = 0,
    capacity_c: float | None = None,
    enforce_capacity: bool = False,
    backend: str | None = None,
) -> Plan:
    from repro.algorithms.hypercube import compile_hypercube

    return compile_hypercube(
        query,
        p,
        eps=eps,
        seed=seed,
        capacity_c=_CAPACITY_DEFAULTS["hypercube"]
        if capacity_c is None
        else capacity_c,
        enforce_capacity=enforce_capacity,
        backend=backend,
    )


def _compile_skew_aware(
    query: ConjunctiveQuery,
    p: int,
    *,
    eps: Fraction | None = None,
    seed: int = 0,
    capacity_c: float | None = None,
    enforce_capacity: bool = False,
    backend: str | None = None,
) -> Plan:
    from repro.algorithms.skewaware import compile_skew_aware

    return compile_skew_aware(
        query,
        p,
        eps=eps,
        seed=seed,
        capacity_c=_CAPACITY_DEFAULTS["skewaware"]
        if capacity_c is None
        else capacity_c,
        enforce_capacity=enforce_capacity,
        backend=backend,
    )


def _compile_multiround(
    query: ConjunctiveQuery,
    p: int,
    *,
    eps: Fraction | None = None,
    seed: int = 0,
    capacity_c: float | None = None,
    enforce_capacity: bool = False,
    backend: str | None = None,
) -> Plan:
    from repro.algorithms.multiround import compile_multiround

    logical = build_plan(query, Fraction(0) if eps is None else Fraction(eps))
    return compile_multiround(
        logical,
        p,
        seed=seed,
        capacity_c=_CAPACITY_DEFAULTS["multiround"]
        if capacity_c is None
        else capacity_c,
        enforce_capacity=enforce_capacity,
        backend=backend,
    )


def _compile_partial(
    query: ConjunctiveQuery,
    p: int,
    *,
    eps: Fraction | None = None,
    seed: int = 0,
    capacity_c: float | None = None,
    enforce_capacity: bool = False,
    backend: str | None = None,
) -> Plan:
    from repro.algorithms.partial import compile_partial_hypercube

    if eps is None:
        raise QueryError("the partial algorithm requires an explicit eps")
    if enforce_capacity:
        raise QueryError(
            "the partial algorithm never enforces capacity (it runs "
            "below the space exponent by design)"
        )
    return compile_partial_hypercube(
        query,
        p,
        eps,
        seed=seed,
        capacity_c=_CAPACITY_DEFAULTS["partial"]
        if capacity_c is None
        else capacity_c,
        backend=backend,
    )


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Install (or replace) one algorithm in the registry."""
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """The registered spec for ``name``.

    Raises:
        QueryError: for unknown names (the message lists the options,
            so CLI/RPC callers can surface it verbatim).
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise QueryError(
            f"unknown algorithm {name!r}; registered: "
            f"{', '.join(algorithm_names())}"
        )
    return spec


def algorithm_names() -> tuple[str, ...]:
    """Registered algorithm names, sorted."""
    return tuple(sorted(_REGISTRY))


def compile_with(
    name: str,
    query: ConjunctiveQuery,
    p: int,
    *,
    eps: Fraction | None = None,
    seed: int = 0,
    capacity_c: float | None = None,
    enforce_capacity: bool = False,
    backend: str | None = None,
) -> Plan:
    """Compile ``query`` with the named algorithm's registered compiler.

    ``capacity_c=None`` resolves to the algorithm's registered
    default.  Paired with :func:`~repro.engine.executor.execute_plan`
    this is the pinned, cache-free way to run a query (parity suites,
    benchmarks, ``repro run|run-plan|skew``); everything else goes
    through :func:`repro.connect`.
    """
    return get_algorithm(name).compile(
        query,
        p,
        eps=eps,
        seed=seed,
        capacity_c=capacity_c,
        enforce_capacity=enforce_capacity,
        backend=backend,
    )


register(
    AlgorithmSpec(
        name="hypercube",
        compile=_compile_hypercube,
        cost=_hypercube_cost,
        default_capacity_c=_CAPACITY_DEFAULTS["hypercube"],
    )
)
register(
    AlgorithmSpec(
        name="skewaware",
        compile=_compile_skew_aware,
        cost=_skewaware_cost,
        default_capacity_c=_CAPACITY_DEFAULTS["skewaware"],
    )
)
register(
    AlgorithmSpec(
        name="multiround",
        compile=_compile_multiround,
        cost=_multiround_cost,
        default_capacity_c=_CAPACITY_DEFAULTS["multiround"],
    )
)
register(
    AlgorithmSpec(
        name="partial",
        compile=_compile_partial,
        cost=_partial_cost,
        default_capacity_c=_CAPACITY_DEFAULTS["partial"],
        exact=False,
    )
)
