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
not predict wall-clock.  Each makes a version-free :data:`Bid` from
the query alone (eligibility, rounds, shares, the load formula's
divisor), once per statement; the bid maps a data profile to a
:class:`CostEstimate` whose ``predicted_load`` is the paper's
per-worker tuple count for the algorithm (``O(n / p^{1/tau*})`` for
one-round HyperCube by Theorem 1.1 / Proposition 3.2, ``O(n / p)`` per
round for multi-round plans at ``eps = 0``) corrected by the data
profile's skew statistics, and whose ``cost`` adds the planner's
round penalty so that a lower-load multi-round plan must beat
one-round HC by enough to pay for its extra synchronisation barriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable

from repro.algorithms.hypercube import compile_hypercube
from repro.core.covers import fractional_vertex_cover, space_exponent
from repro.core.plans import build_plan
from repro.core.query import ConjunctiveQuery, QueryError
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.engine.plan import Plan

#: Extra weight a multi-round plan pays per communication round over a
#: one-round algorithm (synchronisation barriers, view shipping).  At
#: 3/2, matching-database staples (two-atom joins, C_3) stay on
#: HyperCube while chains of four or more atoms -- whose ``tau*`` grows
#: linearly and whose one-round load decays only as ``p^{2/k}`` --
#: switch to the logarithmic-depth multi-round plan.
ROUND_PENALTY = 1.5


@dataclass(frozen=True)
class DataProfile:
    """What the planner knows about the data, and nothing more.

    :func:`repro.planner.stats.collect_profile` builds it; the cost
    models below read it.

    Attributes:
        relation_rows: per relation of the query, its cardinality.
        total_rows: sum of the above (the paper's ``n`` stands in for
            this in load formulas).
        heavy_values: per variable, how many distinct heavy values the
            skew sample found (a value is heavy when it appears more
            often than ``|S| / share`` -- a balanced hash bucket).
        heavy_multiplicities: per variable, the multiplicity of its
            most frequent heavy value (scaled back up when sampled).
        sampled: True when any relation was stride-sampled.
        shares: the grid the skew sample's thresholds come from (the
            query's own HC shares at the profiling worker count);
            data-free, so a later profile of the query reuses it.
    """

    relation_rows: tuple[tuple[str, int], ...]
    total_rows: int
    heavy_values: tuple[tuple[str, int], ...]
    heavy_multiplicities: tuple[tuple[str, int], ...]
    sampled: bool
    shares: tuple[tuple[str, int], ...] = ()

    def heavy_multiplicity(self, variable: str) -> int:
        """Most frequent heavy multiplicity on ``variable`` (0 if none)."""
        return dict(self.heavy_multiplicities).get(variable, 0)


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
            capacity_c, enforce_capacity) -> Plan``: the module-level
            ``compile_*`` function, wrapped for multi-round (building
            the logical plan) and partial (dropping unsupported
            parameters).
        bid: declared cost model ``(query, p, eps) -> Bid``: the
            version-free half, which the planner builds once per
            statement and re-evaluates on each new data profile.
        default_capacity_c: the capacity constant ``capacity_c=None``
            resolves to in :func:`compile_with` (the module-level
            compiler's own default).
        exact: False for algorithms that report only a subset of the
            answer (the below-threshold partial algorithm); the
            planner never auto-picks inexact algorithms unless the
            statement opts in.
    """

    name: str
    compile: Callable[..., Plan]
    bid: Callable[[ConjunctiveQuery, int, Fraction | None], Bid]
    default_capacity_c: float
    exact: bool = True


#: A cost model's version-free bid for one ``(query, p, eps)``: what
#: the query alone decides is fixed when the bid is made, once per
#: statement, and the bid maps each data profile to an estimate.
Bid = Callable[[DataProfile], CostEstimate]


def ineligible(reason: str) -> Bid:
    """A bid that can never win, whatever the data."""
    estimate = CostEstimate(
        eligible=False,
        cost=float("inf"),
        predicted_load=float("inf"),
        rounds=0,
        shares=None,
        reason=reason,
    )
    return lambda profile: estimate


def _hc_base(
    query: ConjunctiveQuery, p: int
) -> tuple[float, tuple[tuple[str, int], ...], Fraction]:
    """(load divisor ``p^{1/tau*}``, integer shares, tau*) for HC."""
    cover = fractional_vertex_cover(query)
    tau = sum((Fraction(v) for v in cover.values()), start=Fraction(0))
    allocation = allocate_integer_shares(share_exponents(query, cover), p)
    tau = max(tau, Fraction(1))
    divisor = float(p) ** float(1 / tau)
    return divisor, tuple(sorted(allocation.shares.items())), tau


def _hypercube_bid(
    query: ConjunctiveQuery, p: int, eps: Fraction | None
) -> Bid:
    """One-round HC: ``n / p^{1/tau*}``, or its heaviest split value.

    A heavy value on a dimension with share ``p_v`` is bound at
    execution and split over a ``g1 x g2`` sub-grid, so it raises the
    predicted load only to ``multiplicity / isqrt(p_v)`` (the [17]
    cartesian split).  Below the query's space exponent a one-round
    algorithm cannot report the full answer (Theorem 3.3), so HC is
    ineligible there.
    """
    query_eps = space_exponent(query)
    if eps is not None and eps < query_eps:
        return ineligible(
            f"one round needs eps >= {query_eps} (Theorem 3.3); "
            f"got {eps}"
        )
    divisor, shares, tau = _hc_base(query, p)
    split = [(v, max(1, isqrt(s))) for v, s in shares if s > 1]

    def estimate(profile: DataProfile) -> CostEstimate:
        base = profile.total_rows / divisor
        heavy = max(
            (profile.heavy_multiplicity(v) / width for v, width in split),
            default=0.0,
        )
        load = max(base, heavy)
        return CostEstimate(
            eligible=True,
            cost=load,
            predicted_load=load,
            rounds=1,
            shares=shares,
            reason=f"one round at load n/p^(1/{tau})"
            + (
                f", heavy values split over sub-grids at {heavy:g}"
                if heavy > base
                else ""
            ),
        )

    return estimate


def _multiround_bid(
    query: ConjunctiveQuery, p: int, eps: Fraction | None
) -> Bid:
    """Multi-round plan: depth rounds at ``n / p`` each (Prop. 4.1)."""
    eps_mr = Fraction(0) if eps is None else Fraction(eps)
    try:
        logical = build_plan(query, eps_mr)
    except QueryError as error:
        return ineligible(f"no multi-round plan: {error}")
    depth = logical.depth
    divisor = float(p) ** float(1 - eps_mr)
    reason = (
        f"depth-{depth} plan at eps={eps_mr}, "
        f"load n/p^{float(1 - eps_mr):g} per round"
    )

    def estimate(profile: DataProfile) -> CostEstimate:
        load = profile.total_rows / divisor
        return CostEstimate(
            eligible=True,
            cost=depth * ROUND_PENALTY * load,
            predicted_load=load,
            rounds=depth,
            shares=None,
            reason=reason,
        )

    return estimate


def _partial_bid(
    query: ConjunctiveQuery, p: int, eps: Fraction | None
) -> Bid:
    """Below-threshold partial HC: one round, a fraction of answers.

    Only meaningful when the statement pins ``eps`` *below* the
    query's space exponent -- at or above it, plain HC reports
    everything at the same budget.
    """
    if eps is None:
        return ineligible("partial answers need an explicit eps")
    if not query.is_connected:
        return ineligible("partial coverage needs a connected query")
    query_eps = space_exponent(query)
    if Fraction(eps) >= query_eps:
        return ineligible(
            f"eps {eps} >= space exponent {query_eps}: plain HC "
            "reports every answer"
        )
    divisor = float(p) ** float(1 - Fraction(eps))

    def estimate(profile: DataProfile) -> CostEstimate:
        load = profile.total_rows / divisor
        return CostEstimate(
            eligible=True,
            cost=load,
            predicted_load=load,
            rounds=1,
            shares=None,
            reason=f"one round under budget eps={eps}; reports ~"
            f"p^(1-(1-eps)tau*) of the answers (Prop. 3.11)",
        )

    return estimate


def _compile_multiround(
    query: ConjunctiveQuery,
    p: int,
    *,
    eps: Fraction | None,
    seed: int,
    capacity_c: float,
    enforce_capacity: bool,
) -> Plan:
    from repro.algorithms.multiround import compile_multiround

    logical = build_plan(query, Fraction(0) if eps is None else Fraction(eps))
    return compile_multiround(
        logical,
        p,
        seed=seed,
        capacity_c=capacity_c,
        enforce_capacity=enforce_capacity,
    )


def _compile_partial(
    query: ConjunctiveQuery,
    p: int,
    *,
    eps: Fraction | None,
    seed: int,
    capacity_c: float,
    enforce_capacity: bool,
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
        query, p, eps, seed=seed, capacity_c=capacity_c
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
) -> Plan:
    """Compile ``query`` with the named algorithm's registered compiler.

    ``capacity_c=None`` resolves to the algorithm's registered
    default.  Paired with :func:`~repro.engine.executor.execute_plan`
    this is the pinned, cache-free way to run a query (parity suites
    and benchmarks); everything else goes through
    :func:`repro.connect`.
    """
    spec = get_algorithm(name)
    return spec.compile(
        query,
        p,
        eps=eps,
        seed=seed,
        capacity_c=spec.default_capacity_c if capacity_c is None
        else capacity_c,
        enforce_capacity=enforce_capacity,
    )


register(
    AlgorithmSpec(
        name="hypercube",
        compile=compile_hypercube,
        bid=_hypercube_bid,
        default_capacity_c=4.0,
    )
)
register(
    AlgorithmSpec(
        name="multiround",
        compile=_compile_multiround,
        bid=_multiround_bid,
        default_capacity_c=8.0,
    )
)
register(
    AlgorithmSpec(
        name="partial",
        compile=_compile_partial,
        bid=_partial_bid,
        default_capacity_c=4.0,
        exact=False,
    )
)
