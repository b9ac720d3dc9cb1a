"""The cost-based planner: query + data profile -> algorithm choice.

The Beame-Koutris-Suciu results are *choices* -- one round or many,
which share vector, full or partial answers -- and the planner makes
them automatically so callers never have to name an algorithm:

1. collect every registered algorithm's :class:`CostEstimate`: its
   declared cost model (:mod:`repro.algorithms.registry`) bids from the
   query alone, once per statement (:class:`Bids`), and each decision
   evaluates those bids on the statement's current
   :class:`~repro.algorithms.registry.DataProfile`;
2. drop ineligible bids (one-round algorithms below the query's space
   exponent, inexact algorithms unless the statement opted in, plans
   that do not exist at the requested ``eps``);
3. pick the cheapest bid, ties broken by registry order
   (hypercube first -- the paper's default).

Every choice carries an :class:`Explain` report: the chosen algorithm
and shares, the predicted rounds/load, the paper's bounds for the
query (``tau*``, space exponent, round bounds at the effective
``eps``), and each candidate's bid -- so ``.explain()`` answers not
just *what* was chosen but *what it beat and why*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from repro.algorithms.registry import (
    Bid,
    CostEstimate,
    DataProfile,
    algorithm_names,
    get_algorithm,
    ineligible,
)
from repro.core.bounds import round_lower_bound, round_upper_bound
from repro.core.covers import covering_number
from repro.core.query import ConjunctiveQuery, QueryError
from repro.serve.metrics import counter

#: Preference order for cost ties (the paper's defaults first).
_TIE_ORDER = ("hypercube", "multiround", "partial")


@dataclass(frozen=True)
class Candidate:
    """One algorithm's bid, as reported in an explain."""

    algorithm: str
    eligible: bool
    cost: float
    predicted_load: float
    rounds: int
    reason: str


@dataclass(frozen=True)
class Explain:
    """Why the planner routed a statement the way it did.

    Attributes:
        query_text: canonical text of the statement's query.
        algorithm: the chosen registry name.
        eps_requested: the statement's ``eps`` (None = automatic).
        eps_effective: the ``eps`` the compiled plan will carry.
        p: the worker count the choice was made for.
        tau_star: the query's fractional covering number.
        space_exponent: ``1 - 1/tau*`` (Theorem 1.1) -- the smallest
            budget any one-round algorithm can answer fully at.
        predicted_rounds: rounds the chosen algorithm will take.
        predicted_load: predicted per-worker tuples of the heaviest
            round.
        round_bounds: the paper's (lower, upper) round bounds at the
            effective eps (None for disconnected queries).
        shares: the integer share vector of the chosen route (None for
            multi-round plans, whose operators each own a grid).
        heavy_values: per variable, how many heavy values the skew
            sample found (only non-zero entries).
        candidates: every algorithm's bid, chosen first.
        profile_sampled: the skew statistics came from a stride
            sample, not a full scan.
        pinned: the statement named the algorithm explicitly -- the
            costs are reported but did not decide.
        ivm: how incremental view maintenance served the execution
            that produced this explain: ``"merged"`` when the answer
            came from a delta merge, a named fallback reason when the
            full path ran instead, or None when IVM was not consulted
            (first execution at a version, cache hit, or IVM off).
            Always None on a pre-execution ``.explain()``.
    """

    query_text: str
    algorithm: str
    eps_requested: Fraction | None
    eps_effective: Fraction | None
    p: int
    tau_star: Fraction
    space_exponent: Fraction
    predicted_rounds: int
    predicted_load: float
    round_bounds: tuple[int, int] | None
    shares: tuple[tuple[str, int], ...] | None
    heavy_values: tuple[tuple[str, int], ...]
    candidates: tuple[Candidate, ...]
    profile_sampled: bool
    pinned: bool
    ivm: str | None = None

    def to_dict(self) -> dict:
        """A JSON-friendly rendering (the RPC ``explain`` payload)."""
        return {
            "query": self.query_text,
            "algorithm": self.algorithm,
            "eps_requested": _frac_str(self.eps_requested),
            "eps_effective": _frac_str(self.eps_effective),
            "p": self.p,
            "tau_star": _frac_str(self.tau_star),
            "space_exponent": _frac_str(self.space_exponent),
            "predicted_rounds": self.predicted_rounds,
            "predicted_load": self.predicted_load,
            "round_bounds": list(self.round_bounds)
            if self.round_bounds
            else None,
            "shares": dict(self.shares) if self.shares else None,
            "heavy_values": dict(self.heavy_values),
            "profile_sampled": self.profile_sampled,
            "pinned": self.pinned,
            "ivm": self.ivm,
            "candidates": [
                {
                    "algorithm": candidate.algorithm,
                    "eligible": candidate.eligible,
                    "cost": candidate.cost,
                    "predicted_load": candidate.predicted_load,
                    "rounds": candidate.rounds,
                    "reason": candidate.reason,
                }
                for candidate in self.candidates
            ],
        }

    def format(self) -> str:
        """Human-readable report (the CLI's ``repro explain``)."""
        from repro.analysis.reporting import format_table

        rows = [
            ["query", self.query_text],
            ["chosen algorithm", self.algorithm
             + (" (pinned by caller)" if self.pinned else "")],
            ["p (servers)", self.p],
            ["eps requested", _frac_str(self.eps_requested) or "auto"],
            ["eps effective", _frac_str(self.eps_effective) or "per-query"],
            ["tau* (covering number)", self.tau_star],
            ["space exponent (Thm 1.1)", self.space_exponent],
            ["predicted rounds", self.predicted_rounds],
            ["predicted load (tuples/worker)",
             f"{self.predicted_load:.1f}"],
        ]
        if self.round_bounds is not None:
            rows.append(
                ["paper round bounds (lower, upper)", self.round_bounds]
            )
        if self.shares is not None:
            rows.append(["shares", dict(self.shares)])
        heavy = {v: c for v, c in self.heavy_values if c}
        rows.append(
            ["heavy values sampled", heavy or "none"]
        )
        if self.ivm is not None:
            rows.append(["incremental maintenance", self.ivm])
        header = format_table(["property", "value"], rows)
        bids = format_table(
            ["candidate", "eligible", "cost", "load", "rounds", "why"],
            [
                [
                    candidate.algorithm,
                    "yes" if candidate.eligible else "no",
                    "inf" if candidate.cost == float("inf")
                    else f"{candidate.cost:.1f}",
                    "inf" if candidate.predicted_load == float("inf")
                    else f"{candidate.predicted_load:.1f}",
                    candidate.rounds,
                    candidate.reason,
                ]
                for candidate in self.candidates
            ],
            title="planner bids (chosen first)",
        )
        return f"{header}\n\n{bids}"


def _frac_str(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


@dataclass(frozen=True)
class Bids:
    """A statement's version-free half of a decision, built from the
    query alone: a decision at a later database version re-evaluates
    these on the new profile instead of re-deriving them.

    Attributes:
        bids: every registered algorithm's bid, in tie order.
        tau_star / space_exponent: ``tau*`` and ``1 - 1/tau*``.
        round_bounds: the paper's round bounds at each effective eps
            a decision has chosen so far.
    """

    bids: tuple[tuple[str, Bid], ...]
    tau_star: Fraction
    space_exponent: Fraction
    round_bounds: tuple[
        tuple[Fraction | None, tuple[int, int] | None], ...
    ]


@dataclass(frozen=True)
class PlannerChoice:
    """The planner's routing decision for one statement.

    ``eps`` is what the compiler should be called with (None lets the
    algorithm use its own per-query default, matching a bare
    ``compile_with`` call).  A later decision for the same statement
    reuses its ``bids`` and its ``profile``'s sampling grid.
    """

    algorithm: str
    eps: Fraction | None
    explain: Explain
    bids: Bids
    profile: DataProfile


@dataclass
class PlannerStats:
    """Counters for observability: what the planner has been choosing."""

    stats_section = "planner"

    decisions: int = counter(
        "planner_decisions_total", "Fresh planner decisions."
    ).field()
    pinned: int = counter(
        "planner_pinned_total", "Decisions pinned to one algorithm."
    ).field()
    decision_cache_hits: int = counter(
        "planner_decision_cache_hits_total",
        "Statements served by a cached planner decision.",
    ).field()
    by_algorithm: dict[str, int] = counter(
        "planner_choices_total",
        "Planner decisions, by chosen algorithm.",
        label="algorithm",
    ).field(dict)

    def record(self, choice: PlannerChoice) -> None:
        self.decisions += 1
        if choice.explain.pinned:
            self.pinned += 1
        self.by_algorithm[choice.algorithm] = (
            self.by_algorithm.get(choice.algorithm, 0) + 1
        )


class Planner:
    """Chooses the algorithm (and eps) for each statement.

    Args:
        p: worker count every choice is made for.
        stats: shared counters (a session passes its own).
    """

    def __init__(
        self,
        p: int,
        stats: PlannerStats | None = None,
    ) -> None:
        self.p = p
        self.stats = stats if stats is not None else PlannerStats()

    def choose(
        self,
        query: ConjunctiveQuery,
        profile: DataProfile,
        *,
        eps: Fraction | None = None,
        algorithm: str | None = None,
        allow_partial: bool = False,
        bids: Bids | None = None,
    ) -> PlannerChoice:
        """Route one statement.

        Args:
            query: the parsed statement query.
            profile: data statistics for the current database version.
            eps: optional pinned space exponent; None = automatic
                (one-round algorithms use the query's own exponent,
                multi-round plans use 0).
            algorithm: optional pinned registry name -- skips the cost
                duel but still produces a full explain.
            allow_partial: permit the inexact below-threshold
                algorithm to win (it can only win when ``eps`` is
                pinned below the query's space exponent).
            bids: the :attr:`PlannerChoice.bids` of an earlier choice
                for the same statement; None builds them.

        Raises:
            QueryError: unknown pinned algorithm, or no eligible
                algorithm at the pinned ``eps``.
        """
        eps = None if eps is None else Fraction(eps)
        if algorithm is not None:
            get_algorithm(algorithm)  # raises on unknown names
        if bids is None:
            bids = self._bids(query, eps)
        estimates: dict[str, CostEstimate] = {}
        for name, bid in bids.bids:
            estimate = bid(profile)
            if estimate.eligible and not get_algorithm(name).exact and not (
                allow_partial or algorithm == name
            ):
                estimate = replace(
                    estimate,
                    eligible=False,
                    cost=float("inf"),
                    reason="inexact (partial answers); pass "
                    "allow_partial=True to opt in",
                )
            estimates[name] = estimate
        candidates = [
            Candidate(
                algorithm=name,
                eligible=estimate.eligible,
                cost=estimate.cost,
                predicted_load=estimate.predicted_load,
                rounds=estimate.rounds,
                reason=estimate.reason,
            )
            for name, estimate in estimates.items()
        ]

        if algorithm is not None:
            chosen = algorithm
        else:
            eligible = [bid for bid in candidates if bid.eligible]
            if not eligible:
                reasons = "; ".join(
                    f"{bid.algorithm}: {bid.reason}" for bid in candidates
                )
                raise QueryError(
                    f"no algorithm can answer {query} at eps={eps} "
                    f"({reasons})"
                )
            chosen = min(eligible, key=lambda bid: bid.cost).algorithm

        chosen_bid = estimates[chosen]
        eps_effective = self._effective_eps(
            chosen, eps, bids.space_exponent
        )
        round_bounds = dict(bids.round_bounds)
        if eps_effective not in round_bounds:
            round_bounds[eps_effective] = _round_bounds(query, eps_effective)
            bids = replace(bids, round_bounds=tuple(round_bounds.items()))
        explain = Explain(
            query_text=str(query),
            algorithm=chosen,
            eps_requested=eps,
            eps_effective=eps_effective,
            p=self.p,
            tau_star=bids.tau_star,
            space_exponent=bids.space_exponent,
            predicted_rounds=chosen_bid.rounds,
            predicted_load=chosen_bid.predicted_load,
            round_bounds=round_bounds[eps_effective],
            shares=chosen_bid.shares,
            heavy_values=profile.heavy_values,
            candidates=tuple(
                sorted(candidates, key=lambda bid: bid.algorithm != chosen)
            ),
            profile_sampled=profile.sampled,
            pinned=algorithm is not None,
        )
        choice = PlannerChoice(chosen, eps, explain, bids, profile)
        self.stats.record(choice)
        return choice

    def _bids(self, query: ConjunctiveQuery, eps: Fraction | None) -> Bids:
        """Every registered algorithm's bid for ``query``, tie order."""
        names = algorithm_names()
        bids = []
        for name in [n for n in _TIE_ORDER if n in names] + [
            n for n in names if n not in _TIE_ORDER
        ]:
            try:
                bid = get_algorithm(name).bid(query, self.p, eps)
            except QueryError as error:
                bid = ineligible(str(error))
            bids.append((name, bid))
        tau = covering_number(query)
        return Bids(tuple(bids), tau, 1 - 1 / tau, ())

    @staticmethod
    def _effective_eps(
        chosen: str, eps: Fraction | None, query_eps: Fraction
    ) -> Fraction | None:
        if eps is not None:
            return eps
        if chosen == "hypercube":
            return query_eps
        if chosen == "multiround":
            return Fraction(0)
        return None


def _round_bounds(
    query: ConjunctiveQuery, eps: Fraction | None
) -> tuple[int, int] | None:
    """The paper's (lower, upper) round bounds for ``query`` at ``eps``
    (None for disconnected queries, or without an eps)."""
    if not query.is_connected or eps is None:
        return None
    try:
        lower = round_lower_bound(query, eps)
    except QueryError:
        lower = 1  # Corollary 4.8 needs tree-like queries
    try:
        return lower, round_upper_bound(query, eps)
    except QueryError:
        return None
