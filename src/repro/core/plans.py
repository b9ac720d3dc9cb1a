"""Multi-round query plans built from one-round operators (Section 4.1).

``Gamma^1_eps`` is the class of connected queries computable in one
round of MPC(eps) on matching databases: those with
``tau*(q) <= 1/(1 - eps)``.  ``Gamma^{r+1}_eps`` closes the class under
substitution: a query plan of depth ``r`` whose every operator lies in
``Gamma^1_eps`` computes the query in ``r`` rounds (Proposition 4.1).

:func:`build_plan` constructs such a plan for any connected query,
following the recipe of Lemma 4.3:

1. pick a hypergraph center ``v``;
2. cover every atom with a shortest atom-path starting at ``v``;
3. collapse each path bottom-up, greedily grouping consecutive
   segments while the group's subquery stays inside ``Gamma^1_eps``
   (the LP test reproduces the paper's group size
   ``k_eps = 2 * floor(1/(1-eps))`` automatically);
4. join all collapsed paths in one final round -- they all contain
   ``v``, so the final operator has ``tau* = 1`` (Corollary 3.10).

The resulting plan depth matches the paper's upper bound
``ceil(log_{k_eps} rad(q)) + 1`` (tree-like queries), and the executor
in :mod:`repro.algorithms.multiround` runs it on the MPC simulator one
HyperCube round per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.core.covers import covering_number
from repro.core.query import Atom, ConjunctiveQuery, QueryError


def gamma_one_threshold(eps: Fraction) -> Fraction:
    """The ``tau*`` budget of one round: ``1 / (1 - eps)``."""
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError(f"space exponent must be in [0, 1), got {eps}")
    return 1 / (1 - eps)


def in_gamma_one(query: ConjunctiveQuery, eps: Fraction) -> bool:
    """Membership in ``Gamma^1_eps``: connected and tau* <= 1/(1-eps)."""
    return query.is_connected and covering_number(query) <= gamma_one_threshold(eps)


@dataclass(frozen=True)
class PlanStep:
    """One one-round operator: compute ``query`` into view ``output``.

    The step query's atoms refer to relations available at this round:
    base relations or views produced by earlier rounds.
    """

    output: str
    query: ConjunctiveQuery


@dataclass(frozen=True)
class PlanRound:
    """All operators executed in one communication round."""

    steps: tuple[PlanStep, ...]


@dataclass(frozen=True)
class QueryPlan:
    """A depth-``r`` plan: ``r`` rounds of one-round operators.

    Attributes:
        query: the query the plan computes.
        rounds: the rounds, in execution order.
        output: the view name holding the final answer.
        eps: the space exponent the plan was built for.
    """

    query: ConjunctiveQuery
    rounds: tuple[PlanRound, ...]
    output: str
    eps: Fraction

    @property
    def depth(self) -> int:
        """Number of communication rounds."""
        return len(self.rounds)


def validate_plan(plan: QueryPlan) -> None:
    """Check the structural invariants of Proposition 4.1.

    * every operator query is connected and lies in ``Gamma^1_eps``;
    * every operator references only relations available at its round;
    * the final output is produced by the last round.

    Raises:
        QueryError: on any violation.
    """
    available = {atom.name for atom in plan.query.atoms}
    produced: set[str] = set()
    for round_index, round_ in enumerate(plan.rounds):
        for step in round_.steps:
            for atom in step.query.atoms:
                if atom.name not in available:
                    raise QueryError(
                        f"round {round_index}: operator {step.output!r} uses "
                        f"unavailable relation {atom.name!r}"
                    )
            if not in_gamma_one(step.query, plan.eps):
                raise QueryError(
                    f"round {round_index}: operator {step.output!r} "
                    f"not in Gamma^1_eps (tau* = "
                    f"{covering_number(step.query)}, eps = {plan.eps})"
                )
            if step.output in available:
                raise QueryError(
                    f"round {round_index}: duplicate view {step.output!r}"
                )
            produced.add(step.output)
        available |= {step.output for step in round_.steps}
    if plan.output not in produced and plan.depth > 0:
        raise QueryError(f"plan never produces output {plan.output!r}")


# ---------------------------------------------------------------------------
# plan construction (Lemma 4.3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Segment:
    """A relation usable as a plan-operator input: name + variables."""

    name: str
    variables: tuple[str, ...]

    def as_atom(self) -> Atom:
        return Atom(self.name, self.variables)


def _segment_query(segments: tuple[_Segment, ...]) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        tuple(segment.as_atom() for segment in segments), name="op"
    )


def build_plan(query: ConjunctiveQuery, eps: Fraction | float | int) -> QueryPlan:
    """Build a multi-round MPC(eps) plan for a connected query.

    The Lemma 4.3 construction is rooted at a hypergraph node; the
    root determines the path decomposition and hence the depth (a
    chain query rooted at an endpoint collapses in
    ``ceil(log_{k_eps} k)`` rounds with no final join, while rooting
    at the center wastes one round).  We build a candidate plan per
    root and keep the shallowest.

    Args:
        query: a connected full conjunctive query.
        eps: the space exponent budget (exact fractions recommended).

    Returns:
        A validated :class:`QueryPlan` whose depth matches Lemma 4.3's
        bound for tree-like queries (and beats it where rooting
        smartly can).

    Raises:
        QueryError: if the query is disconnected.
    """
    eps = Fraction(eps)
    if not query.is_connected:
        raise QueryError("plans require a connected query")
    if in_gamma_one(query, eps):
        plan = QueryPlan(
            query=query,
            rounds=(
                PlanRound(steps=(PlanStep(output="answer", query=query),)),
            ),
            output="answer",
            eps=eps,
        )
        validate_plan(plan)
        return plan

    best: QueryPlan | None = None
    for root in query.variables:
        candidate = _build_plan_rooted(query, eps, root)
        if best is None or candidate.depth < best.depth:
            best = candidate
    assert best is not None
    validate_plan(best)
    return best


def _build_plan_rooted(
    query: ConjunctiveQuery, eps: Fraction, center: str
) -> QueryPlan:
    """The Lemma 4.3 construction rooted at ``center``."""
    paths = _cover_paths(query, center)

    # Collapse all paths level by level; identical groups across paths
    # are computed once (shared-prefix deduplication).
    threshold = gamma_one_threshold(eps)
    sequences: list[list[_Segment]] = [
        [
            _Segment(name, query.atom(name).variables)
            for name in path
        ]
        for path in paths
    ]
    rounds: list[PlanRound] = []
    view_counter = 0
    while any(len(sequence) > 1 for sequence in sequences):
        step_cache: dict[tuple[_Segment, ...], PlanStep] = {}
        next_sequences: list[list[_Segment]] = []
        for sequence in sequences:
            if len(sequence) == 1:
                next_sequences.append(sequence)
                continue
            new_sequence: list[_Segment] = []
            for group in _greedy_groups(tuple(sequence), threshold):
                if len(group) == 1:
                    new_sequence.append(group[0])
                    continue
                if group not in step_cache:
                    view_counter += 1
                    step_cache[group] = PlanStep(
                        output=f"V{view_counter}",
                        query=_segment_query(group),
                    )
                step = step_cache[group]
                new_sequence.append(
                    _Segment(step.output, _ordered_union(group))
                )
            next_sequences.append(new_sequence)
        rounds.append(PlanRound(steps=tuple(step_cache.values())))
        sequences = next_sequences

    # Final round: join all path views; each contains the center.
    final_segments = tuple(
        dict.fromkeys(sequence[0] for sequence in sequences)
    )
    if len(final_segments) == 1:
        output = final_segments[0].name
    else:
        output = "answer"
        rounds.append(
            PlanRound(
                steps=(
                    PlanStep(
                        output=output,
                        query=_segment_query(final_segments),
                    ),
                )
            )
        )
    return QueryPlan(
        query=query, rounds=tuple(rounds), output=output, eps=eps
    )


def _cover_paths(
    query: ConjunctiveQuery, center: str
) -> tuple[tuple[str, ...], ...]:
    """Shortest atom-paths from ``center`` covering every atom.

    Paths that are prefixes of other paths are dropped (their atoms are
    already covered).
    """
    hypergraph = query.hypergraph
    paths = {
        hypergraph.shortest_edge_path(center, atom.name)
        for atom in query.atoms
    }
    return tuple(
        sorted(
            (
                path
                for path in paths
                if not any(
                    other != path and other[: len(path)] == path
                    for other in paths
                )
            ),
        )
    )


def _greedy_groups(
    sequence: tuple[_Segment, ...], threshold: Fraction
) -> tuple[tuple[_Segment, ...], ...]:
    """Partition a path into maximal consecutive ``Gamma^1`` groups."""
    groups: list[tuple[_Segment, ...]] = []
    start = 0
    while start < len(sequence):
        end = start + 1
        while end < len(sequence):
            candidate = sequence[start : end + 1]
            subquery = _segment_query(candidate)
            if (
                subquery.is_connected
                and covering_number(subquery) <= threshold
            ):
                end += 1
            else:
                break
        groups.append(sequence[start:end])
        start = end
    return tuple(groups)


def _ordered_union(segments: tuple[_Segment, ...]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for segment in segments:
        for variable in segment.variables:
            seen.setdefault(variable, None)
    return tuple(seen)
