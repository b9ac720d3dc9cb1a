"""Fractional vertex covers, edge packings and ``tau*`` (Figure 1).

The two dual LPs of Figure 1 in the paper::

    Vertex covering LP                 Edge packing LP
    min  sum_i v_i                     max  sum_j u_j
    s.t. sum_{i: x_i in vars(S_j)}     s.t. sum_{j: x_i in vars(S_j)}
              v_i >= 1   for all j              u_j <= 1   for all i
         v_i >= 0                           u_j >= 0

share the optimal value ``tau*(q)`` -- the *fractional covering number*
-- by LP strong duality.  Theorem 1.1 turns ``tau*`` into the one-round
space exponent ``eps = 1 - 1/tau*``; Proposition 3.2 turns the optimal
cover itself into HyperCube share exponents.

Everything here is exact: solutions are :class:`fractions.Fraction`
vectors produced by the rational simplex in :mod:`repro.lp`.

Both LPs depend on the query hypergraph alone, so each *shape* is
solved once per process.  The memo key fixes the dense LP exactly --
the number of variables plus, atom by atom in body order, the sorted
head positions of the atom's variables -- because the LP orders its
columns by head order and its rows by atom order.  A hit therefore
returns the values a fresh solve would, bit for bit, mapped back to
the query's own names by position: ``S1(a,b), S2(b,c)`` and
``S7(x,y), S8(y,z)`` share one entry.  An entry holds ``tau*`` and the
cover; the edge packing is solved on first request (only
:func:`fractional_edge_packing` and :func:`analyze_covers` ask for
it).  The memo is bounded to :data:`MEMO_CAP` shapes, oldest out
first, and safe under concurrent callers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from fractions import Fraction

from repro.core.query import ConjunctiveQuery, QueryError
from repro.lp import LinearProgram, LPSolution

#: Most query shapes the LP memo holds.
MEMO_CAP = 4096


def vertex_cover_program(query: ConjunctiveQuery) -> LinearProgram:
    """Build the vertex covering LP of Figure 1 (left)."""
    lp = LinearProgram(maximize=False)
    for variable in query.variables:
        lp.add_variable(variable)
    for atom in query.atoms:
        lp.add_constraint(
            {variable: 1 for variable in atom.variable_set},
            ">=",
            1,
            name=f"cover[{atom.name}]",
        )
    lp.set_objective({variable: 1 for variable in query.variables})
    return lp


def edge_packing_program(query: ConjunctiveQuery) -> LinearProgram:
    """Build the edge packing LP of Figure 1 (right), the dual LP."""
    lp = LinearProgram(maximize=True)
    for atom in query.atoms:
        lp.add_variable(atom.name)
    for variable in query.variables:
        lp.add_constraint(
            {atom.name: 1 for atom in query.atoms_of(variable)},
            "<=",
            1,
            name=f"pack[{variable}]",
        )
    lp.set_objective({atom.name: 1 for atom in query.atoms})
    return lp


@dataclass(frozen=True)
class _ShapeSolution:
    """One memo entry: optima by position, not by name."""

    tau: Fraction
    #: optimal cover values in head order
    cover: tuple[Fraction, ...]
    #: optimal packing values in atom order (None until first asked)
    packing: tuple[Fraction, ...] | None = None


_MEMO: dict[tuple, _ShapeSolution] = {}
_MEMO_LOCK = threading.Lock()


def _shape_key(query: ConjunctiveQuery) -> tuple:
    """What fixes both dense LPs: variable count + per-atom positions."""
    index = {variable: i for i, variable in enumerate(query.variables)}
    return len(index), tuple(
        tuple(sorted(index[variable] for variable in atom.variable_set))
        for atom in query.atoms
    )


def _optimal(program: LinearProgram, what: str) -> LPSolution:
    solution = program.solve()
    if not solution.is_optimal:  # pragma: no cover - both LPs are bounded
        raise QueryError(f"{what} LP not optimal: {solution.status}")
    return solution


def _solved(query: ConjunctiveQuery, packing: bool = False) -> _ShapeSolution:
    """The memo entry of ``query``'s shape, solving what it lacks."""
    key = _shape_key(query)
    with _MEMO_LOCK:
        entry = _MEMO.get(key)
        if entry is None:
            solution = _optimal(vertex_cover_program(query), "vertex cover")
            assert solution.objective is not None
            entry = _ShapeSolution(
                tau=solution.objective,
                cover=tuple(solution.values[v] for v in query.variables),
            )
            if len(_MEMO) >= MEMO_CAP:
                del _MEMO[next(iter(_MEMO))]
            _MEMO[key] = entry
        if packing and entry.packing is None:
            solution = _optimal(edge_packing_program(query), "edge packing")
            entry = replace(
                entry,
                packing=tuple(solution.values[a.name] for a in query.atoms),
            )
            _MEMO[key] = entry
    return entry


def fractional_vertex_cover(query: ConjunctiveQuery) -> dict[str, Fraction]:
    """An optimal fractional vertex cover ``v`` (by variable name)."""
    return dict(zip(query.variables, _solved(query).cover))


def fractional_edge_packing(query: ConjunctiveQuery) -> dict[str, Fraction]:
    """An optimal fractional edge packing ``u`` (by atom name)."""
    packing = _solved(query, packing=True).packing
    assert packing is not None
    return dict(zip((atom.name for atom in query.atoms), packing))


def covering_number(query: ConjunctiveQuery) -> Fraction:
    """The fractional covering number ``tau*(q)`` (exact)."""
    return _solved(query).tau


def space_exponent(query: ConjunctiveQuery) -> Fraction:
    """The one-round space exponent ``eps(q) = 1 - 1/tau*(q)``.

    Theorem 1.1: over matching databases, one-round MPC(eps) computes
    ``q`` iff ``eps >= 1 - 1/tau*(q)``.  The result is an exact
    fraction in ``[0, 1)``.

    Note:
        The paper's lower bound assumes no unary atoms (a unary
        matching relation is the constant set ``[n]``); the value is
        still returned for such queries but only the upper-bound
        direction applies to them.
    """
    tau = covering_number(query)
    return 1 - Fraction(1, 1) / tau


@dataclass(frozen=True)
class CoverAnalysis:
    """Joint analysis of the two LPs of Figure 1 for one query.

    Attributes:
        tau_star: the fractional covering number (primal == dual value).
        vertex_cover: an optimal fractional vertex cover.
        edge_packing: an optimal fractional edge packing.
        cover_is_tight: True when every packing inequality (3) holds
            with equality under ``edge_packing``.
        packing_is_tight: True when every covering inequality (2) holds
            with equality under ``vertex_cover``.
        space_exponent: ``1 - 1/tau_star``.
    """

    tau_star: Fraction
    vertex_cover: dict[str, Fraction]
    edge_packing: dict[str, Fraction]
    cover_is_tight: bool
    packing_is_tight: bool
    space_exponent: Fraction


def analyze_covers(query: ConjunctiveQuery) -> CoverAnalysis:
    """Solve both LPs, check strong duality and tightness.

    Raises:
        QueryError: if the primal and dual optima disagree, which with
            exact arithmetic would indicate a solver defect.
    """
    tau = covering_number(query)
    cover = fractional_vertex_cover(query)
    packing = fractional_edge_packing(query)
    packing_value = sum(packing.values(), start=Fraction(0))
    if tau != packing_value:
        raise QueryError(  # pragma: no cover - guarded by exactness
            f"strong duality violated: {tau} != {packing_value}"
        )

    packing_tight = all(
        sum(
            (cover[variable] for variable in atom.variable_set),
            start=Fraction(0),
        )
        == 1
        for atom in query.atoms
    )
    cover_tight = all(
        sum(
            (packing[atom.name] for atom in query.atoms_of(variable)),
            start=Fraction(0),
        )
        == 1
        for variable in query.variables
    )
    return CoverAnalysis(
        tau_star=tau,
        vertex_cover=cover,
        edge_packing=packing,
        cover_is_tight=cover_tight,
        packing_is_tight=packing_tight,
        space_exponent=1 - Fraction(1, 1) / tau,
    )


def is_fractional_vertex_cover(
    query: ConjunctiveQuery, cover: dict[str, Fraction]
) -> bool:
    """Check feasibility of an arbitrary vertex-cover candidate."""
    if any(value < 0 for value in cover.values()):
        return False
    return all(
        sum(
            (cover.get(variable, Fraction(0)) for variable in atom.variable_set),
            start=Fraction(0),
        )
        >= 1
        for atom in query.atoms
    )


def is_fractional_edge_packing(
    query: ConjunctiveQuery, packing: dict[str, Fraction]
) -> bool:
    """Check feasibility of an arbitrary edge-packing candidate."""
    if any(value < 0 for value in packing.values()):
        return False
    return all(
        sum(
            (
                packing.get(atom.name, Fraction(0))
                for atom in query.atoms_of(variable)
            ),
            start=Fraction(0),
        )
        <= 1
        for variable in query.variables
    )
