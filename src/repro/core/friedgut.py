"""Friedgut's inequality and output-size bounds (Section 2.6).

Friedgut's inequality, specialised to a query ``q`` with a fractional
*edge cover* ``u`` (every variable's incident weights sum to >= 1)::

    sum_{a in [n]^k}  prod_j w_j(a_j)
        <=  prod_j ( sum_{a_j} w_j(a_j)^{1/u_j} )^{u_j}

with the convention ``lim_{u->0} (sum w^{1/u})^u = max w`` for atoms of
weight zero.  Setting ``w_j`` to the 0/1 indicator of relation ``S_j``
yields the familiar output-size bound

    |q(I)|  <=  prod_j |S_j|^{u_j}

(the AGM bound of Atserias-Grohe-Marx, which the paper recovers as an
immediate corollary).  The paper's one-round lower bound (Lemma 3.7)
applies the inequality with a *tight* fractional edge packing on the
extended query of Lemma 3.9 -- both constructions live here and in
:mod:`repro.core.extended`.

This module provides

* :func:`is_fractional_edge_cover` -- feasibility of a weight vector,
* :func:`optimal_edge_cover` -- a minimum fractional edge cover via
  the exact LP (the *cover*, not the packing, of Figure 1's dual pair),
* :func:`friedgut_bound` -- the right-hand side of the inequality for
  arbitrary non-negative weights,
* :func:`friedgut_holds` -- numeric verification of the inequality
  (used by the hypothesis test suite),
* :func:`output_size_bound` -- the AGM-style corollary
  ``prod_j |S_j|^{u_j}``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Mapping

from repro.core.query import ConjunctiveQuery, QueryError
from repro.lp import LinearProgram

if TYPE_CHECKING:
    from repro.data.columnar import ColumnarRelation


def is_fractional_edge_cover(
    query: ConjunctiveQuery, weights: Mapping[str, Fraction]
) -> bool:
    """Feasibility: every variable's incident atom weights sum >= 1."""
    if any(Fraction(value) < 0 for value in weights.values()):
        return False
    return all(
        sum(
            (
                Fraction(weights.get(atom.name, 0))
                for atom in query.atoms_of(variable)
            ),
            start=Fraction(0),
        )
        >= 1
        for variable in query.variables
    )


def edge_cover_program(query: ConjunctiveQuery) -> LinearProgram:
    """The fractional edge cover LP: min sum u_j, cover every variable.

    Not to be confused with the edge *packing* LP of Figure 1 (its
    inequalities point the other way); the two optima coincide exactly
    when the optimal solutions are tight (Section 2.3's remark).
    """
    lp = LinearProgram(maximize=False)
    for atom in query.atoms:
        lp.add_variable(atom.name)
    for variable in query.variables:
        atoms = query.atoms_of(variable)
        if not atoms:  # pragma: no cover - full queries have no such vars
            raise QueryError(f"variable {variable} occurs in no atom")
        lp.add_constraint(
            {atom.name: 1 for atom in atoms}, ">=", 1,
            name=f"cover[{variable}]",
        )
    lp.set_objective({atom.name: 1 for atom in query.atoms})
    return lp


def optimal_edge_cover(query: ConjunctiveQuery) -> dict[str, Fraction]:
    """A minimum fractional edge cover (exact)."""
    solution = edge_cover_program(query).solve()
    if not solution.is_optimal:  # pragma: no cover - always feasible
        raise QueryError(f"edge cover LP not optimal: {solution.status}")
    return dict(solution.values)


def edge_cover_number(query: ConjunctiveQuery) -> Fraction:
    """The fractional edge cover number ``rho*(q)``."""
    solution = edge_cover_program(query).solve()
    assert solution.objective is not None
    return solution.objective


def _norm_term(values: list[float], exponent: Fraction) -> float:
    """``( sum_a w(a)^{1/u} )^u`` with the ``u -> 0`` max convention."""
    if exponent == 0:
        return max(values) if values else 0.0
    u = float(exponent)
    total = sum(value ** (1.0 / u) for value in values if value > 0)
    return total ** u


def friedgut_bound(
    query: ConjunctiveQuery,
    weights: Mapping[str, Mapping[tuple[int, ...], float]],
    cover: Mapping[str, Fraction],
    n: int,
) -> float:
    """The right-hand side of Friedgut's inequality.

    Args:
        query: the query fixing atoms and variable positions.
        weights: per atom name, a sparse map from index tuples (of the
            atom's arity, over ``[1, n]``) to non-negative reals;
            missing entries are zero.
        cover: a fractional edge cover of the query.
        n: the domain bound.
    """
    if not is_fractional_edge_cover(query, cover):
        raise QueryError("weights exponent vector is not an edge cover")
    bound = 1.0
    for atom in query.atoms:
        atom_weights = list(weights.get(atom.name, {}).values())
        bound *= _norm_term(atom_weights, Fraction(cover.get(atom.name, 0)))
    return bound


def friedgut_lhs(
    query: ConjunctiveQuery,
    weights: Mapping[str, Mapping[tuple[int, ...], float]],
    n: int,
) -> float:
    """The left-hand side ``sum_a prod_j w_j(a_j)`` by enumeration.

    Exponential in the number of variables; intended for the small
    verification instances of the test suite.
    """
    variables = query.variables
    total = 0.0
    for assignment in product(range(1, n + 1), repeat=len(variables)):
        binding = dict(zip(variables, assignment))
        term = 1.0
        for atom in query.atoms:
            key = tuple(binding[v] for v in atom.variables)
            value = weights.get(atom.name, {}).get(key, 0.0)
            if value == 0.0:
                term = 0.0
                break
            term *= value
        total += term
    return total


def friedgut_holds(
    query: ConjunctiveQuery,
    weights: Mapping[str, Mapping[tuple[int, ...], float]],
    cover: Mapping[str, Fraction],
    n: int,
    slack: float = 1e-9,
) -> bool:
    """Numerically verify ``lhs <= rhs * (1 + slack)``."""
    lhs = friedgut_lhs(query, weights, n)
    rhs = friedgut_bound(query, weights, cover, n)
    return lhs <= rhs * (1 + slack) + slack


def output_size_bound(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    cover: Mapping[str, Fraction] | None = None,
) -> float:
    """The AGM-style corollary: ``|q(I)| <= prod_j |S_j|^{u_j}``.

    With the optimal edge cover this is the worst-case output size
    bound of [Atserias-Grohe-Marx 2008, Ngo et al. 2012] that the
    paper cites; e.g. ``|C3| <= sqrt(|S1| |S2| |S3|)``.

    Args:
        query: the query.
        cardinalities: ``|S_j|`` per atom name.
        cover: a fractional edge cover; optimal by default.
    """
    if cover is None:
        cover = optimal_edge_cover(query)
    elif not is_fractional_edge_cover(query, cover):
        raise QueryError("supplied exponents are not an edge cover")
    result = 1.0
    for atom in query.atoms:
        exponent = float(Fraction(cover.get(atom.name, 0)))
        size = cardinalities.get(atom.name, 0)
        if exponent > 0:
            result *= float(size) ** exponent
        elif size == 0:
            return 0.0
    return result


def verify_agm_on_instance(
    query: ConjunctiveQuery,
    relations: Mapping[str, ColumnarRelation],
) -> tuple[int, float]:
    """(actual output size, AGM bound) for a concrete instance."""
    from repro.algorithms.localjoin import evaluate_query_table

    actual = len(
        evaluate_query_table(
            query,
            {name: relation.columns for name, relation in relations.items()},
        )
    )
    bound = output_size_bound(
        query,
        {name: len(relation) for name, relation in relations.items()},
    )
    return actual, math.ceil(bound - 1e-9)
