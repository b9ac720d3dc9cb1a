"""Skew-aware HyperCube: heavy-hitter routing (after Koutris-Suciu [17]).

The paper's upper bounds hold on *matching databases* -- skew-free by
construction -- and defer skewed inputs to [17] (Section 2.5).  To
make that boundary concrete, this module implements the standard
remedy practical HyperCube deployments use:

1. Round-1 statistics: each input server (which sees its whole
   relation, Section 2.4 explicitly allows this) identifies *heavy
   hitters* -- join-attribute values occurring more than
   ``|S_j| / p_i`` times, i.e. more often than a balanced hash bucket.
2. Light values route by ordinary HC hashing.
3. A heavy value on a dimension shared by exactly two atoms is a
   residual *cartesian product* (every left tuple joins every right
   tuple), so the dimension's share ``p_v`` is refactored into a
   ``g1 x g2`` grid (``g1 = isqrt(p_v)``): left tuples hash their
   residual attributes to a row and replicate across columns, right
   tuples hash to a column and replicate across rows -- the
   introduction's cartesian-grid tradeoff applied surgically to the
   heavy value.  (With three or more atoms on the dimension we fall
   back to full spreading.)

Compilation and execution are split: :func:`compile_skew_aware` emits
an immutable :class:`~repro.engine.plan.Plan` whose single round has
one :class:`~repro.engine.steps.HeavyGridRoute` per atom *without*
heavy sets -- detection reads the data, so the round carries a
:class:`~repro.engine.plan.HeavyBind` marker and
:func:`~repro.engine.executor.execute_plan` binds the detected heavy
values just before routing.  The light/heavy split then runs either
tuple-at-a-time (``pure``) or as a handful of vectorized signature
groups (``numpy``); heavy-hitter detection itself is one
``unique``/``counts`` pass per (atom, position) under numpy.

On skew-free inputs no value is heavy and the algorithm degenerates to
exactly plain HyperCube; on skewed inputs the maximum load drops from
``Theta(n)`` back toward ``O(n / sqrt(p_v))`` per heavy value at the
price of extra replication -- the [17] tradeoff, measurable in the
result stats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.backend import NUMPY, require_numpy, resolve_backend
from repro.core.query import ConjunctiveQuery
from repro.core.covers import fractional_vertex_cover
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.database import Database
from repro.engine import (
    CollectAnswers,
    GridSpec,
    HeavyBind,
    HeavyGridRoute,
    Plan,
    PlanRound,
    PlanSignature,
)
from repro.mpc.routing import HashFamily


def detect_heavy_hitters(
    query: ConjunctiveQuery,
    database: Database | ColumnarDatabase,
    shares: Mapping[str, int],
    backend: str | None = None,
    columnar: Mapping[str, ColumnarRelation] | None = None,
) -> dict[str, frozenset[int]]:
    """Values occurring more than ``|S_j| / p_i`` times on a dimension.

    Computed per (atom, variable position) and unioned per variable:
    input servers know their own relations, so this is legal round-1
    work in the model of Section 2.4.  Under the ``numpy`` backend
    each (atom, position) scan is one ``unique``/``counts`` pass; the
    ``pure`` reference counts per-value in a dict.  Identical output
    either way.

    Args:
        columnar: optional pre-columnarised relations (the executor
            passes its routing sources so detection re-uses the same
            arrays instead of converting the database twice).
    """
    backend = resolve_backend(backend)
    numpy = require_numpy() if backend == NUMPY else None
    heavy: dict[str, set[int]] = {v: set() for v in query.variables}
    for atom in query.atoms:
        relation = database[atom.name]
        if numpy is not None and len(relation):
            if columnar is not None and atom.name in columnar:
                columns = columnar[atom.name].columns
            else:
                columns = ColumnarRelation.from_relation(
                    relation, backend=NUMPY
                ).columns
        else:
            columns = None
        for position, variable in enumerate(atom.variables):
            share = shares.get(variable, 1)
            if share <= 1:
                continue
            threshold = max(1, len(relation) // share)
            if columns is not None:
                values, counts = numpy.unique(
                    columns[position], return_counts=True
                )
                heavy[variable].update(
                    values[counts > threshold].tolist()
                )
                continue
            counts_by_value: dict[int, int] = {}
            rows = (
                relation.rows()
                if isinstance(relation, ColumnarRelation)
                else relation
            )
            for row in rows:
                counts_by_value[row[position]] = (
                    counts_by_value.get(row[position], 0) + 1
                )
            for value, count in counts_by_value.items():
                if count > threshold:
                    heavy[variable].add(value)
    return {v: frozenset(values) for v, values in heavy.items()}


def _heavy_roles(query: ConjunctiveQuery) -> dict[str, dict[str, int] | None]:
    """Per variable: atom -> grid role (0 = rows, 1 = columns).

    Only defined when exactly two atoms contain the variable (the
    cartesian split of [17]); ``None`` means fall back to spreading.
    """
    roles: dict[str, dict[str, int] | None] = {}
    for variable in query.variables:
        atoms = sorted(
            atom.name for atom in query.atoms_of(variable)
        )
        if len(atoms) == 2:
            roles[variable] = {atoms[0]: 0, atoms[1]: 1}
        else:
            roles[variable] = None
    return roles


def compile_skew_aware(
    query: ConjunctiveQuery,
    p: int,
    eps: Fraction | float | None = None,
    seed: int = 0,
    capacity_c: float = 4.0,
    enforce_capacity: bool = False,
    backend: str | None = None,
) -> Plan:
    """Compile the skew-aware round into an immutable plan.

    Everything data-independent happens here -- shares, grid, roles,
    the step list; the heavy sets stay empty and the round's
    :class:`~repro.engine.plan.HeavyBind` tells the executor to detect
    and bind them per database (round-1 statistics work).
    """
    cover = fractional_vertex_cover(query)
    exponents = share_exponents(query, cover)
    allocation = allocate_integer_shares(exponents, p)
    shares = allocation.shares
    if eps is None:
        tau = sum((Fraction(v) for v in cover.values()), start=Fraction(0))
        eps = max(Fraction(0), 1 - 1 / tau)
    roles = _heavy_roles(query)
    grid = GridSpec.from_shares(query.variables, shares, HashFamily(seed))
    steps = tuple(
        HeavyGridRoute(
            relation=atom.name,
            atom=atom,
            grid=grid,
            heavy={},
            roles=roles,
        )
        for atom in query.atoms
    )
    return Plan(
        signature=PlanSignature(
            algorithm="skewaware",
            query_text=str(query),
            eps=Fraction(eps),
            p=p,
            backend=resolve_backend(backend),
            seed=seed,
            capacity_c=capacity_c,
            enforce_capacity=enforce_capacity,
        ),
        rounds=(
            PlanRound(
                steps=steps,
                bind_heavy=HeavyBind(
                    query=query, shares=tuple(shares.items())
                ),
            ),
        ),
        finalize=CollectAnswers(
            query=query, workers=allocation.used_servers
        ),
        allocation=allocation,
    )
