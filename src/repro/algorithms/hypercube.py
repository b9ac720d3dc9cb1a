"""The HyperCube (HC) one-round algorithm (Section 3.1, Prop. 3.2).

Given a query ``q`` with variables ``x_1..x_k`` and a fractional vertex
cover ``v`` of value ``tau``:

1. each variable gets share exponent ``e_i = v_i / tau``;
2. the ``p`` servers form a grid ``[p_1] x ... x [p_k]`` with
   ``p_i ~ p^{e_i}`` (integerised by
   :func:`repro.core.shares.allocate_integer_shares`);
3. independent hashes ``h_i : [n] -> [p_i]`` route every tuple
   ``S_j(a)`` to all grid points agreeing with ``h`` on the dimensions
   of ``vars(S_j)`` -- the tuple is replicated across the free
   dimensions, ``prod_{i not in vars(S_j)} p_i <= p^{1-1/tau}`` times;
4. after the single communication round each server joins its local
   fragments; every potential answer ``(a_1..a_k)`` is assembled at
   grid point ``(h_1(a_1), ..., h_k(a_k))``.

On matching databases the maximum load is ``O(n / p^{1/tau})`` tuples
per server w.h.p., matching Theorem 1.1's lower bound: HC is the
optimal one-round algorithm.

The paper's bounds hold on matching databases and defer skew to
Koutris-Suciu [17] (Section 2.5).  Their heavy-hitter routing is HC
with a data-dependent escape hatch, and plain HC is its light case:

* round-1 statistics (each input server sees its whole relation,
  Section 2.4) find the *heavy hitters* -- values occurring more than
  ``|S_j| / p_i`` times on a dimension, more often than a balanced
  hash bucket (:func:`detect_heavy_hitters`);
* light values route by ordinary HC hashing;
* a heavy value on a dimension shared by exactly two atoms is a
  residual cartesian product, so that dimension's share ``p_v`` is
  refactored into a ``g1 x g2`` grid (``g1 = isqrt(p_v)``) keyed by
  the tuple's residual attributes (:func:`_heavy_roles`); with three
  or more atoms on the dimension a heavy value spreads over it.

Compilation and execution are split: :func:`compile_hypercube` is a
pure function of (query, p, eps, cover, seed) emitting an immutable
:class:`~repro.engine.plan.Plan` -- one
:class:`~repro.engine.steps.HashRoute` per atom on the share grid, a
:class:`~repro.engine.plan.HeavyBind` marker on the round, and a
local-eval spec -- and :func:`~repro.engine.executor.execute_plan`
detects heavy values and runs it column-wise.  When no value is heavy
(every matching database) the round routes exactly the compiled
``HashRoute`` steps; otherwise every step becomes a
:class:`~repro.engine.steps.HeavyGridRoute` carrying the heavy sets.
HC never misses: every potential answer is assembled at exactly one
grid point, so ``execute_plan(...).answers`` equals the true query
answer on any database.  The engine is cross-checked against the
tuple-at-a-time reference (:mod:`repro.oracle`) for exact equality of
answers, heavy hitters, per-round received bits/tuples and per-server
answer counts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.core.covers import fractional_vertex_cover
from repro.core.query import ConjunctiveQuery
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.engine import (
    CollectAnswers,
    GridSpec,
    HashRoute,
    HeavyBind,
    Plan,
    PlanRound,
    PlanSignature,
)
from repro.mpc.routing import HashFamily


def detect_heavy_hitters(
    query: ConjunctiveQuery,
    database: ColumnarDatabase | Mapping[str, ColumnarRelation],
    shares: Mapping[str, int],
) -> dict[str, frozenset[int]]:
    """Values occurring more than ``|S_j| / p_i`` times on a dimension.

    Computed per (atom, variable position) and unioned per variable:
    input servers know their own relations, so this is legal round-1
    work in the model of Section 2.4.  Each (atom, position) scan is
    the relation's memoized :meth:`~ColumnarRelation.frequent_values`
    (one ``unique``/``counts`` pass per relation version and
    threshold; the executor passes its columnar routing sources, so
    nothing is converted twice).
    """
    heavy: dict[str, set[int]] = {v: set() for v in query.variables}
    for atom in query.atoms:
        relation = database[atom.name]
        if not len(relation):
            continue
        for position, variable in enumerate(atom.variables):
            share = shares.get(variable, 1)
            if share <= 1:
                continue
            threshold = max(1, len(relation) // share)
            values, _ = relation.frequent_values(position, threshold)
            heavy[variable].update(values.tolist())
    return {v: frozenset(values) for v, values in heavy.items()}


def _heavy_roles(query: ConjunctiveQuery) -> dict[str, dict[str, int] | None]:
    """Per variable: atom -> grid role (0 = rows, 1 = columns).

    Only defined when exactly two atoms contain the variable (the
    cartesian split of [17]); ``None`` means fall back to spreading.
    """
    roles: dict[str, dict[str, int] | None] = {}
    for variable in query.variables:
        atoms = sorted(atom.name for atom in query.atoms_of(variable))
        roles[variable] = (
            {atoms[0]: 0, atoms[1]: 1} if len(atoms) == 2 else None
        )
    return roles


def compile_hypercube(
    query: ConjunctiveQuery,
    p: int,
    eps: Fraction | float | None = None,
    cover: Mapping[str, Fraction] | None = None,
    seed: int = 0,
    capacity_c: float = 4.0,
    enforce_capacity: bool = False,
) -> Plan:
    """Compile one HC round into an immutable plan (data-independent).

    The plan's single round routes every atom over the integer share
    grid; its :class:`~repro.engine.plan.HeavyBind` tells the executor
    to detect heavy values per database (round-1 statistics work) and
    bind them; its finalize spec joins fragments at the grid's used
    servers.  Compilation never looks at a database, so the plan can
    be cached by ``(query, eps, p)`` and executed repeatedly.
    """
    if cover is None:
        cover = fractional_vertex_cover(query)
    exponents = share_exponents(query, cover)
    allocation = allocate_integer_shares(exponents, p)
    grid = GridSpec.from_shares(
        query.variables, allocation.shares, HashFamily(seed)
    )
    if eps is None:
        tau = sum((Fraction(v) for v in cover.values()), start=Fraction(0))
        eps = max(Fraction(0), 1 - 1 / tau)
    steps = tuple(
        HashRoute(relation=atom.name, atom=atom, grid=grid)
        for atom in query.atoms
    )
    return Plan(
        signature=PlanSignature(
            algorithm="hypercube",
            query_text=str(query),
            eps=Fraction(eps),
            p=p,
            seed=seed,
            capacity_c=capacity_c,
            enforce_capacity=enforce_capacity,
        ),
        rounds=(
            PlanRound(
                steps=steps,
                bind_heavy=HeavyBind(
                    query=query,
                    shares=tuple(allocation.shares.items()),
                    roles=_heavy_roles(query),
                ),
            ),
        ),
        finalize=CollectAnswers(
            query=query, workers=allocation.used_servers
        ),
        allocation=allocation,
    )
