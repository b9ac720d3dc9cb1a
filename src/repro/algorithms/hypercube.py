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

Compilation and execution are split: :func:`compile_hypercube` is a
pure function of (query, p, eps, cover, seed, backend) emitting an
immutable :class:`~repro.engine.plan.Plan` -- one
:class:`~repro.engine.steps.HashRoute` per atom on the share grid plus
a local-eval spec -- and :func:`~repro.engine.executor.execute_plan`
runs it tuple-at-a-time (``pure``, the reference) or column-wise
(``numpy``); the serving layer caches the plan and re-executes it per
request.  HC never misses: every potential answer is assembled at
exactly one grid point, so ``execute_plan(...).answers`` equals the
true query answer on any database.  The backends are cross-checked
for exact equality of answers, per-round received bits/tuples and
per-server answer counts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.backend import resolve_backend
from repro.core.covers import fractional_vertex_cover
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.engine import (
    CollectAnswers,
    GridSpec,
    HashRoute,
    Plan,
    PlanRound,
    PlanSignature,
)
from repro.mpc.routing import HashFamily


def hc_destinations(
    atom: Atom,
    row: tuple[int, ...],
    shares: Mapping[str, int],
    variable_order: tuple[str, ...],
    hashes: HashFamily,
) -> list[int]:
    """All grid ranks that must receive ``row`` of ``atom``.

    Dimensions owned by the atom's variables are pinned to the hashed
    coordinates; the remaining dimensions range over their full shares
    (this is the replication).  Rows violating repeated-variable
    equality within the atom route nowhere (they can never join); the
    equality check runs *before* any hashing so contradictory rows
    short-circuit without wasted hash work.

    Thin wrapper over :meth:`repro.engine.steps.HashRoute.destinations`
    (kept as the public per-row routing oracle; the partial-coverage
    algorithm and the routing tests use it directly).
    """
    step = HashRoute(
        relation=atom.name,
        atom=atom,
        grid=GridSpec.from_shares(variable_order, shares, hashes),
    )
    return step.destinations(row, 0, 0)


def compile_hypercube(
    query: ConjunctiveQuery,
    p: int,
    eps: Fraction | float | None = None,
    cover: Mapping[str, Fraction] | None = None,
    seed: int = 0,
    capacity_c: float = 4.0,
    enforce_capacity: bool = False,
    backend: str | None = None,
) -> Plan:
    """Compile one HC round into an immutable plan (data-independent).

    The plan's single round routes every atom over the integer share
    grid; its finalize spec joins fragments at the grid's used servers.
    Compilation never looks at a database, so the plan can be cached
    by ``(query, eps, p, backend)`` and executed repeatedly.
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
            backend=resolve_backend(backend),
            seed=seed,
            capacity_c=capacity_c,
            enforce_capacity=enforce_capacity,
        ),
        rounds=(PlanRound(steps=steps),),
        finalize=CollectAnswers(
            query=query, workers=allocation.used_servers
        ),
        allocation=allocation,
    )
