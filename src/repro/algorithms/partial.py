"""The below-threshold partial-answer algorithm (Proposition 3.11).

When a one-round algorithm is forced to run with ``eps`` *below* the
query's space exponent ``1 - 1/tau*``, Theorem 3.3 caps the expected
fraction of answers it can report at ``O(p^{-(tau*(1-eps)-1)})``.
Proposition 3.11 shows the cap is tight with this algorithm:

* give each variable the share ``p_i = p^{(1-eps) v_i}`` -- a virtual
  hypercube with ``P = p^{(1-eps) tau*} > p`` grid points;
* pick ``p`` of the ``P`` points uniformly at random, one per real
  server;
* route tuples by HC hashing, but only to chosen points;
* each server reports the answers it can assemble.

A potential answer survives iff its grid point was chosen, which
happens with probability ``p / P = p^{1-(1-eps) tau*}``; per-server
load stays ``O(n / p^{1-eps})`` because the cover inequality gives
``prod_{i in vars(S_j)} p_i >= p^{1-eps}``.

The experiment driver measures the *measured* reported fraction against
the theoretical decay as ``p`` grows -- the paper's one-round lower
bound made visible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

from repro.core.covers import fractional_vertex_cover
from repro.core.query import ConjunctiveQuery
from repro.engine import (
    CollectAnswers,
    GridSpec,
    HashRoute,
    Plan,
    PlanRound,
    PlanSignature,
    RemapRanks,
)
from repro.mpc.routing import HashFamily, grid_size


def compile_partial_hypercube(
    query: ConjunctiveQuery,
    p: int,
    eps: Fraction | float,
    seed: int = 0,
    cover: Mapping[str, Fraction] | None = None,
    capacity_c: float = 4.0,
) -> Plan:
    """Compile the Proposition 3.11 round into an immutable plan.

    The virtual grid and the sampled grid points are both functions of
    (query, p, eps, seed) alone -- the sample is drawn here, so a
    cached plan always keeps the same surviving grid points.  The
    virtual point count rides along as the plan's allocation-free
    metadata via the steps' ``virtual_size``.
    """
    eps = Fraction(eps)
    if cover is None:
        cover = fractional_vertex_cover(query)

    # Virtual shares p_i = ceil(p^{(1-eps) v_i}).
    shares: dict[str, int] = {}
    for variable in query.variables:
        exponent = float((1 - eps) * cover.get(variable, Fraction(0)))
        shares[variable] = max(1, round(float(p) ** exponent))
    variable_order = query.variables
    dimensions = tuple(shares[v] for v in variable_order)
    virtual_points = grid_size(dimensions)

    rng = random.Random(seed)
    if virtual_points <= p:
        chosen = list(range(virtual_points))
    else:
        chosen = rng.sample(range(virtual_points), p)
    point_to_server = {point: index for index, point in enumerate(chosen)}

    grid = GridSpec.from_shares(variable_order, shares, HashFamily(seed))
    steps = tuple(
        RemapRanks(
            relation=atom.name,
            inner=HashRoute(relation=atom.name, atom=atom, grid=grid),
            mapping=point_to_server,
            virtual_size=virtual_points,
        )
        for atom in query.atoms
    )
    return Plan(
        signature=PlanSignature(
            algorithm="partial",
            query_text=str(query),
            eps=eps,
            p=p,
            seed=seed,
            capacity_c=capacity_c,
            enforce_capacity=False,
        ),
        rounds=(PlanRound(steps=steps),),
        finalize=CollectAnswers(
            query=query, workers=min(p, len(chosen))
        ),
    )
