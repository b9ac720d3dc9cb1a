"""Cheap data statistics the planner reads before choosing a route.

A :class:`~repro.algorithms.registry.DataProfile` (defined beside the
cost models that read it) is the planner's whole view of the data:
relation cardinalities plus a *skew sample* -- the heavy-hitter scan
of :func:`repro.algorithms.hypercube.detect_heavy_hitters` run under
the query's own HyperCube shares, on a deterministic stride sample
when relations are large.  Collection is O(data scanned) with no
joins, so profiling a statement costs far less than executing it, and
the scans themselves are memoized on each immutable relation
(:meth:`~repro.data.columnar.ColumnarRelation.frequent_values`): after
a write, a statement's next profile rescans only the relations the
write touched, on the grid its previous profile recorded.

Heavy multiplicities (the count of the most frequent heavy value per
variable) feed the registry cost models directly: HyperCube binds
heavy values at execution and splits each over a cartesian sub-grid,
so its predicted load rises only to ``multiplicity / isqrt(share)``.
"""

from __future__ import annotations

from typing import Mapping

import numpy

from repro.algorithms.registry import DataProfile
from repro.algorithms.hypercube import detect_heavy_hitters
from repro.core.query import ConjunctiveQuery
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.data.columnar import ColumnarRelation

#: Relations beyond this many rows are profiled on a stride sample.
SAMPLE_CAP = 100_000

#: The nominal worker count of the profiling shares.  A profile is
#: consulted for any ``p``, so the heavy-hitter threshold uses a fixed
#: grid -- skew strong enough to matter shows up at any reasonable
#: share split.
PROFILE_P = 16


def _stride_sample(relation: ColumnarRelation, cap: int) -> ColumnarRelation:
    """Every k-th row, deterministically, when the relation is large."""
    size = len(relation)
    if size <= cap:
        return relation
    stride = -(-size // cap)  # ceil division
    return ColumnarRelation(
        name=relation.name,
        arity=relation.arity,
        columns=tuple(column[::stride] for column in relation.columns),
        domain_size=relation.domain_size,
    )


def collect_profile(
    query: ConjunctiveQuery,
    database: Mapping[str, ColumnarRelation],
    *,
    shares: tuple[tuple[str, int], ...] | None = None,
    sample_cap: int = SAMPLE_CAP,
) -> DataProfile:
    """Profile ``database`` for ``query`` under its own HC shares.

    Args:
        query: the statement's query; only its relations are scanned.
        database: relation name -> columnar relation (a
            :class:`~repro.data.columnar.ColumnarDatabase` or
            :class:`~repro.data.versioned.VersionedDatabase` snapshot
            both satisfy this).
        shares: the sampling grid a previous profile of ``query``
            recorded; None allocates the query's own HC shares at
            :data:`PROFILE_P`.
        sample_cap: stride-sample relations beyond this many rows.
    """
    if shares is None:
        allocation = allocate_integer_shares(share_exponents(query), PROFILE_P)
        shares = tuple(sorted(allocation.shares.items()))

    sampled = False
    sources: dict[str, ColumnarRelation] = {}
    relation_rows: list[tuple[str, int]] = []
    for atom in query.atoms:
        relation = database[atom.name]
        relation_rows.append((atom.name, len(relation)))
        sample = _stride_sample(relation, sample_cap)
        sampled = sampled or sample is not relation
        sources[atom.name] = sample

    heavy_sets = detect_heavy_hitters(query, sources, dict(shares))
    multiplicities = _heavy_multiplicities(query, sources, heavy_sets)
    # A sampled scan undercounts by the stride factor; scale back so
    # cost models compare multiplicities against full cardinalities.
    if sampled:
        scaled: dict[str, int] = {}
        for atom in query.atoms:
            full = dict(relation_rows)[atom.name]
            seen = len(sources[atom.name])
            factor = full / seen if seen else 1.0
            for variable in atom.variable_set:
                if multiplicities.get(variable):
                    scaled[variable] = max(
                        scaled.get(variable, 0),
                        int(multiplicities[variable] * factor),
                    )
        for variable, count in scaled.items():
            multiplicities[variable] = count

    return DataProfile(
        relation_rows=tuple(relation_rows),
        total_rows=sum(rows for _, rows in relation_rows),
        heavy_values=tuple(
            (variable, len(values))
            for variable, values in sorted(heavy_sets.items())
        ),
        heavy_multiplicities=tuple(sorted(multiplicities.items())),
        sampled=sampled,
        shares=shares,
    )


def _heavy_multiplicities(
    query: ConjunctiveQuery,
    sources: Mapping[str, ColumnarRelation],
    heavy_sets: Mapping[str, frozenset[int]],
) -> dict[str, int]:
    """Per variable, the count of its most frequent heavy value.

    Only variables whose heavy set is non-empty are scanned again, so
    the common skew-free profile pays nothing here.
    """
    multiplicities: dict[str, int] = {}
    for atom in query.atoms:
        for position, variable in enumerate(atom.variables):
            if not heavy_sets.get(variable):
                continue
            heavy = numpy.array(sorted(heavy_sets[variable]), numpy.int64)
            column = sources[atom.name].columns[position]
            slots = numpy.minimum(
                numpy.searchsorted(heavy, column), len(heavy) - 1
            )
            hits = slots[heavy[slots] == column]
            top = int(numpy.bincount(hits, minlength=len(heavy)).max())
            if top:
                multiplicities[variable] = max(
                    multiplicities.get(variable, 0), top
                )
    return multiplicities
