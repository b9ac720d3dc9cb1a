"""Input generators for the paper's experiments.

Every generator returns columns: a
:class:`~repro.data.columnar.ColumnarDatabase` of int64 arrays, built
without a Python tuple per row.

* :func:`matching_database` -- uniform random matching databases
  (Section 2.5).  An ``a``-dimensional matching over ``[n]`` has
  exactly ``n`` tuples and every column is a permutation of ``1..n``;
  for ``a = 2`` an instance is a permutation, for ``a = 3`` a set of
  ``n`` node-disjoint triangles.  There are exactly ``(n!)^(a-1)``
  such matchings, and :func:`random_matching` draws uniformly from
  them by fixing the first column to ``1..n`` (every matching has a
  unique such presentation) and sampling ``a - 1`` independent
  uniform permutations for the remaining columns.  These are the
  paper's lower-bound *and* upper-bound inputs: skew-free by
  construction, with ``E[|q(I)|] = n^(1 + chi(q))`` (Lemma 3.4).
* :func:`skewed_database` -- one skewed relation per query atom (heavy
  hitter on the first attribute), the input family of
  ``repro query --skewed`` and the heavy-hitter parity/ablation suites;
  it contrasts the matching-database assumption (the paper defers
  skew to [17]).
* :func:`witness_database` -- the Proposition 3.12 instances:
  ``R(w), S1(w,x), S2(x,y), S3(y,z), T(z)`` with ``S_i`` matchings and
  ``R, T`` uniform subsets of size ``ceil(sqrt(n))``.
* :func:`layered_path_graph` -- Theorem 4.10's hard instances for
  CONNECTED-COMPONENTS: ``k + 1`` layers of ``n_layer`` vertices with a
  random perfect matching between adjacent layers, so each component is
  a path of length ``k`` -- one per tuple of the corresponding ``L_k``.
* :func:`dense_graph` -- dense random graphs for the contrast with the
  two-round algorithm of Karloff et al. [16].

:func:`matching_database` and :func:`skewed_database` draw from a
seeded :class:`random.Random`; :func:`matching_database_columnar` and
:func:`skewed_database_columnar` draw the same distributions from
numpy streams (uniform fills in bounded chunks), the large-``n``
(10^5 - 10^6) path.  Each pair shares one relation builder, but the
two streams give different instances for the same seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Sequence

import numpy

from repro.core.query import ConjunctiveQuery
from repro.data.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    DataError,
    check_backend,
)

# Chunk size (rows) for the large-n generators' random fills: bounds
# transient allocations without affecting the generated values.
GENERATOR_CHUNK_ROWS = 1 << 18


def _seeded(rng: random.Random | int | None) -> random.Random:
    """``rng`` itself, or a generator seeded by it (None: seed 0)."""
    if isinstance(rng, int) or rng is None:
        return random.Random(rng or 0)
    return rng


def random_permutation(n: int, rng: random.Random) -> list[int]:
    """A uniform permutation of ``[1, n]`` (Fisher-Yates via shuffle)."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return values


def _matching_relation(
    name: str, n: int, permutations: Sequence[Any]
) -> ColumnarRelation:
    """The matching whose first column is ``1..n`` and whose other
    columns are ``permutations`` of ``[1, n]``: strictly ascending in
    its first column, so already sorted and duplicate-free."""
    columns = [numpy.arange(1, n + 1, dtype=numpy.int64)]
    columns += [
        numpy.asarray(permutation, dtype=numpy.int64)
        for permutation in permutations
    ]
    return ColumnarRelation(
        name=name, arity=len(columns), columns=tuple(columns), domain_size=n
    )


def random_matching(
    name: str, arity: int, n: int, rng: random.Random
) -> ColumnarRelation:
    """A uniform random ``arity``-dimensional matching over ``[n]``.

    Args:
        name: relation symbol for the instance.
        arity: number of columns (>= 1).
        n: domain size; the matching has exactly ``n`` tuples.
        rng: source of randomness (seeded for reproducibility).
    """
    if arity < 1:
        raise DataError(f"{name}: arity must be >= 1, got {arity}")
    if n < 1:
        raise DataError(f"{name}: domain size must be >= 1, got {n}")
    return _matching_relation(
        name, n, [random_permutation(n, rng) for _ in range(arity - 1)]
    )


def matching_database(
    query: ConjunctiveQuery,
    n: int,
    rng: random.Random | int | None = None,
) -> ColumnarDatabase:
    """A uniform random matching database for a query's vocabulary.

    Each atom ``S_j`` of arity ``a_j`` receives an independent uniform
    ``a_j``-dimensional matching (:func:`random_matching`).

    Args:
        query: fixes the vocabulary (names and arities).
        n: the domain size.
        rng: a :class:`random.Random`, an int seed, or None (seed 0).
    """
    rng = _seeded(rng)
    return ColumnarDatabase(
        relations={
            atom.name: random_matching(atom.name, atom.arity, n, rng)
            for atom in query.atoms
        },
        domain_size=n,
    )


def matching_database_columnar(
    query: ConjunctiveQuery,
    n: int,
    seed: int = 0,
    backend: str | None = None,
) -> ColumnarDatabase:
    """A uniform matching database drawn from a numpy stream.

    The large-``n`` counterpart of :func:`matching_database`: each
    atom's ``arity - 1`` permutations come from
    ``numpy.random.default_rng(seed)`` with no per-row loop, so
    construction is O(n) memory with a small constant.  Instances are
    reproducible but *not* equal to :func:`matching_database`'s for
    the same seed.

    Args:
        query: fixes the vocabulary (names and arities).
        n: the domain size (= tuples per relation).
        seed: generator seed.
        backend: accepted for compatibility; only ``None`` or
            ``"numpy"`` (the one engine) are valid.

    Raises:
        ValueError: for any other ``backend``.
    """
    check_backend(backend)
    rng = numpy.random.default_rng(seed)
    return ColumnarDatabase.from_relations(
        _matching_relation(
            atom.name,
            n,
            [rng.permutation(n) + 1 for _ in range(atom.arity - 1)],
        )
        for atom in query.atoms
    )


def _check_heavy_fraction(heavy_fraction: float) -> None:
    if not 0 <= heavy_fraction <= 1:
        raise DataError(
            f"heavy_fraction must be in [0,1], got {heavy_fraction}"
        )


def skewed_database(
    query: ConjunctiveQuery,
    n: int,
    rng: random.Random | int | None = None,
    heavy_fraction: float = 0.5,
) -> ColumnarDatabase:
    """A skewed instance for every relation of a query.

    Each relation gets ``n`` rows (before dedup) whose *first*
    attribute funnels a ``heavy_fraction`` share of rows into the
    value ``1`` (the heavy hitter); every other position is uniform in
    ``[1, n]``, drawn row by row.  The result violates the matching
    assumption on every join attribute in first position -- the
    adversarial regime HyperCube's heavy-hitter binding (and
    ``repro query --skewed``) is built for.
    """
    _check_heavy_fraction(heavy_fraction)
    rng = _seeded(rng)
    heavy_count = int(n * heavy_fraction)
    relations = {}
    for atom in query.atoms:
        values = []
        for i in range(1, n + 1):
            values.append(1 if i <= heavy_count else rng.randint(1, n))
            values.extend(rng.randint(1, n) for _ in range(atom.arity - 1))
        table = numpy.array(values, dtype=numpy.int64).reshape(n, atom.arity)
        relations[atom.name] = ColumnarRelation.from_table(
            atom.name, table, n
        )
    return ColumnarDatabase(relations=relations, domain_size=n)


def skewed_database_columnar(
    query: ConjunctiveQuery,
    n: int,
    seed: int = 0,
    heavy_fraction: float = 0.5,
    chunk_rows: int = GENERATOR_CHUNK_ROWS,
) -> ColumnarDatabase:
    """A skewed instance per atom, drawn chunk-wise from numpy streams.

    The large-``n`` counterpart of :func:`skewed_database`: a
    ``heavy_fraction`` share of each relation's first column is the
    heavy value ``1``, every other position is uniform in ``[1, n]``.
    Uniform fills happen in ``chunk_rows``-row slices of preallocated
    arrays, so transient memory stays bounded regardless of ``n``;
    rows are then deduplicated and sorted in one vectorized pass.

    Args:
        query: fixes the vocabulary.
        n: rows generated per relation (before dedup).
        seed: generator seed.
        heavy_fraction: share of first-column positions set to ``1``.
        chunk_rows: rows filled per chunk (memory bound knob).
    """
    _check_heavy_fraction(heavy_fraction)
    if chunk_rows < 1:
        raise DataError(f"chunk_rows must be >= 1, got {chunk_rows}")
    root = numpy.random.SeedSequence(seed)
    heavy_count = int(n * heavy_fraction)
    relations = []
    for atom_sequence, atom in zip(
        root.spawn(len(query.atoms)), query.atoms
    ):
        columns = [
            numpy.empty(n, dtype=numpy.int64)
            for _ in range(atom.arity)
        ]
        columns[0][:heavy_count] = 1
        # One independent stream per column, drawn sequentially in
        # chunks: the generated instance is invariant under
        # ``chunk_rows`` (the knob only bounds transient memory).
        streams = [
            numpy.random.default_rng(column_sequence)
            for column_sequence in atom_sequence.spawn(atom.arity)
        ]
        for start in range(0, n, chunk_rows):
            end = min(start + chunk_rows, n)
            for position, column in enumerate(columns):
                fill_start = max(start, heavy_count) if position == 0 else start
                if fill_start < end:
                    column[fill_start:end] = streams[position].integers(
                        1, n + 1, size=end - fill_start, dtype=numpy.int64
                    )
        relations.append(
            ColumnarRelation.from_table(
                atom.name, numpy.column_stack(columns), n
            )
        )
    return ColumnarDatabase.from_relations(relations)


def witness_database(
    n: int, rng: random.Random | int | None = None
) -> ColumnarDatabase:
    """Proposition 3.12's input family.

    ``S1, S2, S3`` are uniform 2-dimensional matchings; ``R`` and ``T``
    are uniform random subsets of ``[n]`` of size ``ceil(sqrt(n))``,
    stored as unary relations.  The expected number of query answers is
    1, making JOIN-WITNESS a needle-in-a-haystack problem.
    """
    rng = _seeded(rng)
    size = math.ceil(math.sqrt(n))
    r_values = rng.sample(range(1, n + 1), size)
    t_values = rng.sample(range(1, n + 1), size)
    relations = [
        ColumnarRelation.from_table(
            "R", numpy.array([r_values], dtype=numpy.int64).T, n
        ),
        random_matching("S1", 2, n, rng),
        random_matching("S2", 2, n, rng),
        random_matching("S3", 2, n, rng),
        ColumnarRelation.from_table(
            "T", numpy.array([t_values], dtype=numpy.int64).T, n
        ),
    ]
    return ColumnarDatabase(
        relations={relation.name: relation for relation in relations},
        domain_size=n,
    )


@dataclass(frozen=True)
class GraphInstance:
    """An undirected graph with ground-truth component labels.

    Attributes:
        num_vertices: vertices are ``1..num_vertices``.
        edges: undirected edges as ``(u, v)`` with ``u < v``.
        labels: ground truth: ``labels[v]`` is the smallest vertex in
            the component of ``v`` (the canonical component id).
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    labels: dict[int, int]


def _component_labels(
    num_vertices: int, edges: list[tuple[int, int]]
) -> dict[int, int]:
    """Union-find ground truth, labelling by the component minimum."""
    parent = list(range(num_vertices + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {v: find(v) for v in range(1, num_vertices + 1)}


def layered_path_graph(
    num_layers: int,
    layer_size: int,
    rng: random.Random | int | None = None,
) -> GraphInstance:
    """Theorem 4.10's hard instance: paths threaded through layers.

    Vertices split into ``num_layers + 1`` layers ``P_1..P_{k+1}`` of
    ``layer_size`` vertices each; a uniform random perfect matching
    joins adjacent layers.  Every component is a path visiting one
    vertex per layer, so component discovery is exactly the ``L_k``
    join of the ``k`` inter-layer permutations.

    Args:
        num_layers: the path length ``k`` (>= 1).
        layer_size: vertices per layer (the ``n/(k+1)`` of the paper).
        rng: seed or generator.
    """
    if num_layers < 1:
        raise DataError(f"need num_layers >= 1, got {num_layers}")
    if layer_size < 1:
        raise DataError(f"need layer_size >= 1, got {layer_size}")
    rng = _seeded(rng)

    def vertex(layer: int, index: int) -> int:
        return layer * layer_size + index + 1

    edges: list[tuple[int, int]] = []
    for layer in range(num_layers):
        permutation = random_permutation(layer_size, rng)
        for index in range(layer_size):
            u = vertex(layer, index)
            v = vertex(layer + 1, permutation[index] - 1)
            edges.append((min(u, v), max(u, v)))
    num_vertices = (num_layers + 1) * layer_size
    return GraphInstance(
        num_vertices=num_vertices,
        edges=tuple(sorted(set(edges))),
        labels=_component_labels(num_vertices, edges),
    )


def dense_graph(
    num_vertices: int,
    num_edges: int,
    rng: random.Random | int | None = None,
) -> GraphInstance:
    """A uniform random graph with ``num_edges`` distinct edges.

    Dense inputs (``num_edges >> num_vertices``) are where the
    two-round spanning-forest algorithm of [16] applies; used as the
    contrast case in the CONNECTED-COMPONENTS experiment.
    """
    if num_vertices < 2:
        raise DataError(f"need >= 2 vertices, got {num_vertices}")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise DataError(
            f"{num_edges} edges > maximum {max_edges} for "
            f"{num_vertices} vertices"
        )
    rng = _seeded(rng)
    edges: set[tuple[int, int]] = set()
    while len(edges) < num_edges:
        u = rng.randint(1, num_vertices)
        v = rng.randint(1, num_vertices)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    edge_list = sorted(edges)
    return GraphInstance(
        num_vertices=num_vertices,
        edges=tuple(edge_list),
        labels=_component_labels(num_vertices, edge_list),
    )
