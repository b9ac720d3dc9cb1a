"""Auxiliary input generators for the paper's experiments.

* :func:`skewed_relation` -- Zipf-like skew, used to contrast the
  matching-database assumption (the paper defers skew to [17], we keep
  a generator so tests can show where HC's load guarantee needs the
  skew-free assumption).
* :func:`skewed_database` -- one skewed relation per query atom (heavy
  hitter on the first attribute), the input family of
  ``repro query --skewed`` and the skew-aware parity/speedup suites.
* :func:`witness_database` -- the Proposition 3.12 instances:
  ``R(w), S1(w,x), S2(x,y), S3(y,z), T(z)`` with ``S_i`` matchings and
  ``R, T`` uniform subsets of size ``ceil(sqrt(n))``.
* :func:`layered_path_graph` -- Theorem 4.10's hard instances for
  CONNECTED-COMPONENTS: ``k + 1`` layers of ``n_layer`` vertices with a
  random perfect matching between adjacent layers, so each component is
  a path of length ``k`` -- one per tuple of the corresponding ``L_k``.
* :func:`dense_graph` -- dense random graphs for the contrast with the
  two-round algorithm of Karloff et al. [16].
* :func:`matching_database_columnar` / :func:`skewed_database_columnar`
  -- the large-``n`` (10^5 - 10^6) generators: columns are built
  directly as int64 arrays (uniform fills in bounded chunks), so no
  Python tuple is ever materialised and peak memory stays within a
  small constant of the output size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy

from repro.core.query import ConjunctiveQuery
from repro.data.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    check_backend,
    sorted_unique_rows,
)
from repro.data.database import Database, DataError, Relation
from repro.data.matching import random_matching, random_permutation

# Chunk size (rows) for the large-n generators' random fills: bounds
# transient allocations without affecting the generated values.
GENERATOR_CHUNK_ROWS = 1 << 18


def skewed_relation(
    name: str,
    n: int,
    rng: random.Random,
    heavy_fraction: float = 0.5,
) -> Relation:
    """A binary relation where one value is ``heavy``: it appears in a
    ``heavy_fraction`` share of first-column positions.

    Not a matching: demonstrates load imbalance under HC hashing.
    """
    if not 0 <= heavy_fraction <= 1:
        raise DataError(f"heavy_fraction must be in [0,1], got {heavy_fraction}")
    heavy_count = int(n * heavy_fraction)
    rows = []
    for i in range(1, n + 1):
        left = 1 if i <= heavy_count else rng.randint(1, n)
        rows.append((left, rng.randint(1, n)))
    return Relation.from_tuples(name, rows, domain_size=n, arity=2)


def skewed_database(
    query: ConjunctiveQuery,
    n: int,
    rng: random.Random | int | None = None,
    heavy_fraction: float = 0.5,
) -> Database:
    """A skewed instance for every relation of a query.

    Each relation gets ``n`` rows whose *first* attribute funnels a
    ``heavy_fraction`` share of rows into the value ``1`` (the heavy
    hitter); every other position is uniform in ``[1, n]``.  The
    result violates the matching assumption on every join attribute in
    first position -- the adversarial regime the skew-aware executor
    (and ``repro query --skewed``) is built for.
    """
    if not 0 <= heavy_fraction <= 1:
        raise DataError(
            f"heavy_fraction must be in [0,1], got {heavy_fraction}"
        )
    if isinstance(rng, int) or rng is None:
        rng = random.Random(rng or 0)
    heavy_count = int(n * heavy_fraction)
    relations = []
    for atom in query.atoms:
        rows = []
        for i in range(1, n + 1):
            first = 1 if i <= heavy_count else rng.randint(1, n)
            rows.append(
                (first,)
                + tuple(rng.randint(1, n) for _ in range(atom.arity - 1))
            )
        relations.append(
            Relation.from_tuples(
                atom.name, rows, domain_size=n, arity=atom.arity
            )
        )
    return Database.from_relations(relations)


def matching_database_columnar(
    query: ConjunctiveQuery,
    n: int,
    seed: int = 0,
    backend: str | None = None,
) -> ColumnarDatabase:
    """A uniform matching database built straight into columns.

    The large-``n`` counterpart of
    :func:`repro.data.matching.matching_database`: each atom's
    relation is one ascending first column plus ``arity - 1``
    independent uniform permutations, written directly as int64 arrays
    -- no Python tuples, no per-row loop, already lexicographically
    sorted and duplicate-free (the first column is strictly
    increasing), so construction is O(n) memory with a small constant.

    Draws come from ``numpy.random.default_rng`` (seeded), so
    instances are reproducible but *not* equal to the row generator's
    for the same seed.

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
    relations = []
    for atom in query.atoms:
        columns = [numpy.arange(1, n + 1, dtype=numpy.int64)]
        for _ in range(atom.arity - 1):
            columns.append(
                rng.permutation(n).astype(numpy.int64) + 1
            )
        relations.append(
            _columnar_relation(atom.name, tuple(columns), n)
        )
    return ColumnarDatabase.from_relations(relations)


def skewed_database_columnar(
    query: ConjunctiveQuery,
    n: int,
    seed: int = 0,
    heavy_fraction: float = 0.5,
    chunk_rows: int = GENERATOR_CHUNK_ROWS,
) -> ColumnarDatabase:
    """A skewed instance per atom, generated chunk-wise into columns.

    The large-``n`` counterpart of :func:`skewed_database`: a
    ``heavy_fraction`` share of each relation's first column is the
    heavy value ``1``, every other position is uniform in ``[1, n]``.
    Uniform fills happen in ``chunk_rows``-row slices of preallocated
    arrays, so transient memory stays bounded regardless of ``n``;
    rows are then deduplicated and sorted in one vectorized pass
    (mirroring :class:`~repro.data.database.Relation` semantics).

    Args:
        query: fixes the vocabulary.
        n: rows generated per relation (before dedup).
        seed: generator seed.
        heavy_fraction: share of first-column positions set to ``1``.
        chunk_rows: rows filled per chunk (memory bound knob).
    """
    if not 0 <= heavy_fraction <= 1:
        raise DataError(
            f"heavy_fraction must be in [0,1], got {heavy_fraction}"
        )
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
        table = sorted_unique_rows(numpy.column_stack(columns))
        sorted_columns = tuple(
            numpy.ascontiguousarray(table[:, position])
            for position in range(atom.arity)
        )
        relations.append(
            _columnar_relation(atom.name, sorted_columns, n)
        )
    return ColumnarDatabase.from_relations(relations)


def _columnar_relation(
    name: str, columns: tuple, n: int
) -> ColumnarRelation:
    """Wrap generated int64 columns (already sorted+unique) directly."""
    return ColumnarRelation(
        name=name, arity=len(columns), columns=columns, domain_size=n
    )


def witness_database(n: int, rng: random.Random | int | None = None) -> Database:
    """Proposition 3.12's input family.

    ``S1, S2, S3`` are uniform 2-dimensional matchings; ``R`` and ``T``
    are uniform random subsets of ``[n]`` of size ``ceil(sqrt(n))``,
    stored as unary relations.  The expected number of query answers is
    1, making JOIN-WITNESS a needle-in-a-haystack problem.
    """
    if isinstance(rng, int) or rng is None:
        rng = random.Random(rng or 0)
    size = math.ceil(math.sqrt(n))
    r_values = rng.sample(range(1, n + 1), size)
    t_values = rng.sample(range(1, n + 1), size)
    relations = [
        Relation.from_tuples(
            "R", [(v,) for v in r_values], domain_size=n, arity=1
        ),
        random_matching("S1", 2, n, rng),
        random_matching("S2", 2, n, rng),
        random_matching("S3", 2, n, rng),
        Relation.from_tuples(
            "T", [(v,) for v in t_values], domain_size=n, arity=1
        ),
    ]
    return Database(
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

    @property
    def num_components(self) -> int:
        """Number of connected components."""
        return len(set(self.labels.values()))

    def edge_relation(self, domain_size: int | None = None) -> Relation:
        """The edge set as a binary relation ``E`` (both orientations)."""
        n = domain_size or self.num_vertices
        rows = [(u, v) for u, v in self.edges] + [
            (v, u) for u, v in self.edges
        ]
        return Relation.from_tuples("E", rows, domain_size=n, arity=2)


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
    if isinstance(rng, int) or rng is None:
        rng = random.Random(rng or 0)

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
    if isinstance(rng, int) or rng is None:
        rng = random.Random(rng or 0)
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
