"""CONNECTED-COMPONENTS on the tuple-based MPC model (Theorem 4.10).

Two algorithms, matching the dichotomy the paper draws:

* :func:`run_hash_to_min` -- a sparse-graph algorithm in the
  tuple-based discipline: per round, every vertex pushes the smallest
  component id it knows to its neighbourhood, and its neighbourhood to
  that smallest vertex (the Hash-to-Min scheme).  On the layered path
  graphs of Theorem 4.10 (components are paths of length
  ``k ~ p^delta``) the number of rounds grows like ``Theta(log k) =
  Omega(log p)`` -- the shape the lower bound dictates: no constant
  number of rounds suffices when the space exponent is below 1.

* :func:`run_dense_two_round` -- the contrast from Karloff et al. [16]:
  when the graph is dense enough that a spanning forest of each
  worker's fragment fits in one worker's budget, two rounds suffice --
  round 1 computes local spanning forests and ships them to a
  coordinator, round 2 broadcasts final labels.

Both run on the simulator, so rounds and received bits are measured
exactly; ground truth comes from the generator's union-find labels.

Hash-to-Min runs on the shared round engine: each iteration is one
:class:`~repro.engine.steps.HashRoute` round (a 1-D grid hashing the
destination vertex) on a :class:`~repro.engine.executor.RoundEngine`,
so the route/ship loop is the same columnar code path every other
algorithm uses, ``backend="numpy"`` ships each round's messages as one
vectorized send, and the receiver-side state update reads the round's
fleet-wide delivery pool
(:meth:`~repro.mpc.simulator.MPCSimulator.relation_pool`) instead of
looping workers.  Its depth depends on the data (Theorem 4.10), so it
is a driver loop over engine rounds, not a compiled
:class:`~repro.engine.plan.Plan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.backend import NUMPY, resolve_backend
from repro.core.query import Atom
from repro.data.columnar import ColumnarRelation
from repro.data.database import bits_per_value
from repro.data.generators import GraphInstance
from repro.engine import GridSpec, HashRoute, RoundEngine
from repro.mpc.model import MPCConfig
from repro.mpc.routing import HashFamily
from repro.mpc.simulator import MPCSimulator
from repro.mpc.stats import SimulationReport


@dataclass(frozen=True)
class ComponentsResult:
    """Outcome of a connected-components run.

    Attributes:
        labels: component label per vertex (smallest vertex id in the
            component, so directly comparable with the ground truth).
        rounds_used: communication rounds executed.
        correct: whether the labels match the instance's ground truth.
        report: communication statistics.
    """

    labels: dict[int, int]
    rounds_used: int
    correct: bool
    report: SimulationReport


def _graph_bits(graph: GraphInstance) -> tuple[int, int]:
    """(input bits N, bits per edge tuple) for capacity accounting."""
    value_bits = bits_per_value(graph.num_vertices)
    return 2 * len(graph.edges) * 2 * value_bits, 2 * value_bits


def run_hash_to_min(
    graph: GraphInstance,
    p: int,
    eps: float = 0.0,
    seed: int = 0,
    max_rounds: int = 64,
    capacity_c: float = 8.0,
    backend: str | None = None,
) -> ComponentsResult:
    """Hash-to-Min connected components on the MPC simulator.

    State: each vertex ``v`` holds a cluster set ``C(v)`` (initially
    its closed neighbourhood).  Per round every vertex sends
    ``min C(v)`` to all members of ``C(v)`` and ``C(v)`` to
    ``min C(v)``; messages are (vertex, payload-vertex) *tuples* routed
    by hashing the destination vertex -- a legal tuple-based MPC
    algorithm.  Converges to ``C(v) = {component minimum}`` for every
    non-minimum vertex in ``O(log d)`` rounds on diameter-``d``
    components.

    Each iteration compiles to one engine round: the round's
    (destination, payload) pairs form a columnar relation routed by a
    :class:`~repro.engine.steps.HashRoute` over a 1-D grid on the
    destination vertex, and the receiving side folds the delivered
    pairs back into cluster state -- fleet-wide from the round's
    delivery pool under ``numpy``, per worker under ``pure``.  The
    iterate-until-fixpoint driver stops (without spending a round)
    when no vertex would learn anything new.

    Args:
        graph: the input graph with ground-truth labels.
        p: number of workers.
        eps: space exponent used only for capacity accounting.
        seed: vertex-partition hash seed.
        max_rounds: safety bound on iterations.
        capacity_c: capacity constant (loads are recorded, not
            enforced: the experiment reports them).
        backend: ``"pure"`` (default, reference), ``"numpy"`` or
            ``"auto"``; identical labels, rounds and loads either way.
    """
    backend = resolve_backend(backend)
    input_bits, edge_bits = _graph_bits(graph)
    simulator = MPCSimulator(
        MPCConfig(
            p=p,
            eps=Fraction(eps).limit_denominator(64),
            c=capacity_c,
            backend=backend,
        ),
        input_bits,
        enforce_capacity=False,
    )
    engine = RoundEngine(simulator)
    grid = GridSpec(
        variables=("v",), dimensions=(p,), hashes=HashFamily(seed)
    )

    # Vertex state lives at its home worker: closed neighbourhood sets.
    clusters: dict[int, set[int]] = {
        v: {v} for v in range(1, graph.num_vertices + 1)
    }
    for u, v in graph.edges:
        clusters[u].add(v)
        clusters[v].add(u)

    rounds = 0
    while rounds < max_rounds:
        # Compute the messages every vertex emits this round.
        outbound: dict[int, set[int]] = {
            v: set() for v in clusters
        }  # destination vertex -> payload vertices
        for vertex, cluster in clusters.items():
            smallest = min(cluster)
            for member in cluster:
                outbound.setdefault(member, set()).add(smallest)
            outbound.setdefault(smallest, set()).update(cluster)

        # Detect fixpoint before spending a communication round.
        converged = all(
            payload <= clusters.get(destination, set())
            for destination, payload in outbound.items()
        )
        if converged:
            break

        # One engine round: ship this iteration's (destination,
        # payload) pairs, hashed on the destination vertex.  A fresh
        # mailbox key per iteration keeps each round's delivery pool
        # single-use (workers still keep everything ever received).
        relation = f"cluster@{rounds + 1}"
        source = ColumnarRelation.from_rows(
            relation,
            [
                (destination, value)
                for destination, payload in outbound.items()
                for value in payload
            ],
            domain_size=graph.num_vertices,
            arity=2,
            backend=backend,
        )
        assert source.tuple_bits == edge_bits
        step = HashRoute(
            relation=relation,
            atom=Atom(name=relation, variables=("v", "u")),
            grid=grid,
            sender=0,  # a worker holding the pair forwards it
        )
        engine.run_round([step], {relation: source})
        rounds += 1

        clusters = _fold_delivered_pairs(
            simulator, relation, clusters, backend
        )

    labels = {v: min(c) for v, c in clusters.items()}
    # Propagate to a fixpoint locally (label of label), mirroring the
    # final local computation a coordinator performs at no extra round.
    changed = True
    while changed:
        changed = False
        for vertex in labels:
            root = labels[labels[vertex]]
            if root < labels[vertex]:
                labels[vertex] = root
                changed = True
    return ComponentsResult(
        labels=labels,
        rounds_used=simulator.report.num_rounds,
        correct=labels == graph.labels,
        report=simulator.report,
    )


def _fold_delivered_pairs(
    simulator: MPCSimulator,
    relation: str,
    clusters: dict[int, set[int]],
    backend: str,
) -> dict[int, set[int]]:
    """One Hash-to-Min state transition from the delivered pairs.

    Every vertex first contracts to its known minimum, then absorbs
    the payload vertices delivered to it this round.  Under ``numpy``
    the round's pairs are read fleet-wide from the delivery pool (no
    per-worker loop); under ``pure`` from each worker's mailbox rows.
    """
    new_clusters: dict[int, set[int]] = {
        v: {min(c)} for v, c in clusters.items()
    }
    if backend == NUMPY:
        pool = simulator.relation_pool(relation)
        if pool is not None and len(pool):
            destinations = pool.columns[0].tolist()
            payloads = pool.columns[1].tolist()
            for destination, value in zip(destinations, payloads):
                new_clusters.setdefault(destination, set()).add(value)
        return new_clusters
    for worker in range(simulator.num_workers):
        for destination, value in simulator.worker_rows(worker, relation):
            new_clusters.setdefault(destination, set()).add(value)
    return new_clusters


def run_dense_two_round(
    graph: GraphInstance,
    p: int,
    eps: float = 0.5,
    seed: int = 0,
    capacity_c: float = 8.0,
) -> ComponentsResult:
    """The two-round dense-graph algorithm in the style of [16].

    Round 1: edges are partitioned across workers by hash; each worker
    computes a spanning forest of its fragment (at most ``n - 1``
    edges, however dense the fragment) and sends the forest to a
    coordinator.  Round 2: the coordinator merges the ``p`` forests
    with union-find and broadcasts the final labels.

    On graphs with ``m >> n p`` the forest shrinkage makes both rounds
    fit the budget -- the density condition of [16]; the experiment
    records loads so the contrast with sparse inputs is visible.
    """
    input_bits, edge_bits = _graph_bits(graph)
    config = MPCConfig(p=p, eps=Fraction(eps).limit_denominator(64), c=capacity_c)
    simulator = MPCSimulator(config, input_bits, enforce_capacity=False)
    hashes = HashFamily(seed)

    # Round 1: partition edges, build local forests, ship to worker 0.
    fragments: dict[int, list[tuple[int, int]]] = {}
    for u, v in graph.edges:
        worker = hashes.hash_value("edge", u * graph.num_vertices + v, p)
        fragments.setdefault(worker, []).append((u, v))

    simulator.begin_round()
    for worker, edges in fragments.items():
        forest = _spanning_forest(edges)
        simulator.send(worker, 0, "forest", forest, edge_bits)
    simulator.end_round()

    # Coordinator merges forests.
    merged = simulator.worker_rows(0, "forest")
    labels = _union_find_labels(graph.num_vertices, merged)

    # Round 2: broadcast labels to every worker.
    label_rows = sorted(labels.items())
    simulator.begin_round()
    for worker in range(p):
        simulator.send(0, worker, "labels", label_rows, edge_bits)
    simulator.end_round()

    return ComponentsResult(
        labels=labels,
        rounds_used=simulator.report.num_rounds,
        correct=labels == graph.labels,
        report=simulator.report,
    )


def _spanning_forest(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Kruskal-style forest of an edge list (union-find)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent.setdefault(parent[x], parent[x])
            x = parent[x]
        return x

    forest = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            forest.append((u, v))
    return forest


def _union_find_labels(
    num_vertices: int, edges: list[tuple[int, ...]]
) -> dict[int, int]:
    """Labels (component minimum) from an edge list."""
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
