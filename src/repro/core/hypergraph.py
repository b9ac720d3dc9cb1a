"""Query hypergraphs and their metric structure (Sections 2.3 and 4).

The hypergraph of a query has one node per variable and one hyperedge
per atom.  Two nodes are *adjacent* when some hyperedge contains both;
distances, eccentricities, the radius ``rad(q)`` and the diameter
``diam(q)`` -- which drive the multi-round bounds of Section 4 -- are
all measured in this adjacency graph.

The implementation is dependency-free (BFS over an adjacency dict);
``networkx`` is used only in tests as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True)
class Hypergraph:
    """An immutable hypergraph over named nodes.

    Attributes:
        nodes: node names (query variables) in a fixed order.
        edges: hyperedges as frozensets of node names (atom variables).
        edge_names: optional parallel tuple of edge labels (atom names).
    """

    nodes: tuple[str, ...]
    edges: tuple[frozenset[str], ...]
    edge_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self, "edges", tuple(frozenset(edge) for edge in self.edges)
        )
        if not self.edge_names:
            object.__setattr__(
                self,
                "edge_names",
                tuple(f"e{i}" for i in range(len(self.edges))),
            )
        if len(self.edge_names) != len(self.edges):
            raise ValueError("edge_names must parallel edges")
        node_set = set(self.nodes)
        for edge in self.edges:
            if not edge <= node_set:
                raise ValueError(f"edge {set(edge)} not within nodes")

    # -- adjacency ----------------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        """Co-occurrence adjacency: neighbours sharing some hyperedge."""
        neighbours: dict[str, set[str]] = {node: set() for node in self.nodes}
        for edge in self.edges:
            for node in edge:
                neighbours[node] |= edge
        return {
            node: frozenset(adjacent - {node})
            for node, adjacent in neighbours.items()
        }

    @cached_property
    def connected_components(self) -> tuple[frozenset[str], ...]:
        """Node sets of the connected components, in first-seen order.

        Isolated nodes (in no hyperedge) form singleton components.
        """
        seen: set[str] = set()
        components: list[frozenset[str]] = []
        for start in self.nodes:
            if start in seen:
                continue
            component = self._bfs_reachable(start)
            seen |= component
            components.append(frozenset(component))
        return tuple(components)

    @property
    def is_connected(self) -> bool:
        """True when the hypergraph has exactly one component."""
        return len(self.connected_components) == 1

    def _bfs_reachable(self, start: str) -> set[str]:
        reachable = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbour in self.adjacency[node]:
                if neighbour not in reachable:
                    reachable.add(neighbour)
                    queue.append(neighbour)
        return reachable

    # -- metric -------------------------------------------------------------

    def distances_from(self, start: str) -> dict[str, int]:
        """BFS distances from ``start`` to every reachable node."""
        if start not in self.adjacency:
            raise KeyError(start)
        distances = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbour in self.adjacency[node]:
                if neighbour not in distances:
                    distances[neighbour] = distances[node] + 1
                    queue.append(neighbour)
        return distances

    def distance(self, u: str, v: str) -> int:
        """Shortest-path distance ``d(u, v)``.

        Raises:
            ValueError: if ``v`` is unreachable from ``u``.
        """
        distances = self.distances_from(u)
        if v not in distances:
            raise ValueError(f"{v!r} unreachable from {u!r}")
        return distances[v]

    def eccentricity(self, node: str) -> int:
        """``max_v d(node, v)`` over the node's component."""
        distances = self.distances_from(node)
        if len(distances) != len(self.nodes):
            raise ValueError("eccentricity undefined: hypergraph disconnected")
        return max(distances.values())

    @cached_property
    def radius(self) -> int:
        """``rad = min_u max_v d(u, v)`` (connected hypergraphs only)."""
        return min(self.eccentricity(node) for node in self.nodes)

    @cached_property
    def diameter(self) -> int:
        """``diam = max_{u,v} d(u, v)`` (connected hypergraphs only)."""
        return max(self.eccentricity(node) for node in self.nodes)

    @cached_property
    def center(self) -> str:
        """A node of minimum eccentricity (first in node order)."""
        best = None
        best_ecc = None
        for node in self.nodes:
            ecc = self.eccentricity(node)
            if best_ecc is None or ecc < best_ecc:
                best, best_ecc = node, ecc
        assert best is not None
        return best

    # -- edge-level structure ------------------------------------------------

    @cached_property
    def edge_adjacency(self) -> dict[str, frozenset[str]]:
        """Atom-level adjacency: edges sharing at least one node."""
        result: dict[str, set[str]] = {name: set() for name in self.edge_names}
        for i, edge_i in enumerate(self.edges):
            for j in range(i + 1, len(self.edges)):
                if edge_i & self.edges[j]:
                    result[self.edge_names[i]].add(self.edge_names[j])
                    result[self.edge_names[j]].add(self.edge_names[i])
        return {name: frozenset(adj) for name, adj in result.items()}

    def edge_components(self, edge_subset: Iterable[str]) -> tuple[tuple[str, ...], ...]:
        """Connected components of a *subset* of edges (by edge name).

        Two edges are in the same component when they are linked by a
        chain of shared variables within the subset.  Used to contract
        queries (Section 2.3) component by component.
        """
        subset = list(edge_subset)
        index = {name: i for i, name in enumerate(self.edge_names)}
        unknown = [name for name in subset if name not in index]
        if unknown:
            raise KeyError(f"unknown edges: {unknown}")
        remaining = set(subset)
        components: list[tuple[str, ...]] = []
        while remaining:
            start = min(remaining, key=lambda name: index[name])
            component = {start}
            frontier = deque([start])
            while frontier:
                current = frontier.popleft()
                current_vars = self.edges[index[current]]
                for other in list(remaining - component):
                    if current_vars & self.edges[index[other]]:
                        component.add(other)
                        frontier.append(other)
            remaining -= component
            components.append(
                tuple(sorted(component, key=lambda name: index[name]))
            )
        return tuple(components)

    def shortest_edge_path(self, start_node: str, target_edge: str) -> tuple[str, ...]:
        """A shortest sequence of edge names from ``start_node`` to an edge.

        The first edge of the result contains ``start_node``; consecutive
        edges share a variable; the last edge is ``target_edge``.  Used
        by the plan builder (Lemma 4.3) to cover all atoms with paths
        out of the hypergraph center.
        """
        index = {name: i for i, name in enumerate(self.edge_names)}
        if target_edge not in index:
            raise KeyError(target_edge)
        initial = [
            name
            for name, i in index.items()
            if start_node in self.edges[i]
        ]
        # BFS over edges.
        parents: dict[str, str | None] = {name: None for name in initial}
        queue = deque(initial)
        while queue:
            current = queue.popleft()
            if current == target_edge:
                path = [current]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])  # type: ignore[arg-type]
                return tuple(reversed(path))
            for neighbour in self.edge_adjacency[current]:
                if neighbour not in parents:
                    parents[neighbour] = current
                    queue.append(neighbour)
        raise ValueError(
            f"edge {target_edge!r} unreachable from node {start_node!r}"
        )
