"""Unit tests for hypergraph structure and metrics (vs networkx)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.families import cycle_query, line_query, star_query
from repro.core.hypergraph import Hypergraph


def to_networkx(hypergraph: Hypergraph) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(hypergraph.nodes)
    for edge in hypergraph.edges:
        members = sorted(edge)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                graph.add_edge(u, v)
    return graph


class TestConstruction:
    def test_edge_names_default(self):
        h = Hypergraph(("a", "b"), (frozenset({"a", "b"}),))
        assert h.edge_names == ("e0",)

    def test_edge_names_length_checked(self):
        with pytest.raises(ValueError, match="parallel"):
            Hypergraph(("a",), (frozenset({"a"}),), ("e0", "e1"))

    def test_edge_outside_nodes_rejected(self):
        with pytest.raises(ValueError, match="not within nodes"):
            Hypergraph(("a",), (frozenset({"a", "b"}),))


class TestAdjacencyAndComponents:
    def test_adjacency_of_triangle(self, triangle):
        adjacency = triangle.hypergraph.adjacency
        assert adjacency["x1"] == {"x2", "x3"}

    def test_isolated_node_is_singleton_component(self):
        h = Hypergraph(("a", "b", "c"), (frozenset({"a", "b"}),))
        components = h.connected_components
        assert frozenset({"c"}) in components
        assert len(components) == 2

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_connectivity_matches_networkx(self, k):
        h = cycle_query(k).hypergraph
        assert h.is_connected == nx.is_connected(to_networkx(h))


class TestMetrics:
    @pytest.mark.parametrize(
        "query,radius,diameter",
        [
            (line_query(4), 2, 4),
            (line_query(5), 3, 5),
            (cycle_query(5), 2, 2),
            (cycle_query(6), 3, 3),
            (star_query(4), 1, 2),
        ],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_radius_and_diameter(self, query, radius, diameter):
        h = query.hypergraph
        assert h.radius == radius
        assert h.diameter == diameter

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_metrics_match_networkx(self, k):
        h = line_query(k).hypergraph
        graph = to_networkx(h)
        assert h.radius == nx.radius(graph)
        assert h.diameter == nx.diameter(graph)

    def test_center_has_minimum_eccentricity(self):
        h = line_query(6).hypergraph
        assert h.eccentricity(h.center) == h.radius

    def test_distance_symmetry(self):
        h = cycle_query(7).hypergraph
        assert h.distance("x1", "x4") == h.distance("x4", "x1")

    def test_distance_unreachable_raises(self):
        h = Hypergraph(("a", "b"), (frozenset({"a"}), frozenset({"b"})))
        with pytest.raises(ValueError, match="unreachable"):
            h.distance("a", "b")

    def test_unknown_start_raises(self):
        h = Hypergraph(("a",), (frozenset({"a"}),))
        with pytest.raises(KeyError):
            h.distances_from("zz")

    def test_eccentricity_requires_connected(self):
        h = Hypergraph(("a", "b"), (frozenset({"a"}), frozenset({"b"})))
        with pytest.raises(ValueError, match="disconnected"):
            h.eccentricity("a")


class TestEdgeStructure:
    def test_edge_adjacency_of_chain(self, chain4):
        adjacency = chain4.hypergraph.edge_adjacency
        assert adjacency["S1"] == {"S2"}
        assert adjacency["S2"] == {"S1", "S3"}

    def test_edge_components_splits_gaps(self, chain4):
        components = chain4.hypergraph.edge_components(["S1", "S2", "S4"])
        assert set(components) == {("S1", "S2"), ("S4",)}

    def test_edge_components_unknown_edge(self, chain4):
        with pytest.raises(KeyError, match="unknown edges"):
            chain4.hypergraph.edge_components(["S9"])

    def test_shortest_edge_path_from_endpoint(self):
        h = line_query(4).hypergraph
        assert h.shortest_edge_path("x0", "S4") == ("S1", "S2", "S3", "S4")

    def test_shortest_edge_path_starts_at_node(self):
        h = cycle_query(5).hypergraph
        path = h.shortest_edge_path("x1", "S3")
        assert len(path) <= 3
        first_edge_vars = h.edges[list(h.edge_names).index(path[0])]
        assert "x1" in first_edge_vars

    def test_shortest_edge_path_unknown_edge(self):
        h = line_query(2).hypergraph
        with pytest.raises(KeyError):
            h.shortest_edge_path("x0", "S9")

    def test_shortest_edge_path_unreachable(self):
        h = Hypergraph(
            ("a", "b"), (frozenset({"a"}), frozenset({"b"})), ("E1", "E2")
        )
        with pytest.raises(ValueError, match="unreachable"):
            h.shortest_edge_path("a", "E2")
