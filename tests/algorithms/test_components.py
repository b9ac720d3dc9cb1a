"""Unit tests for CONNECTED-COMPONENTS algorithms (Theorem 4.10)."""

from __future__ import annotations

import pytest

from repro.algorithms.components import (
    run_dense_two_round,
    run_hash_to_min,
)
from repro.data.generators import dense_graph, layered_path_graph


class TestHashToMin:
    @pytest.mark.parametrize("layers,size", [(1, 5), (3, 8), (6, 10)])
    def test_correct_on_layered_graphs(self, layers, size):
        graph = layered_path_graph(layers, size, rng=4)
        result = run_hash_to_min(graph, p=4, seed=1)
        assert result.correct
        assert result.labels == graph.labels

    def test_correct_on_random_graphs(self):
        graph = dense_graph(40, 60, rng=2)
        result = run_hash_to_min(graph, p=4, seed=0)
        assert result.correct

    def test_rounds_grow_with_path_length(self):
        rounds = []
        for layers in (2, 8, 32):
            graph = layered_path_graph(layers, 8, rng=7)
            result = run_hash_to_min(graph, p=8, seed=2)
            assert result.correct
            rounds.append(result.rounds_used)
        assert rounds == sorted(rounds)
        assert rounds[-1] > rounds[0]

    def test_rounds_logarithmic_in_diameter(self):
        """Hash-to-Min converges in O(log d) rounds."""
        graph = layered_path_graph(64, 4, rng=3)
        result = run_hash_to_min(graph, p=8, seed=3, max_rounds=32)
        assert result.correct
        assert result.rounds_used <= 12  # log2(64) + slack

    def test_single_component(self):
        graph = layered_path_graph(5, 1, rng=0)
        result = run_hash_to_min(graph, p=2, seed=0)
        assert result.correct
        assert set(result.labels.values()) == {1}

    def test_isolated_vertices(self):
        from repro.data.generators import GraphInstance

        graph = GraphInstance(
            num_vertices=4,
            edges=((1, 2),),
            labels={1: 1, 2: 1, 3: 3, 4: 4},
        )
        result = run_hash_to_min(graph, p=2, seed=0)
        assert result.correct


class TestDenseTwoRound:
    def test_always_two_rounds(self):
        for p in (2, 8, 32):
            graph = dense_graph(40, 300, rng=1)
            result = run_dense_two_round(graph, p=p, seed=1)
            assert result.rounds_used == 2
            assert result.correct

    def test_correct_on_sparse_too(self):
        """Correctness never depends on density (only the load does)."""
        graph = layered_path_graph(6, 10, rng=5)
        result = run_dense_two_round(graph, p=4, seed=0)
        assert result.correct

    def test_forest_compression_bounds_coordinator_load(self):
        """The coordinator receives at most p * (n-1) forest edges,
        independent of m: that is the density win of [16]."""
        n, m, p = 60, 1200, 8
        graph = dense_graph(n, m, rng=6)
        result = run_dense_two_round(graph, p=p, seed=2)
        round1 = result.report.rounds[0]
        # Forest edges <= p * (n - 1), far below m.
        assert round1.total_tuples <= p * (n - 1)
        assert round1.total_tuples < m

    #: (graph, p, seed) -> per round, (coordinator tuples, broadcast
    #: tuples per worker); every tuple is an edge of 2 * 6 bits.
    PINNED_LOADS = [
        ((60, 1200, 6), 8, 2, (469, 60)),
        ((40, 300, 1), 2, 1, (78, 40)),
        ((40, 300, 1), 8, 1, (252, 40)),
        ((40, 300, 1), 32, 1, (299, 40)),
    ]

    @pytest.mark.parametrize("graph,p,seed,tuples", PINNED_LOADS)
    def test_loads_are_pinned(self, graph, p, seed, tuples):
        """Round 1 ships every forest to worker 0; round 2 broadcasts
        one label per vertex to all ``p`` workers."""
        n, m, rng = graph
        result = run_dense_two_round(
            dense_graph(n, m, rng=rng), p=p, seed=seed
        )
        forest, labels = tuples
        round1, round2 = result.report.rounds
        assert round1.received_tuples == (forest,) + (0,) * (p - 1)
        assert round1.received_bits == (forest * 12,) + (0,) * (p - 1)
        assert round2.received_tuples == (labels,) * p
        assert round2.received_bits == (labels * 12,) * p


class TestShapeContrast:
    def test_sparse_needs_more_rounds_than_dense_at_scale(self):
        p = 64
        sparse = layered_path_graph(
            num_layers=8, layer_size=16, rng=8
        )
        dense = dense_graph(num_vertices=8 * p, num_edges=4096, rng=8)
        sparse_rounds = run_hash_to_min(sparse, p=p, seed=4).rounds_used
        dense_rounds = run_dense_two_round(dense, p=p, seed=4).rounds_used
        assert dense_rounds == 2
        assert sparse_rounds > 2


class TestHashToMinEngine:
    """Hash-to-Min runs on the shared round engine."""

    def test_rounds_counted_on_simulator(self):
        """Every iteration is a real engine round (no side channel)."""
        graph = layered_path_graph(4, 6, rng=1)
        result = run_hash_to_min(graph, p=4, seed=0)
        assert result.rounds_used == result.report.num_rounds
        assert result.rounds_used >= 1
