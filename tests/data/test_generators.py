"""Unit tests for the experiment input generators: matching databases
(Section 2.5), skewed and witness instances, and the graphs of
Theorem 4.10."""

from __future__ import annotations

import hashlib
import math
import random

import networkx as nx
import numpy
import pytest

from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import parse_query
from repro.data.columnar import DataError
from repro.data.generators import (
    dense_graph,
    layered_path_graph,
    matching_database,
    matching_database_columnar,
    random_matching,
    random_permutation,
    skewed_database,
    skewed_database_columnar,
    witness_database,
)
from tests.conftest import exact_answers


def rows_digest(database):
    """sha256 over every relation's name, arity, domain and int64 rows,
    in name order."""
    digest = hashlib.sha256()
    for name in sorted(database.relations):
        relation = database[name]
        digest.update(
            f"{name}/{relation.arity}/{relation.domain_size}:".encode()
        )
        table = numpy.column_stack(relation.columns)
        digest.update(table.astype("<i8").tobytes())
    return digest.hexdigest()


class TestSeededInstances:
    """Every seeded instance is pinned row for row: a moved draw fails."""

    @pytest.mark.parametrize(
        "build,digest",
        [
            (
                lambda: matching_database(cycle_query(3), n=200, rng=7),
                "d0699910d19149b87555c454a240322ec0628b9ef121504b9822ae26fc8330fd",
            ),
            (
                lambda: matching_database(
                    line_query(4), n=150, rng=random.Random(3)
                ),
                "c309726692d6200f19589ccbffbcc54109c67ea878a6765cf19c2b53260bde55",
            ),
            (
                lambda: skewed_database(
                    star_query(3), n=400, rng=0, heavy_fraction=0.3
                ),
                "4332790701d91d642a78801b89e3bb45b3ac836b6a542903002c52d880824686",
            ),
            (
                lambda: witness_database(100, rng=3),
                "2a9a27e67147d3113b5bece55505c4de5acf3dfa201577a9ec912c5e754f31bb",
            ),
            (
                lambda: matching_database_columnar(line_query(8), 500, seed=0),
                "bbebd0bc0db2b3e8ee5f142a1da06adfd9508bd2b7e0cbb0fafa9dcb5fdbea3c",
            ),
        ],
        ids=["matching-C3", "matching-L4", "skewed-T3", "witness", "columnar-L8"],
    )
    def test_digest(self, build, digest):
        assert rows_digest(build()) == digest

    def test_columns_are_sorted_int64(self):
        for database in (
            matching_database(cycle_query(3), n=50, rng=1),
            skewed_database(star_query(3), n=50, rng=1),
            witness_database(50, rng=1),
        ):
            for relation in database:
                table = numpy.column_stack(relation.columns)
                assert table.dtype == numpy.int64
                assert numpy.array_equal(table, numpy.unique(table, axis=0))


class TestRandomPermutation:
    def test_is_permutation(self, rng):
        values = random_permutation(20, rng)
        assert sorted(values) == list(range(1, 21))

    def test_seeded_reproducibility(self):
        a = random_permutation(10, random.Random(3))
        b = random_permutation(10, random.Random(3))
        assert a == b


class TestRandomMatching:
    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_every_column_is_permutation(self, arity, rng):
        relation = random_matching("S", arity, 15, rng)
        assert relation.is_matching()
        assert len(relation) == 15

    def test_first_column_canonical(self, rng):
        relation = random_matching("S", 3, 10, rng)
        assert relation.columns[0].tolist() == list(range(1, 11))

    def test_invalid_arguments(self, rng):
        with pytest.raises(DataError):
            random_matching("S", 0, 5, rng)
        with pytest.raises(DataError):
            random_matching("S", 2, 0, rng)

    def test_distribution_spreads(self):
        """Different seeds should give different matchings (n! >> 1)."""
        a = random_matching("S", 2, 30, random.Random(1))
        b = random_matching("S", 2, 30, random.Random(2))
        assert list(a.rows()) != list(b.rows())


class TestMatchingDatabase:
    def test_vocabulary_respected(self, triangle):
        database = matching_database(triangle, n=12, rng=0)
        assert set(database.relations) == {"S1", "S2", "S3"}
        assert all(relation.is_matching() for relation in database)

    def test_arities_follow_atoms(self):
        query = parse_query("R(x,y,z), S(z,w)")
        database = matching_database(query, n=8, rng=1)
        assert database["R"].arity == 3
        assert database["S"].arity == 2

    def test_columnar_instance_is_a_matching(self):
        query = parse_query("R(x,y,z), S(z,w)")
        database = matching_database_columnar(query, n=20, seed=2)
        assert database["R"].arity == 3
        assert database["S"].arity == 2
        for relation in database:
            assert relation.is_matching()
            assert relation.domain_size == 20
            assert relation.columns[0].tolist() == list(range(1, 21))

    def test_columnar_backend_checked(self):
        query = line_query(3)
        default = matching_database_columnar(query, n=30, seed=4)
        numpy_backend = matching_database_columnar(
            query, n=30, seed=4, backend="numpy"
        )
        assert rows_digest(numpy_backend) == rows_digest(default)
        with pytest.raises(ValueError, match="backend"):
            matching_database_columnar(query, n=30, seed=4, backend="pure")

    def test_int_seed_reproducible(self, chain4):
        a = matching_database(chain4, n=10, rng=5)
        b = matching_database(chain4, n=10, rng=5)
        assert rows_digest(a) == rows_digest(b)

    def test_expected_answer_count_matches_lemma_34(self):
        """Empirical check of E[|q(I)|] = n^{1+chi} for L3 and C3."""
        n, trials = 64, 30
        line = line_query(3)
        counts = [
            len(exact_answers(line, matching_database(line, n=n, rng=seed)))
            for seed in range(trials)
        ]
        # chi(L3) = 0: |q(I)| is exactly n for every matching input.
        assert all(count == n for count in counts)

        triangle = cycle_query(3)
        total = sum(
            len(
                exact_answers(
                    triangle, matching_database(triangle, n=n, rng=seed)
                )
            )
            for seed in range(trials)
        )
        # chi(C3) = -1: expected 1 answer; allow generous slack.
        assert total / trials < 5


class TestSkewedDatabase:
    def test_every_relation_skewed_on_first_position(self):
        query = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        database = skewed_database(query, n=100, rng=1, heavy_fraction=0.5)
        for name in ("S1", "S2"):
            relation = database[name]
            counts = numpy.bincount(relation.columns[0], minlength=101)
            assert counts[1] >= 30  # dedup may eat a few
            assert counts[1] >= 3 * counts[2:].max()
            assert not relation.is_matching()
            assert relation.domain_size == 100

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_fraction_validated(self, fraction):
        query = parse_query("q(x,y) = S(x, y)")
        with pytest.raises(DataError):
            skewed_database(query, n=10, heavy_fraction=fraction)


    def test_columnar_heavy_value_dominates(self):
        query = parse_query("q(x,y) = S(x, y)")
        relation = skewed_database_columnar(
            query, n=100, seed=3, heavy_fraction=0.5
        )["S"]
        counts = numpy.bincount(relation.columns[0], minlength=101)
        assert counts[1] >= 40  # dedup may eat a few
        assert counts[1] >= 3 * counts[2:].max()
        assert not relation.is_matching()

    @pytest.mark.parametrize(
        "arguments",
        [
            {"heavy_fraction": -0.1},
            {"heavy_fraction": 1.5},
            {"chunk_rows": 0},
        ],
        ids=["fraction-low", "fraction-high", "chunk-rows"],
    )
    def test_columnar_arguments_validated(self, arguments):
        query = parse_query("q(x,y) = S(x, y)")
        with pytest.raises(DataError):
            skewed_database_columnar(query, n=10, **arguments)


class TestWitnessDatabase:
    def test_shapes(self):
        database = witness_database(n=100, rng=0)
        assert set(database.relations) == {"R", "S1", "S2", "S3", "T"}
        assert len(database["R"]) == math.ceil(math.sqrt(100))
        assert len(database["T"]) == 10
        for name in ("S1", "S2", "S3"):
            assert database[name].is_matching()

    def test_expected_answer_is_small(self):
        """E[|q|] = 1: over seeds, answers should be rare."""
        from repro.algorithms.witness import WITNESS_CHAIN

        total = 0
        trials = 20
        for seed in range(trials):
            database = witness_database(n=64, rng=seed)
            r = set(database["R"].columns[0].tolist())
            t = set(database["T"].columns[0].tolist())
            chain = exact_answers(WITNESS_CHAIN, database)
            total += sum(
                1 for row in chain if row[0] in r and row[-1] in t
            )
        assert total / trials < 4


class TestLayeredPathGraph:
    def test_component_structure(self):
        graph = layered_path_graph(num_layers=4, layer_size=10, rng=0)
        assert graph.num_vertices == 50
        assert len(graph.edges) == 40
        # Every component is a path with one vertex per layer.
        assert len(set(graph.labels.values())) == 10
        sizes = {}
        for label in graph.labels.values():
            sizes[label] = sizes.get(label, 0) + 1
        assert set(sizes.values()) == {5}

    def test_labels_match_networkx(self):
        graph = layered_path_graph(num_layers=3, layer_size=8, rng=2)
        nx_graph = nx.Graph(graph.edges)
        nx_graph.add_nodes_from(range(1, graph.num_vertices + 1))
        for component in nx.connected_components(nx_graph):
            expected = min(component)
            assert all(
                graph.labels[v] == expected for v in component
            )

    def test_edges_are_ordered_distinct_pairs(self):
        graph = layered_path_graph(num_layers=2, layer_size=4, rng=1)
        assert all(u < v for u, v in graph.edges)
        assert list(graph.edges) == sorted(set(graph.edges))
        # Each inter-layer matching contributes one edge per vertex.
        assert len(graph.edges) == 2 * 4

    def test_validation(self):
        with pytest.raises(DataError):
            layered_path_graph(0, 5)
        with pytest.raises(DataError):
            layered_path_graph(3, 0)


class TestDenseGraph:
    def test_edge_count_exact(self):
        graph = dense_graph(20, 100, rng=0)
        assert len(graph.edges) == 100
        assert all(u < v for u, v in graph.edges)

    def test_labels_match_networkx(self):
        graph = dense_graph(30, 60, rng=3)
        nx_graph = nx.Graph(graph.edges)
        nx_graph.add_nodes_from(range(1, 31))
        for component in nx.connected_components(nx_graph):
            expected = min(component)
            assert all(graph.labels[v] == expected for v in component)

    def test_too_many_edges_rejected(self):
        with pytest.raises(DataError, match="maximum"):
            dense_graph(4, 10, rng=0)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(DataError):
            dense_graph(1, 0, rng=0)
