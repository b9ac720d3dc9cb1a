"""Unit tests for the routing-step IR and the round engine.

The load-bearing invariant: for every step type, routing a relation
row by row (:meth:`RoutingStep.destinations`) and routing it in one
columnar pass (:meth:`RoutingStep.route_columns`) produce the same
multiset of (row, destination) pairs.  Everything the simulator
observes -- loads, mailbox contents, capacity failures -- follows
from that.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.core.query import Atom, parse_query
from repro.data.columnar import ColumnarRelation
from repro.engine import (
    Broadcast,
    GridSpec,
    HashRoute,
    HeavyGridRoute,
    RemapRanks,
    RoundEngine,
    RoundRobinGrid,
    ToServer,
    grid_factors,
)
from repro.mpc.model import MPCConfig
from repro.mpc.routing import HashFamily
from repro.engine.streaming import route_range
from repro.mpc.simulator import MPCSimulator


def scalar_pairs(step, relation: ColumnarRelation, p: int) -> Counter:
    """(row, destination) multiset via the per-row reference path."""
    pairs: Counter = Counter()
    for index, row in enumerate(relation.rows()):
        for destination in step.destinations(row, index, p):
            pairs[(row, destination)] += 1
    return pairs


def columnar_pairs(step, relation: ColumnarRelation, p: int) -> Counter:
    """(row, destination) multiset via the vectorized path."""
    return routed_pairs(*step.route_columns(relation.columns, p, 0))


def blockwise_pairs(step, relation: ColumnarRelation, p: int, rng) -> Counter:
    """(row, destination) multiset of routing ``relation`` in random
    row blocks, each at its own offset (the engine's ``route_range``)."""
    cuts = sorted(rng.sample(range(1, len(relation)), rng.randint(1, 8)))
    pairs: Counter = Counter()
    for start, end in zip([0] + cuts, cuts + [len(relation)]):
        pairs += routed_pairs(
            *route_range(step, relation.columns, start, end, p)
        )
    return pairs


def routed_pairs(columns, destinations, row_indices) -> Counter:
    """(row, destination) multiset of one ``route_columns`` triple."""
    rows = list(zip(*(column.tolist() for column in columns))) or []
    pairs: Counter = Counter()
    destination_list = destinations.tolist()
    indices = (
        row_indices.tolist()
        if row_indices is not None
        else range(len(destination_list))
    )
    for row_index, destination in zip(indices, destination_list):
        pairs[(rows[row_index], destination)] += 1
    return pairs


def random_relation(name, arity, n, rows, rng) -> ColumnarRelation:
    return ColumnarRelation.from_rows(
        name,
        [
            tuple(rng.randint(1, n) for _ in range(arity))
            for _ in range(rows)
        ],
        domain_size=n,
        arity=arity,
    )


class TestGridSpec:
    def test_share_lookup_and_sizes(self):
        grid = GridSpec(("x", "y"), (3, 4))
        assert grid.share("x") == 3
        assert grid.share("y") == 4
        assert grid.dimensions == (3, 4)
        assert grid.weights == (4, 1)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(("x",), (2, 3))

    def test_zero_share_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(("x",), (0,))

    def test_from_shares_orders_dimensions(self):
        grid = GridSpec.from_shares(("a", "b"), {"b": 5, "a": 2})
        assert grid.dimensions == (2, 5)


class TestMailboxKey:
    def test_defaults_to_relation(self):
        step = ToServer(relation="S1")
        assert step.mailbox_key == "S1"

    def test_namespaced_destination(self):
        step = ToServer(relation="S1", destination="V1:S1")
        assert step.mailbox_key == "V1:S1"


class TestHashRouteParity:
    @pytest.mark.parametrize("trial", range(4))
    def test_scalar_equals_columnar(self, trial):
        rng = random.Random(100 + trial)
        atom = Atom("S", ("x", "y"))
        grid = GridSpec(("x", "y", "z"), (3, 2, 4), HashFamily(trial))
        relation = random_relation("S", 2, 20, rng.randint(1, 60), rng)
        step = HashRoute(relation="S", atom=atom, grid=grid)
        assert scalar_pairs(step, relation, 24) == columnar_pairs(
            step, relation, 24
        )

    def test_repeated_variable_rows_filtered(self):
        atom = Atom("S", ("x", "x"))
        grid = GridSpec(("x",), (4,), HashFamily(0))
        relation = ColumnarRelation.from_rows(
            "S", [(1, 1), (1, 2), (3, 3)], domain_size=4
        )
        step = HashRoute(relation="S", atom=atom, grid=grid)
        pairs = scalar_pairs(step, relation, 4)
        assert pairs == columnar_pairs(step, relation, 4)
        routed_rows = {row for row, _ in pairs}
        assert routed_rows == {(1, 1), (3, 3)}

    def test_filter_off_ships_contradictory_rows(self):
        """Baseline semantics: route every tuple, equality unchecked."""
        atom = Atom("S", ("x", "x"))
        grid = GridSpec(("x",), (4,), HashFamily(0))
        relation = ColumnarRelation.from_rows(
            "S", [(1, 1), (1, 2), (3, 3)], domain_size=4
        )
        step = HashRoute(
            relation="S",
            atom=atom,
            grid=grid,
            filter_contradictions=False,
        )
        pairs = scalar_pairs(step, relation, 4)
        assert pairs == columnar_pairs(step, relation, 4)
        assert {row for row, _ in pairs} == {(1, 1), (1, 2), (3, 3)}

    def test_one_dimensional_grid_is_hash_partition(self):
        """Atom variables outside the grid are ignored (single-
        attribute join)."""
        atom = Atom("S", ("x", "y"))
        grid = GridSpec(("y",), (8,), HashFamily(2))
        relation = random_relation("S", 2, 30, 40, random.Random(5))
        step = HashRoute(relation="S", atom=atom, grid=grid)
        pairs = scalar_pairs(step, relation, 8)
        assert pairs == columnar_pairs(step, relation, 8)
        # Exactly one destination per surviving row: no replication.
        assert all(count == 1 for count in pairs.values())


class TestHeavyGridRouteParity:
    def heavy_step(self, heavy_values, roles, seed=0):
        atom = Atom("S1", ("x", "y"))
        grid = GridSpec(("x", "y", "z"), (2, 9, 2), HashFamily(seed))
        return HeavyGridRoute(
            relation="S1",
            atom=atom,
            grid=grid,
            heavy={"y": frozenset(heavy_values)},
            roles=roles,
        )

    @pytest.mark.parametrize("role", [0, 1])
    def test_cartesian_split_parity(self, role):
        rng = random.Random(role)
        relation = random_relation("S1", 2, 12, 80, rng)
        roles = {"y": {"S1": role, "S2": 1 - role}, "x": None, "z": None}
        step = self.heavy_step({1, 2, 3}, roles)
        assert scalar_pairs(step, relation, 36) == columnar_pairs(
            step, relation, 36
        )

    def test_spread_fallback_parity(self):
        """No two-atom role: heavy values spread over the dimension."""
        rng = random.Random(9)
        relation = random_relation("S1", 2, 12, 60, rng)
        step = self.heavy_step({1}, {"y": None})
        pairs = scalar_pairs(step, relation, 36)
        assert pairs == columnar_pairs(step, relation, 36)

    def test_no_heavy_values_equals_hash_route(self):
        rng = random.Random(4)
        relation = random_relation("S1", 2, 15, 50, rng)
        step = self.heavy_step(set(), {})
        hash_step = HashRoute(
            relation="S1", atom=step.atom, grid=step.grid
        )
        assert scalar_pairs(step, relation, 36) == scalar_pairs(
            hash_step, relation, 36
        )
        assert columnar_pairs(step, relation, 36) == columnar_pairs(
            hash_step, relation, 36
        )

    def test_heavy_axis_stays_inside_dimension(self):
        step = self.heavy_step({5}, {"y": {"S1": 0, "S2": 1}})
        share = step.grid.share("y")
        g1, g2 = grid_factors(share)
        assert g1 * g2 <= share
        axis = step._heavy_axis("y", share, (7, 5))
        assert all(0 <= coordinate < share for coordinate in axis)
        assert len(axis) == g2


class TestContentFreeStepsParity:
    def test_broadcast(self):
        relation = random_relation("S", 2, 10, 25, random.Random(1))
        step = Broadcast(relation="S")
        pairs = scalar_pairs(step, relation, 6)
        assert pairs == columnar_pairs(step, relation, 6)
        assert sum(pairs.values()) == len(relation) * 6

    def test_to_server(self):
        relation = random_relation("S", 1, 10, 25, random.Random(2))
        step = ToServer(relation="S", worker=3)
        pairs = scalar_pairs(step, relation, 6)
        assert pairs == columnar_pairs(step, relation, 6)
        assert {destination for _, destination in pairs} == {3}

    @pytest.mark.parametrize("axis", [0, 1])
    def test_round_robin_grid(self, axis):
        relation = random_relation("S", 1, 30, 17, random.Random(3))
        grid = GridSpec(("left", "right"), (3, 3))
        step = RoundRobinGrid(relation="S", grid=grid, axis=axis)
        assert scalar_pairs(step, relation, 9) == columnar_pairs(
            step, relation, 9
        )


class TestRemapRanksParity:
    def test_subsampled_virtual_grid(self):
        rng = random.Random(6)
        atom = Atom("S", ("x", "y"))
        grid = GridSpec(("x", "y"), (4, 4), HashFamily(1))
        relation = random_relation("S", 2, 16, 50, rng)
        mapping = {0: 0, 3: 1, 7: 2, 12: 3, 15: 0}
        step = RemapRanks(
            relation="S",
            inner=HashRoute(relation="S", atom=atom, grid=grid),
            mapping=mapping,
            virtual_size=16,
        )
        pairs = scalar_pairs(step, relation, 4)
        assert pairs == columnar_pairs(step, relation, 4)
        # Only mapped workers ever receive anything.
        assert {destination for _, destination in pairs} <= set(
            mapping.values()
        )

    def test_empty_mapping_drops_everything(self):
        atom = Atom("S", ("x",))
        grid = GridSpec(("x",), (4,), HashFamily(0))
        relation = random_relation("S", 1, 8, 20, random.Random(1))
        step = RemapRanks(
            relation="S",
            inner=HashRoute(relation="S", atom=atom, grid=grid),
            mapping={},
            virtual_size=4,
        )
        assert scalar_pairs(step, relation, 4) == Counter()
        assert columnar_pairs(step, relation, 4) == Counter()


class TestBlockwiseRouting:
    """Routing any row split of a relation block by block yields the
    whole relation's (row, destination) multiset -- the premise of
    routing every source through one block loop."""

    def test_heavy_grid_route_with_heavy_values_bound(self):
        from repro.algorithms.hypercube import (
            compile_hypercube,
            detect_heavy_hitters,
        )
        from repro.data.generators import skewed_database

        query = parse_query("S1(x,y), S2(y,z), S3(z,x)")
        database = skewed_database(query, n=300, rng=0, heavy_fraction=0.5)
        plan_round = compile_hypercube(query, p=64).rounds[0]
        heavy = detect_heavy_hitters(
            query, database, dict(plan_round.bind_heavy.shares)
        )
        assert any(heavy.values())
        rng = random.Random(64)
        for step in plan_round.bind_heavy.bind(plan_round.steps, heavy):
            relation = database[step.relation]
            whole = columnar_pairs(step, relation, 64)
            assert whole == scalar_pairs(step, relation, 64)
            for _ in range(5):
                assert blockwise_pairs(step, relation, 64, rng) == whole

    @pytest.mark.parametrize("axis", [0, 1])
    def test_round_robin_grid_at_nonzero_offsets(self, axis):
        relation = random_relation("S", 1, 60, 40, random.Random(axis))
        grid = GridSpec(("left", "right"), (3, 3))
        step = RoundRobinGrid(relation="S", grid=grid, axis=axis)
        remapped = RemapRanks(
            relation="S",
            inner=step,
            mapping={rank: rank % 4 for rank in range(0, 9, 2)},
            virtual_size=9,
        )
        rng = random.Random(7 + axis)
        for routed, p in ((step, 9), (remapped, 4)):
            whole = columnar_pairs(routed, relation, p)
            assert whole == scalar_pairs(routed, relation, p)
            for _ in range(5):
                assert blockwise_pairs(routed, relation, p, rng) == whole


class TestRoundEngine:
    QUERY = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")

    def setup_round(self):
        relations = (
            random_relation("S1", 2, 12, 40, random.Random(7)),
            random_relation("S2", 2, 12, 40, random.Random(8)),
        )
        grid = GridSpec.from_shares(
            self.QUERY.variables, {"x": 1, "y": 8, "z": 1}, HashFamily(1)
        )
        simulator = MPCSimulator(
            MPCConfig(p=8, eps=Fraction(0)),
            input_bits=sum(relation.size_bits for relation in relations),
            enforce_capacity=False,
        )
        steps = [
            HashRoute(relation=atom.name, atom=atom, grid=grid)
            for atom in self.QUERY.atoms
        ]
        return relations, simulator, steps

    def run_engine(self):
        relations, simulator, steps = self.setup_round()
        sources = {relation.name: relation for relation in relations}
        return RoundEngine(simulator).run_round(steps, sources)

    def test_round_accounting(self):
        stats = self.run_engine()
        assert stats.round_index == 1
        assert sum(stats.received_tuples) > 0

    def test_row_at_a_time_routing_charges_identical_loads(self):
        """The engine's loads equal charging each row's scalar
        destinations ``tuple_bits`` apiece, counted here."""
        relations, _, steps = self.setup_round()
        bits, tuples = [0] * 8, [0] * 8
        for relation, step in zip(relations, steps):
            for (_, destination), count in scalar_pairs(
                step, relation, 8
            ).items():
                bits[destination] += count * relation.tuple_bits
                tuples[destination] += count
        vectorized = self.run_engine()
        assert vectorized.received_bits == tuple(bits)
        assert vectorized.received_tuples == tuple(tuples)
