"""Unit tests for the Plan IR and plan execution.

The compile/execute seam's contract: compilation is pure and
data-independent, execution of the same plan is deterministic (cached
and fresh runs bit-identical), and a plan can be rebound onto an
isomorphic query's relations.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.algorithms.baselines import (
    compile_broadcast_join,
    compile_single_attribute_join,
    compile_single_server,
)
from repro.algorithms.hypercube import compile_hypercube
from repro.algorithms.multiround import compile_multiround
from repro.algorithms.registry import compile_with
from repro.core.families import (
    binomial_query,
    cycle_query,
    line_query,
    spider_query,
    star_query,
)
from repro.core.plans import build_plan
from repro.core.query import ConjunctiveQuery, parse_query
from repro.data.generators import matching_database
from repro.engine import (
    CollectAnswers,
    FinalizeView,
    HashRoute,
    Plan,
    execute_plan,
)
from tests.conftest import assert_oracle_parity, exact_answers, run_with_oracle


@pytest.fixture
def two_hop_db(two_hop):
    return matching_database(two_hop, n=40, rng=3)


class TestCompilation:
    def test_compile_is_deterministic(self, two_hop):
        a = compile_hypercube(two_hop, p=8)
        b = compile_hypercube(two_hop, p=8)
        assert a.signature == b.signature
        assert a.rounds == b.rounds
        assert a.finalize == b.finalize

    def test_signature_captures_parameters(self, two_hop):
        plan = compile_hypercube(
            two_hop, p=8, eps=Fraction(1, 2), seed=7
        )
        signature = plan.signature
        assert signature.algorithm == "hypercube"
        assert signature.eps == Fraction(1, 2)
        assert signature.p == 8
        assert signature.seed == 7
        assert str(two_hop) == signature.query_text

    def test_cache_keys_differ_per_parameter(self, two_hop):
        base = compile_hypercube(two_hop, p=8).signature.cache_key
        assert compile_hypercube(two_hop, p=16).signature.cache_key != base
        assert (
            compile_hypercube(two_hop, p=8, eps=Fraction(1, 2))
            .signature.cache_key
            != base
        )

    def test_plan_is_frozen(self, two_hop):
        plan = compile_hypercube(two_hop, p=8)
        with pytest.raises(AttributeError):
            plan.signature = None

    def test_relations_lists_database_names_only(self):
        query = parse_query("S1(a,b), S2(b,c), S3(c,d), S4(d,e)")
        physical = compile_multiround(build_plan(query, Fraction(0)), p=8)
        assert set(physical.relations()) == {"S1", "S2", "S3", "S4"}
        assert isinstance(physical.finalize, FinalizeView)

    def test_all_compilers_emit_plans(self, triangle):
        assert isinstance(compile_broadcast_join(triangle, p=4), Plan)
        assert isinstance(compile_single_server(triangle), Plan)
        assert isinstance(
            compile_single_attribute_join(parse_query("A(x,y), B(y,x)"), p=4),
            Plan,
        )


class TestExecution:
    def test_repeated_execution_is_bit_identical(self, two_hop, two_hop_db):
        plan = compile_hypercube(two_hop, p=8)
        first = execute_plan(plan, two_hop_db)
        second = execute_plan(plan, two_hop_db)
        assert first.answers == second.answers
        assert first.per_server == second.per_server
        assert [r.received_bits for r in first.report.rounds] == [
            r.received_bits for r in second.report.rounds
        ]

    def test_collect_answers_finalize(self, two_hop):
        plan = compile_hypercube(two_hop, p=8)
        assert isinstance(plan.finalize, CollectAnswers)
        assert plan.finalize.workers == plan.allocation.used_servers

    def test_relation_map_executes_renamed_vocabulary(self, two_hop):
        # Compile for S1/S2, execute against a database whose data
        # lives under T1/T2.
        database = matching_database(two_hop, n=30, rng=5)
        renamed = {
            "T1": database["S1"],
            "T2": database["S2"],
        }
        plan = compile_hypercube(two_hop, p=8)
        direct = execute_plan(plan, database)
        mapped = execute_plan(
            plan,
            renamed,
            relation_map={"S1": "T1", "S2": "T2"},
        )
        assert mapped.answers == direct.answers
        assert mapped.per_server == direct.per_server

    def test_execute_plan_takes_no_simulator(self, two_hop, two_hop_db):
        plan = compile_hypercube(two_hop, p=8)
        simulator = execute_plan(plan, two_hop_db).simulator
        with pytest.raises(TypeError, match="simulator"):
            execute_plan(plan, two_hop_db, simulator=simulator)

    def test_multiround_plan_execution(self):
        query = parse_query("S1(a,b), S2(b,c), S3(c,d), S4(d,e)")
        database = matching_database(query, n=30, rng=2)
        physical = compile_multiround(build_plan(query, Fraction(0)), p=8)
        execution = execute_plan(physical, database)

        truth = exact_answers(query, database)
        assert execution.answers == truth
        assert execution.view_sizes

    def test_finalize_view_with_permuted_head_matches_oracle(self):
        # Compiled multiround plans finalize with the output view's own
        # schema, so execute_plan returns the materialised rows as they
        # are; a head that permutes the schema re-sorts the projection.
        query = parse_query("S1(a,b), S2(b,c), S3(c,d), S4(d,e)")
        database = matching_database(query, n=30, rng=2)
        physical = compile_multiround(build_plan(query, Fraction(0)), p=8)
        finalize = physical.finalize
        schema = next(
            spec.query.head
            for plan_round in physical.rounds
            for spec in plan_round.views
            if spec.name == finalize.view
        )
        assert finalize.head == schema
        identity = execute_plan(physical, database)
        head = schema[1:] + schema[:1]
        permuted = replace(
            physical, finalize=FinalizeView(view=finalize.view, head=head)
        )
        execution, reference = run_with_oracle(permuted, database)
        assert_oracle_parity(execution, reference)
        assert execution.answers == tuple(
            sorted(row[1:] + row[:1] for row in identity.answers)
        )
        assert execution.answers != tuple(
            row[1:] + row[:1] for row in identity.answers
        )

    def test_hypercube_plan_binds_heavy_at_execute(self):
        from repro.data.generators import skewed_database

        query = parse_query("S1(x,y), S2(y,z)")
        database = skewed_database(query, n=60, rng=1, heavy_fraction=0.5)
        plan = compile_hypercube(query, p=8)
        # The compiled steps carry no heavy values...
        assert all(
            isinstance(step, HashRoute) for step in plan.rounds[0].steps
        )
        assert plan.rounds[0].bind_heavy is not None
        execution = execute_plan(plan, database)
        # ...but the execution detected and bound them.
        assert execution.heavy_hitters is not None
        assert any(execution.heavy_hitters.values())


class TestProfilerAttribution:
    def test_route_time_lands_on_its_own_round(self):
        from repro.core.plans import build_plan
        from repro.engine import RoundProfiler

        query = parse_query("S1(a,b), S2(b,c), S3(c,d), S4(d,e)")
        database = matching_database(query, n=20, rng=1)
        physical = compile_multiround(build_plan(query, Fraction(0)), p=8)
        profiler = RoundProfiler()
        execute_plan(physical, database, profiler=profiler)
        # Two plan rounds: every profiled round index is a real round
        # (no spurious "round 0") and each one has route time.
        assert sorted(profiler.rounds) == [1, 2]
        assert all(
            "route" in phases for phases in profiler.rounds.values()
        )


FAMILIES = [
    *(cycle_query(k) for k in (3, 4, 5)),
    *(line_query(k) for k in (1, 2, 3, 4, 5)),
    *(star_query(k) for k in (1, 2, 3)),
    *(spider_query(k) for k in (1, 2, 3)),
    binomial_query(4, 2),
]


@pytest.mark.parametrize("algorithm", ["multiround", "hypercube"])
@pytest.mark.parametrize("reverse_head", [False, True])
@pytest.mark.parametrize("query", FAMILIES, ids=str)
def test_finalize_view_head_permutes_its_view(query, reverse_head, algorithm):
    """IVM splices a permuted ``FinalizeView``'s answer table by its
    view's delta; that is exact only because the finalize head is a
    permutation of the view's head (projection is a bijection)."""
    if reverse_head:
        query = ConjunctiveQuery(
            query.atoms, head=tuple(reversed(query.head)), name=query.name
        )
    for eps in (None, Fraction(0), Fraction(1, 2)):
        plan = compile_with(algorithm, query, 8, eps=eps)
        if not isinstance(plan.finalize, FinalizeView):
            # One-round plans collect their answers directly.
            assert algorithm == "hypercube"
            continue
        views = {
            spec.name: spec.query
            for plan_round in plan.rounds
            for spec in plan_round.views
        }
        view_head = views[plan.finalize.view].head
        assert sorted(plan.finalize.head) == sorted(view_head)
