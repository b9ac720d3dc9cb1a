"""QueryService tests: cached-vs-fresh parity, updates, failures, stats.

The acceptance bar: cached plans give bit-identical answers,
per-server loads and CapacityExceeded behaviour to fresh compilation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms.localjoin import evaluate_query
from repro.core.plans import build_plan
from repro.core.query import parse_query
from repro.data.matching import matching_database
from repro.data.versioned import VersionedDatabase
from repro.mpc.simulator import CapacityExceeded
from repro.serve import QueryService
from repro.algorithms.multiround import compile_multiround
from repro.engine import execute_plan
from tests.conftest import run_pinned

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")


def _database(n=40, rng=7):
    return matching_database(VOCAB, n=n, rng=rng)


def _truth(query_text, database):
    query = parse_query(query_text)
    local = {}
    for name in database.relations:
        relation = database[name]
        rows = getattr(relation, "tuples", None)
        local[name] = (
            tuple(relation.rows()) if rows is None else rows
        )
    return evaluate_query(query, local)


class TestParityWithFreshCompilation:
    def test_first_and_repeat_requests_match_run_hypercube(
        self
    ):
        database = _database()
        service = QueryService(database, p=8)
        query = "S1(x,y), S2(y,z)"
        fresh = run_pinned(
            "hypercube", parse_query(query), database, p=8
        )
        first = service.execute(query)
        repeat = service.execute(query)
        assert repeat.result_hit and not first.result_hit
        for served in (first, repeat):
            assert served.answers == fresh.answers
            assert served.per_server == fresh.per_server
            assert [
                r.received_bits for r in served.report.rounds
            ] == [r.received_bits for r in fresh.report.rounds]
            assert [
                r.received_tuples for r in served.report.rounds
            ] == [r.received_tuples for r in fresh.report.rounds]

    def test_reexecution_without_result_cache_matches_fresh(self):
        database = _database()
        # Disable result memoization so the repeat is a real second
        # execution on the pooled (reset) simulator.
        service = QueryService(
            database, p=8, result_cache_size=0
        )
        query = "S1(x,y), S2(y,z), S3(z,x)"
        first = service.execute(query)
        again = service.execute(query)
        assert not again.result_hit
        assert service.stats.executions == 2
        fresh = run_pinned(
            "hypercube", parse_query(query), database, p=8
        )
        for served in (first, again):
            assert served.answers == fresh.answers
            assert served.per_server == fresh.per_server
            assert [
                r.received_bits for r in served.report.rounds
            ] == [r.received_bits for r in fresh.report.rounds]

    def test_isomorphic_request_answers_exactly(self):
        database = _database()
        service = QueryService(database, p=8)
        canonical = service.execute("S1(x,y), S2(y,z)")
        variant = service.execute("S2(a,b), S1(b,c)")
        assert variant.plan is canonical.plan
        assert service.stats.plans.isomorphic_hits == 1
        assert variant.answers == _truth("S2(a,b), S1(b,c)", database)

    def test_isomorphic_head_permutation(self):
        database = _database()
        service = QueryService(database, p=8)
        service.execute("S1(x,y), S2(y,z)")
        variant = service.execute("q(c,b,a) = S2(a,b), S1(b,c)")
        assert variant.answers == _truth(
            "q(c,b,a) = S2(a,b), S1(b,c)", database
        )

    def test_skewaware_service_matches_fresh(self):
        from repro.data.generators import skewed_database

        query = parse_query("S1(x,y), S2(y,z)")
        database = skewed_database(query, n=60, rng=1, heavy_fraction=0.5)
        service = QueryService(
            database, p=8, algorithm="skewaware"
        )
        fresh = run_pinned("skewaware", query, database, p=8)
        for _ in range(2):
            served = service.execute("S1(x,y), S2(y,z)")
            assert served.answers == fresh.answers
            assert served.per_server == fresh.per_server
        assert served.heavy_hitters == fresh.heavy_hitters

    def test_heavy_hitters_do_not_depend_on_request_history(self):
        from repro.data.generators import skewed_database

        query = parse_query("S1(x,y), S2(y,z)")
        database = skewed_database(query, n=60, rng=1, heavy_fraction=0.5)
        service = QueryService(
            database,
            p=8,
            algorithm="skewaware",
            result_cache_size=0,
        )
        first = service.execute("S1(x,y), S2(y,z)")
        second = service.execute("S1(x,y), S2(y,z)")
        assert not second.result_hit
        assert first.heavy_hitters and any(first.heavy_hitters.values())
        assert second.heavy_hitters == first.heavy_hitters

    def test_multiround_service_matches_fresh(self):
        query = parse_query("S1(a,b), S2(b,c), S3(c,d), S4(d,e)")
        database = matching_database(query, n=30, rng=2)
        service = QueryService(
            database,
            p=8,
            algorithm="multiround",
            eps=Fraction(0),
        )
        fresh = execute_plan(
            compile_multiround(
                build_plan(query, Fraction(0)),
                8,
            ),
            database,
        )
        for _ in range(2):
            served = service.execute(str(query))
            assert served.answers == fresh.answers


class TestUpdates:
    def test_update_bumps_version_and_invalidates_results(self):
        database = _database(n=30)
        service = QueryService(database, p=8)
        query = "S1(x,y), S2(y,z)"
        before = service.execute(query)
        version = service.update(inserts={"S1": [(1, 2), (3, 4)]})
        assert version == 1
        after = service.execute(query)
        assert not after.result_hit
        assert after.version == 1
        # The mutated database really is what got queried.
        assert after.answers == _truth(query, service.database.snapshot)
        assert before.answers != after.answers or True  # answers may grow

    def test_delete_roundtrip_restores_answers(self):
        database = _database(n=30)
        service = QueryService(database, p=8)
        query = "S1(x,y), S2(y,z)"
        baseline = service.execute(query).answers
        service.update(inserts={"S1": [(1, 2)]})
        service.update(deletes={"S1": [(1, 2)]})
        assert service.execute(query).answers == baseline

    def test_update_keeps_plans_but_reexecutes(self):
        database = _database(n=30)
        service = QueryService(database, p=8)
        query = "S1(x,y), S2(y,z)"
        service.execute(query)
        executions_before = service.stats.executions
        service.update(inserts={"S2": [(5, 6)]})
        served = service.execute(query)
        assert served.plan_hit  # compilation amortized across versions
        assert service.stats.executions == executions_before + 1
        assert service.stats.plans.misses == 1


class TestCapacityParity:
    def test_fresh_and_cached_failures_match_run_hypercube(self):
        database = _database(n=40)
        query = "S1(x,y), S2(y,z)"
        with pytest.raises(CapacityExceeded) as fresh:
            run_pinned(
                "hypercube", parse_query(query), database, p=8,
                capacity_c=0.001, enforce_capacity=True,
            )
        service = QueryService(
            database,
            p=8,
            capacity_c=0.001,
            enforce_capacity=True,
        )
        for attempt in range(2):  # second raise comes from the cache
            with pytest.raises(CapacityExceeded) as served:
                service.execute(query)
            assert served.value.worker == fresh.value.worker
            assert served.value.received_bits == fresh.value.received_bits
            assert served.value.round_index == fresh.value.round_index
        assert service.stats.executions == 1
        assert service.stats.capacity_failures == 2

    def test_service_recovers_after_failure(self):
        database = _database(n=40)
        service = QueryService(
            database,
            p=8,
            capacity_c=0.001,
            enforce_capacity=True,
        )
        with pytest.raises(CapacityExceeded):
            service.execute("S1(x,y), S2(y,z)")
        # A different query through the same pooled simulator.
        with pytest.raises(CapacityExceeded):
            service.execute("S2(x,y), S3(y,z)")
        assert service.stats.executions == 2


class TestStatsAndConstruction:
    def test_phase_seconds_aggregate(self):
        service = QueryService(_database(n=30), p=8)
        service.execute("S1(x,y), S2(y,z)")
        assert service.stats.phase_seconds["route"] > 0.0
        assert service.stats.phase_seconds["local"] > 0.0
        total = sum(service.stats.phase_seconds.values())
        service.execute("S1(x,y), S2(y,z)")  # memoized: no new phases
        assert sum(service.stats.phase_seconds.values()) == total

    def test_requests_and_answers_counted(self):
        service = QueryService(_database(n=30), p=8)
        first = service.execute("S1(x,y), S2(y,z)")
        service.execute("S1(x,y), S2(y,z)")
        assert service.stats.requests == 2
        assert service.stats.answers_served == 2 * len(first.answers)

    def test_accepts_versioned_database(self):
        versioned = VersionedDatabase(_database(n=30))
        service = QueryService(versioned, p=8)
        assert service.database is versioned
        service.execute("S1(x,y), S2(y,z)")
        versioned.update(inserts={"S1": [(2, 3)]})
        after = service.execute("S1(x,y), S2(y,z)")
        assert after.version == 1

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            QueryService(_database(n=20), p=4, algorithm="quantum")

    def test_accepts_prebuilt_query_objects(self, two_hop):
        database = matching_database(two_hop, n=30, rng=3)
        service = QueryService(database, p=8)
        served = service.execute(two_hop)
        fresh = run_pinned("hypercube", two_hop, database, p=8)
        assert served.answers == fresh.answers


class TestDisabledCaches:
    def test_plan_cache_size_zero_compiles_every_request(self):
        service = QueryService(
            _database(n=20), p=4, plan_cache_size=0
        )
        first = service.execute("S1(x,y), S2(y,z)")
        repeat = service.execute("S1(x,y), S2(y,z)")
        iso = service.execute("S2(a,b), S1(b,c)")
        assert not first.plan_hit and not repeat.plan_hit
        assert not iso.plan_hit
        assert service.stats.plans.misses == 3
        assert first.answers == repeat.answers


class TestPerRequestOverrides:
    """The Session planner's hook: per-request algorithm/eps."""

    def test_algorithm_override_matches_dedicated_service(self):
        database = _database()
        mixed = QueryService(database, p=8)
        dedicated = QueryService(
            database, p=8, algorithm="multiround"
        )
        query = "S1(x,y), S2(y,z)"
        overridden = mixed.execute(query, algorithm="multiround")
        reference = dedicated.execute(query)
        assert overridden.algorithm == "multiround"
        assert overridden.answers == reference.answers
        assert overridden.per_server == reference.per_server
        assert (
            overridden.plan.signature.cache_key
            == reference.plan.signature.cache_key
        )

    def test_override_uses_the_algorithms_own_capacity_default(
        self
    ):
        service = QueryService(_database(), p=8)
        hc = service.execute("S1(x,y)")
        mr = service.execute("S1(x,y)", algorithm="multiround")
        assert hc.plan.signature.capacity_c == 4.0
        assert mr.plan.signature.capacity_c == 8.0

    def test_distinct_overrides_cache_separately(self):
        service = QueryService(_database(), p=8)
        query = "S1(x,y), S2(y,z)"
        service.execute(query)
        service.execute(query, algorithm="multiround")
        assert service.stats.plans.misses == 2
        service.execute(query)
        service.execute(query, algorithm="multiround")
        assert service.stats.plans.misses == 2  # both now cached
        assert service.stats.result_hits == 2

    def test_compile_shares_the_plan_cache_with_execute(self):
        service = QueryService(_database(), p=8)
        plan = service.compile("S1(x,y), S2(y,z)")
        assert service.stats.plans.misses == 1
        result = service.execute("S1(x,y), S2(y,z)")
        assert result.plan is plan
        assert service.stats.plans.misses == 1

    def test_unknown_override_raises_query_error(self):
        from repro.core.query import QueryError

        service = QueryService(_database(), p=8)
        with pytest.raises(QueryError, match="unknown algorithm"):
            service.execute("S1(x,y)", algorithm="quantum")

    def test_validation_rejects_bad_schemas(self):
        from repro.core.query import QueryError

        service = QueryService(_database(), p=8)
        with pytest.raises(QueryError, match="unknown relation"):
            service.execute("S9(x,y)")
        with pytest.raises(QueryError, match="arity mismatch"):
            service.execute("S1(x,y,z)")
