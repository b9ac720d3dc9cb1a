"""The Session front door: connect / query / execute / explain / stream,
and the serving behaviour behind it: cached-vs-fresh parity, updates,
capacity failures and counters.

The serving acceptance bar: cached plans and memoized results give
bit-identical answers, per-server loads and CapacityExceeded
behaviour to a fresh ``compile_with`` + ``execute_plan``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import repro
from repro import Session, connect
from repro.core.query import QueryError, parse_query
from repro.data.columnar import ColumnarRelation, DataError
from repro.data.generators import matching_database
from repro.data.versioned import VersionedDatabase
from repro.mpc.simulator import CapacityExceeded
from repro.oracle import evaluate_query
from tests.conftest import run_pinned

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")


def _session(n=60, **kwargs):
    return connect(matching_database(VOCAB, n=n, rng=7), **kwargs)


def _truth(query_text, session):
    """``query_text``'s answers by a single-site join over the
    session's current snapshot."""
    snapshot = session.database.snapshot
    return evaluate_query(
        parse_query(query_text),
        {name: tuple(snapshot[name].rows()) for name in snapshot.relations},
    )


def _same_run(served, fresh):
    assert served.answers == fresh.answers
    assert served.per_server == fresh.per_server
    assert [r.received_bits for r in served.report.rounds] == [
        r.received_bits for r in fresh.report.rounds
    ]
    assert [r.received_tuples for r in served.report.rounds] == [
        r.received_tuples for r in fresh.report.rounds
    ]


class TestConnect:
    def test_connect_is_exported_at_package_top_level(self):
        assert repro.connect is connect
        assert isinstance(_session(), Session)

    def test_context_manager(self):
        with _session() as session:
            assert len(session.query("S1(x,y)").execute()) == 60

    @pytest.mark.parametrize(
        "removed",
        [
            "routing_cache_size",
            "reuse_simulators",
            "profile",
            "worker_join_timeout",
            "decision_cache_size",
            "profile_cache_size",
            "sample_cap",
            "workers",
        ],
    )
    def test_removed_knobs_are_rejected(self, removed):
        with pytest.raises(TypeError, match=removed):
            _session(**{removed: 1})

    @pytest.mark.parametrize(
        "option,bound",
        [
            pytest.param(option, bound, id=option)
            for option, bound in (
                ("p", 1),
                ("plan_cache_size", 0),
                ("result_cache_size", 0),
            )
        ],
    )
    def test_counts_below_one_are_rejected_at_construction(
        self, option, bound
    ):
        below = bound - 1
        with pytest.raises(
            ValueError, match=f"need {option} >= {bound}, got {below}"
        ):
            _session(**{option: below})

    def test_version_is_stated_once(self):
        from pathlib import Path

        # pyproject.toml reads repro.__version__; it states none itself.
        pyproject = (Path(__file__).parents[2] / "pyproject.toml").read_text()
        assert 'version = { attr = "repro.__version__" }' in pyproject
        assert '\nversion = "' not in pyproject

    def test_accepts_prebuilt_queries_and_text(self, two_hop):
        session = _session()
        from_text = session.query("q(x,y,z) = S1(x,y), S2(y,z)").execute()
        from_query = session.query(two_hop).execute()
        assert from_text.answers == from_query.answers

    def test_exposes_versions_and_config(self):
        session = _session(p=8)
        assert session.p == 8
        assert session.version == 0

    def test_backend_keyword_accepts_only_numpy(self):
        assert _session(backend="numpy").p == 16
        assert _session(backend=None).p == 16
        with pytest.raises(ValueError, match="repro.oracle"):
            _session(backend="pure")
        with pytest.raises(TypeError, match="backend"):
            Session(matching_database(VOCAB, n=10, rng=1), backend="numpy")

    def test_chunk_rows_streams_without_a_backend(self):
        from repro.engine import RoundProfiler

        profiler = RoundProfiler()
        with _session(chunk_rows=4) as session:
            session.query("S1(x,y), S2(y,z)").execute(profiler=profiler)
        assert any("route" in phases for phases in profiler.blocks.values())


class TestStatements:
    def test_statement_is_lazy_until_executed(self):
        session = _session()
        session.query("S1(x,y), S2(y,z)")  # prepared, never run
        assert session.stats.requests == 0
        assert session.planner_stats.decisions == 0

    def test_execute_returns_result_with_explain(self):
        session = _session()
        result = session.query("S1(x,y), S2(y,z)").execute()
        assert result.algorithm == "hypercube"
        assert result.explain.algorithm == "hypercube"
        assert len(result) == len(result.answers)
        assert tuple(iter(result)) == result.answers

    def test_stream_yields_every_answer_in_order(self):
        session = _session()
        statement = session.query("S1(x,y), S2(y,z)")
        executed = statement.execute()
        assert tuple(statement.stream(batch_size=7)) == executed.answers
        with pytest.raises(ValueError, match="batch_size"):
            next(statement.stream(batch_size=0))

    def test_statement_reexecutes_against_new_versions(self):
        session = _session(n=10)
        statement = session.query("S1(x,y)")
        before = statement.execute()
        session.update(inserts={"S1": [(7, 9)]})
        after = statement.execute()
        assert after.version == before.version + 1
        assert len(after) == len(before) + 1

    def test_canonical_key_identifies_semantics(self):
        session = _session()
        a = session.query("S1(x,y), S2(y,z)")
        b = session.query("S1(u,v), S2(v,w)")  # different variable names
        c = session.query("S1(x,y), S2(y,z)", eps=Fraction(0))
        assert a.canonical_key() != b.canonical_key()
        assert a.canonical_key() != c.canonical_key()
        assert (
            a.canonical_key()
            == session.query("S1(x,y), S2(y,z)").canonical_key()
        )

    def test_describe_plan_reports_structure(self):
        session = _session()
        description = session.query("S1(x,y), S2(y,z)").describe_plan()
        assert description["algorithm"] == "hypercube"
        assert description["num_rounds"] == 1
        assert description["rounds"][0]["steps"][0]["type"] == "HashRoute"
        assert description["shares"]["y"] == 16

    def test_shorthand_execute_and_explain(self):
        session = _session()
        assert session.execute("S1(x,y)").algorithm == "hypercube"
        assert session.explain("S1(x,y)").algorithm == "hypercube"


class TestErrors:
    def test_unknown_relation_is_a_structured_query_error(self):
        session = _session()
        with pytest.raises(QueryError, match="unknown relation 'S9'"):
            session.query("S1(x,y), S9(y,z)").execute()

    def test_arity_mismatch_is_a_structured_query_error(self):
        session = _session()
        with pytest.raises(QueryError, match="arity mismatch for S1"):
            session.query("S1(x,y,z)").execute()
        with pytest.raises(QueryError, match="arity mismatch"):
            session.query("S1(x)").explain()

    def test_a_key_naming_another_relation_is_rejected(self):
        # Accepted, the mapping door would serve ``R`` while storing a
        # relation named ``S``, even across writes.
        misnamed = ColumnarRelation.from_rows("S", [(1, 2)], domain_size=2)
        with pytest.raises(DataError, match="relation key 'R'"):
            connect({"R": misnamed})
        with pytest.raises(DataError, match="relation key 'R'"):
            VersionedDatabase({"R": misnamed})
        session = connect({"S": misnamed})
        session.update(inserts={"S": [(2, 1)]})
        assert session.query("S(x,y)").execute().answers == ((1, 2), (2, 1))

    def test_unknown_algorithm_pin_raises(self):
        session = _session()
        with pytest.raises(QueryError, match="unknown algorithm"):
            session.query("S1(x,y)", algorithm="quantum").execute()

    def test_capacity_failures_propagate(self):
        session = connect(
            matching_database(VOCAB, n=40, rng=7),
            p=8,
            capacity_c=0.001,
            enforce_capacity=True,
        )
        with pytest.raises(CapacityExceeded):
            session.query("S1(x,y), S2(y,z)").execute()
        # the session survives and keeps serving, a different query
        # included
        with pytest.raises(CapacityExceeded):
            session.query("S1(x,y), S2(y,z)").execute()
        with pytest.raises(CapacityExceeded):
            session.query("S2(x,y), S3(y,z)").execute()
        assert session.stats.executions == 2

    def test_fresh_and_cached_failures_match_the_pinned_path(self):
        database = matching_database(VOCAB, n=40, rng=7)
        query = "S1(x,y), S2(y,z)"
        with pytest.raises(CapacityExceeded) as fresh:
            run_pinned(
                "hypercube", parse_query(query), database, p=8,
                capacity_c=0.001, enforce_capacity=True,
            )
        session = connect(
            database,
            p=8,
            algorithm="hypercube",
            capacity_c=0.001,
            enforce_capacity=True,
        )
        for _ in range(2):  # the second raise comes from the cache
            with pytest.raises(CapacityExceeded) as served:
                session.execute(query)
            assert served.value.worker == fresh.value.worker
            assert served.value.received_bits == fresh.value.received_bits
            assert served.value.round_index == fresh.value.round_index
        assert session.stats.executions == 1
        assert session.stats.capacity_failures == 2


class TestPlannerIntegration:
    def test_decisions_are_cached_per_version(self):
        session = _session()
        statement = session.query("S1(x,y), S2(y,z)")
        statement.execute()
        statement.execute()
        assert session.planner_stats.decisions == 1
        assert session.planner_stats.decision_cache_hits == 1
        session.update(inserts={"S1": [(1, 1)]})
        statement.execute()
        assert session.planner_stats.decisions == 2

    def test_session_default_eps_applies_to_statements(self, triangle):
        database = matching_database(triangle, n=40, rng=0)
        session = connect(database, p=16, eps=Fraction(0))
        # eps=0 is below C3's space exponent: one-round is ineligible.
        assert session.query(triangle).explain().algorithm == "multiround"
        # per-statement eps=None restores automatic choice
        assert (
            session.query(triangle, eps=None).explain().algorithm
            == "hypercube"
        )

    def test_algorithm_pin_round_trips_through_result(self):
        session = _session()
        result = session.query(
            "S1(x,y), S2(y,z)", algorithm="multiround"
        ).execute()
        assert result.algorithm == "multiround"
        assert result.explain.pinned


class TestBoundedCaches:
    """Satellite: capped caches still hit hot (isomorphic) queries."""

    HOT = ("S1(x,y), S2(y,z)", "S1(a,b), S2(b,c)", "S2(u,v), S3(v,w)")

    def test_capped_plan_cache_still_hits_hot_isomorphic_queries(self):
        session = _session(plan_cache_size=4)
        for _ in range(3):
            for text in self.HOT:
                session.query(text).execute()
        stats = session.stats.plans
        # every two-atom chain is ONE isomorphism class (the rebind
        # maps relation names too): a single compile serves all nine
        # requests within the 4-entry cap.
        assert stats.misses == 1
        assert stats.isomorphic_hits >= 2
        assert stats.hits >= 6

    def test_plan_cache_evictions_are_counted(self):
        session = _session(plan_cache_size=1)
        # alternate two structurally different queries so the 1-entry
        # cache must thrash (no isomorphic rescue possible)
        session.query("S1(x,y), S2(y,z)").execute()
        session.query("S1(x,y), S2(y,z), S3(z,x)").execute()
        session.query("S1(x,y), S2(y,z)").execute()
        assert session.stats.plans.evictions >= 2
        assert session.stats.plans.misses == 3  # thrashing recompiles

    def test_result_cache_evictions_are_counted(self):
        session = _session(result_cache_size=1)
        session.query("S1(x,y), S2(y,z)").execute()
        session.query("S2(x,y), S3(y,z)").execute()
        assert session.stats.result_evictions >= 1

    def test_capped_result_cache_still_memoizes_the_hot_query(self):
        session = _session(result_cache_size=2)
        for _ in range(3):
            session.query("S1(x,y), S2(y,z)").execute()
        assert session.stats.result_hits == 2
        assert session.stats.executions == 1

    def test_plan_cache_size_zero_compiles_every_request(self):
        session = _session(n=20, p=4, plan_cache_size=0)
        first = session.execute("S1(x,y), S2(y,z)")
        repeat = session.execute("S1(x,y), S2(y,z)")
        iso = session.execute("S2(a,b), S1(b,c)")
        assert not first.plan_hit and not repeat.plan_hit
        assert not iso.plan_hit
        assert session.stats.plans.misses == 3
        assert first.answers == repeat.answers

    def test_close_releases_results_and_retained_state(self):
        session = _session(p=8)
        statement = session.query("S1(x,y), S2(y,z)")
        statement.execute()
        assert session.ivm.retained_states == 1
        session.close()
        assert session.ivm.retained_states == 0
        assert session.ivm.retained_bytes == 0
        again = statement.execute()
        assert not again.cached and again.plan_hit
        assert session.stats.executions == 2


class TestParityWithFreshCompilation:
    """A pinned session answers like ``compile_with`` + ``execute_plan``."""

    def test_first_and_repeat_requests_match_the_pinned_path(self):
        database = matching_database(VOCAB, n=40, rng=7)
        session = connect(database, p=8, algorithm="hypercube")
        query = "S1(x,y), S2(y,z)"
        fresh = run_pinned("hypercube", parse_query(query), database, p=8)
        first = session.execute(query)
        repeat = session.execute(query)
        assert repeat.cached and not first.cached
        for served in (first, repeat):
            _same_run(served, fresh)

    def test_reexecution_without_result_cache_matches_fresh(self):
        database = matching_database(VOCAB, n=40, rng=7)
        # No result memoization: the repeat is a real second execution
        # on the pooled (reset) simulator.
        session = connect(
            database, p=8, algorithm="hypercube", result_cache_size=0
        )
        query = "S1(x,y), S2(y,z), S3(z,x)"
        first = session.execute(query)
        again = session.execute(query)
        assert not again.cached
        assert session.stats.executions == 2
        fresh = run_pinned("hypercube", parse_query(query), database, p=8)
        for served in (first, again):
            _same_run(served, fresh)

    def test_isomorphic_requests_answer_exactly(self):
        session = _session(n=40, p=8, algorithm="hypercube")
        canonical = session.execute("S1(x,y), S2(y,z)")
        for text in ("S2(a,b), S1(b,c)", "q(c,b,a) = S2(a,b), S1(b,c)"):
            variant = session.execute(text)
            assert variant.plan is canonical.plan
            assert variant.answers == _truth(text, session)
        assert session.stats.plans.isomorphic_hits == 2

    def test_skewed_hypercube_session_matches_fresh(self):
        from repro.data.generators import skewed_database

        query = parse_query("S1(x,y), S2(y,z)")
        database = skewed_database(query, n=60, rng=1, heavy_fraction=0.5)
        session = connect(database, p=8, algorithm="hypercube")
        fresh = run_pinned("hypercube", query, database, p=8)
        for _ in range(2):
            served = session.execute(query)
            assert served.answers == fresh.answers
            assert served.per_server == fresh.per_server
        assert served.heavy_hitters == fresh.heavy_hitters

    def test_heavy_hitters_do_not_depend_on_request_history(self):
        from repro.data.generators import skewed_database

        query = parse_query("S1(x,y), S2(y,z)")
        database = skewed_database(query, n=60, rng=1, heavy_fraction=0.5)
        session = connect(
            database, p=8, algorithm="hypercube", result_cache_size=0
        )
        first = session.execute(query)
        second = session.execute(query)
        assert not second.cached
        assert first.heavy_hitters and any(first.heavy_hitters.values())
        assert second.heavy_hitters == first.heavy_hitters

    def test_multiround_session_matches_fresh(self):
        query = parse_query("S1(a,b), S2(b,c), S3(c,d), S4(d,e)")
        database = matching_database(query, n=30, rng=2)
        session = connect(
            database, p=8, algorithm="multiround", eps=Fraction(0)
        )
        fresh = run_pinned("multiround", query, database, p=8, eps=0)
        for _ in range(2):
            assert session.execute(query).answers == fresh.answers

    def test_statement_pins_use_their_own_capacity_default(self):
        session = _session(p=8, algorithm="hypercube")
        hc = session.execute("S1(x,y)")
        mr = session.execute("S1(x,y)", algorithm="multiround")
        assert hc.plan.signature.capacity_c == 4.0
        assert mr.plan.signature.capacity_c == 8.0

    def test_distinct_pins_cache_separately(self):
        session = _session(p=8, algorithm="hypercube")
        query = "S1(x,y), S2(y,z)"
        for _ in range(2):
            session.execute(query)
            session.execute(query, algorithm="multiround")
            assert session.stats.plans.misses == 2
        assert session.stats.result_hits == 2

    def test_describe_plan_shares_the_plan_cache_with_execute(self):
        session = _session(p=8)
        statement = session.query("S1(x,y), S2(y,z)")
        statement.describe_plan()
        assert session.stats.plans.misses == 1
        assert statement.execute().plan_hit
        assert session.stats.plans.misses == 1


class TestUpdates:
    def test_update_bumps_version_and_invalidates_results(self):
        session = _session(n=30, p=8)
        query = "S1(x,y), S2(y,z)"
        session.execute(query)
        assert session.update(inserts={"S1": [(1, 2), (3, 4)]}) == 1
        after = session.execute(query)
        assert not after.cached
        assert after.version == 1
        # The mutated database really is what got queried.
        assert after.answers == _truth(query, session)

    def test_delete_roundtrip_restores_answers(self):
        session = _session(n=30, p=8)
        query = "S1(x,y), S2(y,z)"
        baseline = session.execute(query).answers
        session.update(inserts={"S1": [(1, 2)]})
        session.update(deletes={"S1": [(1, 2)]})
        assert session.execute(query).answers == baseline

    def test_update_keeps_plans_but_reexecutes(self):
        session = _session(n=30, p=8)
        query = "S1(x,y), S2(y,z)"
        session.execute(query)
        executions_before = session.stats.executions
        session.update(inserts={"S2": [(5, 6)]})
        served = session.execute(query)
        assert served.plan_hit  # compilation amortized across versions
        assert session.stats.executions == executions_before + 1
        assert session.stats.plans.misses == 1

    def test_accepts_a_versioned_database_mutated_outside(self):
        versioned = VersionedDatabase(matching_database(VOCAB, n=30, rng=7))
        session = connect(versioned, p=8)
        assert session.database is versioned
        session.execute("S1(x,y), S2(y,z)")
        versioned.update(inserts={"S1": [(2, 3)]})
        after = session.execute("S1(x,y), S2(y,z)")
        assert after.version == 1
        assert after.answers == _truth("S1(x,y), S2(y,z)", session)


class TestCounters:
    def test_phase_seconds_aggregate(self):
        session = _session(n=30, p=8)
        session.execute("S1(x,y), S2(y,z)")
        phases = session.stats.phase_seconds
        assert phases["route"] > 0.0 and phases["local"] > 0.0
        total = sum(phases.values())
        session.execute("S1(x,y), S2(y,z)")  # memoized: no new phases
        assert sum(phases.values()) == total

    def test_requests_and_answers_counted(self):
        session = _session(n=30, p=8)
        first = session.execute("S1(x,y), S2(y,z)")
        session.execute("S1(x,y), S2(y,z)")
        assert session.stats.requests == 2
        assert session.stats.answers_served == 2 * len(first.answers)


class TestThreads:
    """One session serves callers on several threads: its lock keeps
    every statement, update and stats read whole."""

    QUERIES = ["S1(x,y), S2(y,z)", "S2(y,z), S3(z,x)", VOCAB, "S1(x,y)"]

    def test_concurrent_statements_match_sequential_ones(self):
        from concurrent.futures import ThreadPoolExecutor

        control = _session(n=40, p=8)
        expected = {
            str(query): control.execute(query) for query in self.QUERIES
        }
        session = _session(n=40, p=8, result_cache_size=0)
        work = self.QUERIES * 6
        with ThreadPoolExecutor(max_workers=4) as pool:
            served = list(pool.map(session.execute, work))
        for query, result in zip(work, served):
            _same_run(result, expected[str(query)])
        assert session.stats.requests == len(work)

    def test_statements_racing_updates_answer_their_version(self):
        import threading

        query = "S1(x,y), S2(y,z)"
        inserts = [{"S1": [(100 + i, 1 + i)]} for i in range(8)]
        control = _session(n=40, p=8)
        truth = [control.execute(query).answers]
        for delta in inserts:
            control.update(inserts=delta)
            truth.append(control.execute(query).answers)

        session = _session(n=40, p=8)
        results = []

        def read():
            for _ in range(12):
                results.append(session.execute(query))

        readers = [threading.Thread(target=read) for _ in range(3)]
        for thread in readers:
            thread.start()
        for delta in inserts:
            session.update(inserts=delta)
        for thread in readers:
            thread.join()
        assert len(results) == 36
        for result in results:
            assert result.answers == truth[result.version]

    def test_stats_read_while_statements_run(self):
        from concurrent.futures import ThreadPoolExecutor

        session = _session(n=40, p=8, result_cache_size=0)
        with ThreadPoolExecutor(max_workers=3) as pool:
            running = [
                pool.submit(session.execute, query)
                for query in self.QUERIES * 4
            ]
            reports = [session.stats_report() for _ in range(20)]
            for future in running:
                future.result()
        assert all(report["service"]["requests"] <= 16 for report in reports)
        assert session.stats_report()["service"]["requests"] == 16


class TestReviewRegressions:
    def test_session_level_algorithm_pin(self):
        session = _session(algorithm="multiround")
        result = session.query("S1(x,y), S2(y,z)").execute()
        assert result.algorithm == "multiround"
        # statement-level pin still overrides the session default
        override = session.query(
            "S1(x,y), S2(y,z)", algorithm="hypercube"
        ).execute()
        assert override.algorithm == "hypercube"

    def test_session_rejects_unknown_default_algorithm(self):
        with pytest.raises(QueryError, match="unknown algorithm"):
            _session(algorithm="quantum")

    def test_internal_experiment_harnesses_do_not_warn(self):
        import warnings

        from repro.algorithms.witness import run_witness_experiment
        from repro.analysis import experiments

        small = dict(n=20, p_values=(4,), trials=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_witness_experiment(n=20, p=4, eps=0.25, seed=0)
            experiments.sweep_hc_load(VOCAB, **small)
            experiments.sweep_one_round_fraction(VOCAB, Fraction(0), **small)
            experiments.sweep_multiround_rounds(k_values=(4,), n=20, p=4)
