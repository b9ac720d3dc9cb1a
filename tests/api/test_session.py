"""The Session front door: connect / query / execute / explain / stream."""

from __future__ import annotations

from fractions import Fraction

import pytest

import repro
from repro import Session, connect
from repro.core.query import QueryError, parse_query
from repro.data.matching import matching_database
from repro.mpc.simulator import CapacityExceeded

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")


def _session(n=60, **kwargs):
    return connect(matching_database(VOCAB, n=n, rng=7), **kwargs)


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
        ],
    )
    def test_removed_knobs_are_rejected(self, removed):
        with pytest.raises(TypeError, match=removed):
            _session(**{removed: 1})

    @pytest.mark.parametrize("option", ["p", "workers"])
    def test_counts_below_one_are_rejected_at_construction(self, option):
        with pytest.raises(ValueError, match=f"need {option} >= 1, got 0"):
            _session(**{option: 0})

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
        session = _session(p=8, backend="pure")
        assert session.p == 8
        assert session.backend == "pure"
        assert session.version == 0


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
        # the session survives and keeps serving
        with pytest.raises(CapacityExceeded):
            session.query("S1(x,y), S2(y,z)").execute()


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
