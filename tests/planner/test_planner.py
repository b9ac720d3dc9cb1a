"""Planner routing: which compiler wins, and bit-identical execution.

The satellite acceptance bar: matching and skewed two-atom workloads
route to ``compile_hypercube`` (which binds the heavy values it finds),
long chains to ``compile_multiround`` -- each Session execution
bit-identical to ``compile_with`` + ``execute_plan`` on the chosen
compiler.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import connect
from repro.core import covers
from repro.core.query import QueryError, parse_query
from repro.data.generators import matching_database, skewed_database
from repro.lp import ExactSimplex
from repro.planner import Planner, collect_profile
from tests.conftest import run_pinned

LONG_CHAIN = "S1(a,b), S2(b,c), S3(c,d), S4(d,e), S5(e,f), S6(f,g)"


class TestRoutingChoices:
    def test_matching_database_routes_to_hypercube(self, two_hop):
        database = matching_database(two_hop, n=200, rng=0)
        choice = Planner(16).choose(
            two_hop, collect_profile(two_hop, database)
        )
        assert choice.algorithm == "hypercube"

    def test_triangle_on_matching_database_stays_one_round(self, triangle):
        database = matching_database(triangle, n=200, rng=0)
        choice = Planner(16).choose(
            triangle, collect_profile(triangle, database)
        )
        assert choice.algorithm == "hypercube"

    def test_skewed_workload_routes_to_hypercube(self, two_hop):
        database = skewed_database(
            two_hop, n=200, rng=0, heavy_fraction=0.5
        )
        profile = collect_profile(two_hop, database)
        assert profile.heavy_multiplicity("y") > 0
        choice = Planner(16).choose(two_hop, profile)
        assert choice.algorithm == "hypercube"

    def test_long_chain_routes_to_multiround(self):
        chain = parse_query(LONG_CHAIN)
        database = matching_database(chain, n=200, rng=0)
        choice = Planner(16).choose(
            chain, collect_profile(chain, database)
        )
        assert choice.algorithm == "multiround"
        assert choice.explain.predicted_rounds > 1

    def test_pinned_low_eps_routes_to_multiround(self, triangle):
        database = matching_database(triangle, n=100, rng=0)
        choice = Planner(16).choose(
            triangle, collect_profile(triangle, database), eps=Fraction(0)
        )
        assert choice.algorithm == "multiround"

    def test_allow_partial_wins_below_the_space_exponent(self, triangle):
        database = matching_database(triangle, n=100, rng=0)
        choice = Planner(16).choose(
            triangle,
            collect_profile(triangle, database),
            eps=Fraction(0),
            allow_partial=True,
        )
        assert choice.algorithm == "partial"

    def test_pinned_algorithm_is_honoured(self, two_hop):
        database = matching_database(two_hop, n=100, rng=0)
        choice = Planner(16).choose(
            two_hop,
            collect_profile(two_hop, database),
            algorithm="multiround",
        )
        assert choice.algorithm == "multiround"
        assert choice.explain.pinned

    def test_unknown_pinned_algorithm_raises(self, two_hop):
        database = matching_database(two_hop, n=50, rng=0)
        with pytest.raises(QueryError, match="unknown algorithm"):
            Planner(16).choose(
                two_hop,
                collect_profile(two_hop, database),
                algorithm="quantum",
            )


class TestBitIdenticalToDirectCompilers:
    """Session executions equal the chosen compiler run directly."""

    def test_hypercube_route(self, triangle):
        database = matching_database(triangle, n=120, rng=0)
        session = connect(database, p=16)
        result = session.query(triangle).execute()
        direct = run_pinned("hypercube", triangle, database, p=16)
        assert result.algorithm == "hypercube"
        assert result.answers == direct.answers
        assert result.per_server == direct.per_server
        assert (
            result.report.max_load_tuples == direct.report.max_load_tuples
        )
        assert result.report.total_bits == direct.report.total_bits

    def test_skewed_hypercube_route(self, two_hop):
        database = skewed_database(
            two_hop, n=200, rng=0, heavy_fraction=0.5
        )
        session = connect(database, p=16)
        result = session.query(two_hop).execute()
        direct = run_pinned("hypercube", two_hop, database, p=16)
        assert result.algorithm == "hypercube"
        assert result.heavy_hitters["y"]
        assert result.answers == direct.answers
        assert result.per_server == direct.per_server
        assert result.heavy_hitters == direct.heavy_hitters
        assert (
            result.report.max_load_tuples == direct.report.max_load_tuples
        )

    def test_multiround_route(self):
        chain = parse_query(LONG_CHAIN)
        database = matching_database(chain, n=80, rng=0)
        session = connect(database, p=16)
        result = session.query(chain).execute()
        direct = run_pinned("multiround", chain, database, p=16)
        assert result.algorithm == "multiround"
        assert result.answers == direct.answers
        assert result.view_sizes == direct.view_sizes
        assert result.report.num_rounds == direct.report.num_rounds

    def test_partial_route(self, triangle):
        database = matching_database(triangle, n=120, rng=0)
        session = connect(database, p=16)
        result = session.query(
            triangle, eps=Fraction(0), allow_partial=True
        ).execute()
        direct = run_pinned(
            "partial", triangle, database, p=16, eps=Fraction(0)
        )
        assert result.algorithm == "partial"
        assert result.answers == direct.answers


class TestExplain:
    def test_every_choice_reports_algorithm_shares_and_load(self):
        cases = [
            ("S1(x,y), S2(y,z)", matching_database, "hypercube"),
            (LONG_CHAIN, matching_database, "multiround"),
        ]
        for text, generator, expected in cases:
            query = parse_query(text)
            database = generator(query, n=100, rng=0)
            session = connect(database, p=16)
            explain = session.explain(query)
            assert explain.algorithm == expected
            assert explain.predicted_load > 0
            assert explain.predicted_rounds >= 1
            if expected == "hypercube":
                assert explain.shares is not None
            assert {c.algorithm for c in explain.candidates} == {
                "hypercube",
                "multiround",
                "partial",
            }
            assert explain.candidates[0].algorithm == expected

    def test_explain_reports_paper_bounds(self, triangle):
        database = matching_database(triangle, n=60, rng=0)
        explain = connect(database, p=16).explain(triangle)
        assert explain.tau_star == Fraction(3, 2)
        assert explain.space_exponent == Fraction(1, 3)

    def test_to_dict_is_json_serializable(self, two_hop):
        import json

        database = matching_database(two_hop, n=60, rng=0)
        explain = connect(database, p=16).explain(two_hop)
        payload = json.loads(json.dumps(explain.to_dict()))
        assert payload["algorithm"] == "hypercube"
        assert payload["shares"]["y"] == 16

    def test_format_renders_bids_table(self, two_hop):
        database = matching_database(two_hop, n=60, rng=0)
        text = connect(database, p=16).explain(two_hop).format()
        assert "planner bids" in text
        assert "chosen algorithm" in text


class TestDataProfile:
    def test_counts_rows_and_detects_skew(self, two_hop):
        database = skewed_database(
            two_hop, n=100, rng=0, heavy_fraction=0.5
        )
        profile = collect_profile(two_hop, database)
        assert profile.total_rows == sum(
            rows for _, rows in profile.relation_rows
        )
        assert profile.heavy_multiplicity("y") > 0

    def test_matching_database_is_skew_free(self, two_hop):
        database = matching_database(two_hop, n=100, rng=0)
        profile = collect_profile(two_hop, database)
        assert not any(count for _, count in profile.heavy_values)
        assert profile.heavy_multiplicity("y") == 0

    def test_stride_sampling_scales_multiplicities(self, two_hop):
        database = skewed_database(
            two_hop, n=400, rng=0, heavy_fraction=0.5
        )
        full = collect_profile(two_hop, database)
        sampled = collect_profile(two_hop, database, sample_cap=50)
        assert sampled.sampled and not full.sampled
        assert sampled.heavy_multiplicity("y") > 0
        # scaled-back multiplicity lands within 2x of the full count
        ratio = sampled.heavy_multiplicity("y") / max(
            1, full.heavy_multiplicity("y")
        )
        assert 0.5 <= ratio <= 2.0


#: The update_read workload's nine shapes over the C3 vocabulary.
UPDATE_READ_SHAPES = (
    "S1(x,y)",
    "S1(x,y), S2(y,z)",
    "S1(x,y), S2(x,z)",
    "S1(x,y), S3(y,x)",
    "S1(x,y), S2(x,y)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S1(x,y), S2(y,z), S3(z,w)",
    "S1(x,y), S2(y,z), S3(y,w)",
    "S1(x,y), S2(x,z), S3(x,w)",
)


class TestLpSolvesPerShape:
    def test_post_update_reads_solve_no_lp(self, triangle, monkeypatch):
        """Each shape's LP is solved once per process, not per version."""
        monkeypatch.setattr(covers, "_MEMO", {})
        solves = []
        solve = ExactSimplex.solve

        def spy(self):
            solves.append(1)
            return solve(self)

        monkeypatch.setattr(ExactSimplex, "solve", spy)
        database = matching_database(triangle, n=200, rng=0)
        present = set(database["S1"].rows())
        absent = [
            (a, b)
            for a in range(1, database.domain_size + 1)
            for b in range(1, database.domain_size + 1)
            if (a, b) not in present
        ]
        session = connect(database, p=16)
        per_version = []
        for version in range(3):
            if version:
                session.update(inserts={"S1": [absent[version]]})
            before = len(solves)
            for shape in UPDATE_READ_SHAPES:
                assert session.execute(shape).version == version
            per_version.append(len(solves) - before)
        assert per_version[0] > 0
        assert per_version[1:] == [0, 0]
        # One solve per distinct shape met, and no packing LP on the
        # planning path.
        assert len(solves) == len(covers._MEMO)
        assert all(
            entry.packing is None for entry in covers._MEMO.values()
        )
