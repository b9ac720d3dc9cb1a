"""Planner routing: which compiler wins, and bit-identical execution.

The satellite acceptance bar: skewed workloads route to
``compile_skew_aware``, matching databases to ``compile_hypercube``,
long chains to ``compile_multiround`` -- each Session execution
bit-identical to ``compile_with`` + ``execute_plan`` on the chosen
compiler.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import connect
from repro.backend import numpy_available
from repro.core.query import QueryError, parse_query
from repro.data.columnar import columnar_database
from repro.data.generators import skewed_database
from repro.data.matching import matching_database
from repro.planner import Planner, collect_profile
from tests.conftest import run_pinned

BACKENDS = ["pure"] + (["numpy"] if numpy_available() else [])

LONG_CHAIN = "S1(a,b), S2(b,c), S3(c,d), S4(d,e), S5(e,f), S6(f,g)"


def _profile_for(query, database, backend="pure", **kwargs):
    return collect_profile(
        query, columnar_database(database, backend), backend=backend,
        **kwargs,
    )


class TestRoutingChoices:
    def test_matching_database_routes_to_hypercube(self, two_hop):
        database = matching_database(two_hop, n=200, rng=0)
        choice = Planner(16, "pure").choose(
            two_hop, _profile_for(two_hop, database)
        )
        assert choice.algorithm == "hypercube"

    def test_triangle_on_matching_database_stays_one_round(self, triangle):
        database = matching_database(triangle, n=200, rng=0)
        choice = Planner(16, "pure").choose(
            triangle, _profile_for(triangle, database)
        )
        assert choice.algorithm == "hypercube"

    def test_skewed_workload_routes_to_skew_aware(self, two_hop):
        database = skewed_database(
            two_hop, n=200, rng=0, heavy_fraction=0.5
        )
        profile = _profile_for(two_hop, database)
        assert profile.has_skew
        choice = Planner(16, "pure").choose(two_hop, profile)
        assert choice.algorithm == "skewaware"

    def test_long_chain_routes_to_multiround(self):
        chain = parse_query(LONG_CHAIN)
        database = matching_database(chain, n=200, rng=0)
        choice = Planner(16, "pure").choose(
            chain, _profile_for(chain, database)
        )
        assert choice.algorithm == "multiround"
        assert choice.explain.predicted_rounds > 1

    def test_pinned_low_eps_routes_to_multiround(self, triangle):
        database = matching_database(triangle, n=100, rng=0)
        choice = Planner(16, "pure").choose(
            triangle, _profile_for(triangle, database), eps=Fraction(0)
        )
        assert choice.algorithm == "multiround"

    def test_allow_partial_wins_below_the_space_exponent(self, triangle):
        database = matching_database(triangle, n=100, rng=0)
        choice = Planner(16, "pure").choose(
            triangle,
            _profile_for(triangle, database),
            eps=Fraction(0),
            allow_partial=True,
        )
        assert choice.algorithm == "partial"

    def test_pinned_algorithm_is_honoured(self, two_hop):
        database = matching_database(two_hop, n=100, rng=0)
        choice = Planner(16, "pure").choose(
            two_hop,
            _profile_for(two_hop, database),
            algorithm="multiround",
        )
        assert choice.algorithm == "multiround"
        assert choice.explain.pinned

    def test_unknown_pinned_algorithm_raises(self, two_hop):
        database = matching_database(two_hop, n=50, rng=0)
        with pytest.raises(QueryError, match="unknown algorithm"):
            Planner(16, "pure").choose(
                two_hop,
                _profile_for(two_hop, database),
                algorithm="quantum",
            )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBitIdenticalToDirectCompilers:
    """Session executions equal the chosen compiler run directly."""

    def test_hypercube_route(self, backend, triangle):
        database = matching_database(triangle, n=120, rng=0)
        session = connect(database, p=16, backend=backend)
        result = session.query(triangle).execute()
        direct = run_pinned(
            "hypercube", triangle, database, p=16, backend=backend
        )
        assert result.algorithm == "hypercube"
        assert result.answers == direct.answers
        assert result.per_server == direct.per_server
        assert (
            result.report.max_load_tuples == direct.report.max_load_tuples
        )
        assert result.report.total_bits == direct.report.total_bits

    def test_skewaware_route(self, backend, two_hop):
        database = skewed_database(
            two_hop, n=200, rng=0, heavy_fraction=0.5
        )
        session = connect(database, p=16, backend=backend)
        result = session.query(two_hop).execute()
        direct = run_pinned(
            "skewaware", two_hop, database, p=16, backend=backend
        )
        assert result.algorithm == "skewaware"
        assert result.answers == direct.answers
        assert result.per_server == direct.per_server
        assert result.heavy_hitters == direct.heavy_hitters
        assert (
            result.report.max_load_tuples == direct.report.max_load_tuples
        )

    def test_multiround_route(self, backend):
        chain = parse_query(LONG_CHAIN)
        database = matching_database(chain, n=80, rng=0)
        session = connect(database, p=16, backend=backend)
        result = session.query(chain).execute()
        direct = run_pinned(
            "multiround", chain, database, p=16, backend=backend
        )
        assert result.algorithm == "multiround"
        assert result.answers == direct.answers
        assert result.view_sizes == direct.view_sizes
        assert result.report.num_rounds == direct.report.num_rounds

    def test_partial_route(self, backend, triangle):
        database = matching_database(triangle, n=120, rng=0)
        session = connect(database, p=16, backend=backend)
        result = session.query(
            triangle, eps=Fraction(0), allow_partial=True
        ).execute()
        direct = run_pinned(
            "partial", triangle, database, p=16, eps=Fraction(0),
            backend=backend,
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
            if expected in ("hypercube", "skewaware"):
                assert explain.shares is not None
            assert {c.algorithm for c in explain.candidates} == {
                "hypercube",
                "skewaware",
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
        profile = _profile_for(two_hop, database)
        assert profile.total_rows == sum(
            rows for _, rows in profile.relation_rows
        )
        assert profile.has_skew
        assert profile.heavy_multiplicity("y") > 0

    def test_matching_database_is_skew_free(self, two_hop):
        database = matching_database(two_hop, n=100, rng=0)
        profile = _profile_for(two_hop, database)
        assert not profile.has_skew
        assert profile.heavy_multiplicity("y") == 0

    def test_stride_sampling_scales_multiplicities(self, two_hop):
        database = skewed_database(
            two_hop, n=400, rng=0, heavy_fraction=0.5
        )
        full = _profile_for(two_hop, database)
        sampled = _profile_for(two_hop, database, sample_cap=50)
        assert sampled.sampled and not full.sampled
        assert sampled.has_skew
        # scaled-back multiplicity lands within 2x of the full count
        ratio = sampled.heavy_multiplicity("y") / max(
            1, full.heavy_multiplicity("y")
        )
        assert 0.5 <= ratio <= 2.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_on_the_profile(self, backend, two_hop):
        database = skewed_database(
            two_hop, n=150, rng=0, heavy_fraction=0.4
        )
        pure = _profile_for(two_hop, database, backend="pure")
        other = _profile_for(two_hop, database, backend=backend)
        assert pure.heavy_values == other.heavy_values
        assert pure.heavy_multiplicities == other.heavy_multiplicities
