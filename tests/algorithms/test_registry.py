"""Algorithm registry: compilers, cost models, uniform dispatch."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms.hypercube import compile_hypercube
from repro.algorithms.multiround import compile_multiround
from repro.algorithms.partial import compile_partial_hypercube
from repro.algorithms.registry import (
    DataProfile,
    algorithm_names,
    compile_with,
    get_algorithm,
)
from repro.core.plans import build_plan
from repro.core.query import QueryError, parse_query


def _profile(query, rows_per_relation=100, heavy=()):
    relation_rows = tuple(
        (atom.name, rows_per_relation) for atom in query.atoms
    )
    return DataProfile(
        relation_rows=relation_rows,
        total_rows=rows_per_relation * len(relation_rows),
        heavy_values=tuple((v, 1) for v, _ in heavy),
        heavy_multiplicities=tuple(heavy),
        sampled=False,
    )


def _estimate(name, query, profile, eps):
    """The named algorithm's bid, evaluated on ``profile``."""
    return get_algorithm(name).bid(query, 16, eps)(profile)


class TestRegistryContents:
    def test_three_compilers_registered(self):
        assert algorithm_names() == ("hypercube", "multiround", "partial")

    def test_unknown_name_is_a_query_error_listing_options(self):
        with pytest.raises(QueryError, match="hypercube"):
            get_algorithm("nope")

    def test_skewaware_is_unknown(self, two_hop):
        """Heavy-hitter routing is HyperCube's; no second name."""
        with pytest.raises(
            QueryError, match="hypercube, multiround, partial"
        ):
            compile_with("skewaware", two_hop, 16)

    def test_specs_declare_exactness(self):
        assert get_algorithm("partial").exact is False
        assert get_algorithm("hypercube").exact is True

    def test_default_capacities_match_the_compilers(self):
        assert get_algorithm("hypercube").default_capacity_c == 4.0
        assert get_algorithm("multiround").default_capacity_c == 8.0


class TestCompileWith:
    def test_hypercube_matches_direct_compile(self, two_hop):
        via_registry = compile_with("hypercube", two_hop, 16, seed=3)
        direct = compile_hypercube(two_hop, 16, seed=3)
        assert via_registry.signature == direct.signature
        assert via_registry.describe() == direct.describe()

    def test_multiround_builds_the_logical_plan(self, chain4):
        via_registry = compile_with("multiround", chain4, 16)
        direct = compile_multiround(build_plan(chain4, Fraction(0)), 16)
        assert via_registry.signature == direct.signature
        assert via_registry.describe() == direct.describe()

    def test_partial_requires_eps(self, triangle):
        with pytest.raises(QueryError, match="eps"):
            compile_with("partial", triangle, 16)
        via_registry = compile_with(
            "partial", triangle, 16, eps=Fraction(0)
        )
        direct = compile_partial_hypercube(triangle, 16, Fraction(0))
        assert via_registry.signature == direct.signature

    def test_partial_rejects_enforce_capacity(self, triangle):
        with pytest.raises(QueryError, match="capacity"):
            compile_with(
                "partial",
                triangle,
                16,
                eps=Fraction(0),
                enforce_capacity=True,
            )

    def test_capacity_none_resolves_per_algorithm_default(self, two_hop):
        hc = compile_with("hypercube", two_hop, 16)
        mr = compile_with("multiround", two_hop, 16)
        assert hc.signature.capacity_c == 4.0
        assert mr.signature.capacity_c == 8.0


class TestCostModels:
    def test_one_round_ineligible_below_space_exponent(self, triangle):
        profile = _profile(triangle)
        estimate = _estimate("hypercube", triangle, profile, Fraction(0))
        assert not estimate.eligible
        assert "Theorem 3.3" in estimate.reason

    def test_hypercube_beats_multiround_on_short_queries(self, triangle):
        profile = _profile(triangle)
        hc = _estimate("hypercube", triangle, profile, None)
        mr = _estimate("multiround", triangle, profile, None)
        assert hc.eligible and mr.eligible
        assert hc.cost < mr.cost

    def test_multiround_beats_hypercube_on_long_chains(self):
        chain = parse_query(
            "S1(a,b), S2(b,c), S3(c,d), S4(d,e), S5(e,f), S6(f,g)"
        )
        profile = _profile(chain)
        hc = _estimate("hypercube", chain, profile, None)
        mr = _estimate("multiround", chain, profile, None)
        assert mr.cost < hc.cost
        assert mr.rounds > 1

    def test_heavy_value_priced_at_its_split(self, two_hop):
        """A heavy value costs ``multiplicity / isqrt(p_v)``: y's share
        is 16, so multiplicity 80 splits over 4 rows to 20."""
        skew_free = _estimate("hypercube", two_hop, _profile(two_hop), None)
        assert skew_free.predicted_load == 200 / 16
        skewed = _estimate(
            "hypercube", two_hop, _profile(two_hop, heavy=(("y", 80),)), None
        )
        assert skewed.predicted_load == skewed.cost == 80 / 4
        assert "split" in skewed.reason

    def test_partial_cost_needs_low_eps(self, triangle):
        profile = _profile(triangle)
        assert not _estimate("partial", triangle, profile, None).eligible
        assert not _estimate(
            "partial", triangle, profile, Fraction(1, 2)
        ).eligible  # above the space exponent 1/3
        assert _estimate("partial", triangle, profile, Fraction(0)).eligible

    def test_shares_reported_for_one_round_algorithms(self, two_hop):
        profile = _profile(two_hop)
        estimate = _estimate("hypercube", two_hop, profile, None)
        assert dict(estimate.shares)["y"] == 16
