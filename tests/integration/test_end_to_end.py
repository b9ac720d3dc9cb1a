"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms.localjoin import evaluate_query
from repro.core import (
    build_plan,
    covering_number,
    parse_query,
    round_upper_bound,
    space_exponent,
)
from repro.core.families import cycle_query, line_query
from repro.data.matching import matching_database
from repro.algorithms.baselines import (
    compile_broadcast_join,
    compile_single_server,
)
from repro.algorithms.multiround import compile_multiround
from repro.algorithms.registry import compile_with
from repro.engine import execute_plan
from tests.conftest import run_pinned


class TestAllAlgorithmsAgree:
    """HC, multi-round plans, broadcast and single-server all compute
    the same answer as the reference join."""

    @pytest.mark.parametrize(
        "text",
        [
            "S1(x,y), S2(y,z)",
            "S1(x,y), S2(y,z), S3(z,x)",
            "S1(x,y), S2(y,z), S3(z,w)",
            "R1(z,x1), P1(x1,y1), R2(z,x2), P2(x2,y2)",
        ],
        ids=["L2", "C3", "L3", "SP2"],
    )
    def test_agreement(self, text):
        query = parse_query(text)
        database = matching_database(query, n=30, rng=44)
        truth = evaluate_query(
            query,
            {name: database[name].tuples for name in database.relations},
        )
        logical = build_plan(query, space_exponent(query))
        for plan in (
            compile_with("hypercube", query, 8, seed=1),
            compile_broadcast_join(query, 4),
            compile_single_server(query),
            compile_multiround(logical, 8, seed=1),
        ):
            assert execute_plan(plan, database).answers == truth


class TestFullPipeline:
    def test_analyse_plan_execute_verify(self):
        """The README workflow, asserted end to end."""
        query = cycle_query(6)
        assert covering_number(query) == 3
        assert space_exponent(query) == Fraction(2, 3)

        database = matching_database(query, n=24, rng=5)
        assert database.is_matching_database()

        plan = build_plan(query, Fraction(0))
        assert plan.depth <= round_upper_bound(query, Fraction(0))

        result = execute_plan(compile_multiround(plan, 8, seed=5), database)
        truth = evaluate_query(
            query,
            {name: database[name].tuples for name in database.relations},
        )
        assert result.answers == truth
        assert result.report.num_rounds == plan.depth

    def test_one_round_vs_multi_round_communication(self):
        """Extra rounds buy lower per-round replication: the paper's
        central tradeoff, measured."""
        query = line_query(8)
        database = matching_database(query, n=64, rng=6)

        one_round = run_pinned("hypercube", query, database, p=16, seed=2)
        plan = build_plan(query, Fraction(0))
        multi_round = execute_plan(
            compile_multiround(plan, 16, seed=2), database
        )

        assert one_round.answers == multi_round.answers
        assert one_round.report.num_rounds == 1
        assert multi_round.report.num_rounds == 3
        # One-round max load per round exceeds the multi-round's.
        assert (
            one_round.report.max_load_tuples
            > multi_round.report.max_load_tuples
        )


class TestExamplesRun:
    """Every example script executes cleanly (they self-verify)."""

    @pytest.mark.parametrize(
        "module_name",
        [
            "quickstart",
            "drug_interactions",
            "triangle_counting",
            "multiround_chains",
            "connected_components",
            "witness_hunt",
        ],
    )
    def test_example(self, module_name, capsys):
        import importlib.util
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "examples"
            / f"{module_name}.py"
        )
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        output = capsys.readouterr().out
        assert output.strip()
