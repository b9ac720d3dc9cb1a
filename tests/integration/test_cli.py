"""Integration tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.core.query import parse_query
from repro.data.generators import matching_database, skewed_database
from tests.conftest import run_pinned

TRIANGLE = "S1(x,y), S2(y,z), S3(z,x)"
L4 = "S1(a,b), S2(b,c), S3(c,d), S4(d,e)"


def _rows(output):
    """A ``property  value`` table's rows as a dict of strings."""
    return dict(
        re.split(r"\s{2,}", line, maxsplit=1)
        for line in output.splitlines()
        if re.search(r"\S\s{2,}\S", line)
    )


class TestQueryReachesThePinnedPath:
    """``query --algorithm X`` prints what ``compile_with`` +
    ``execute_plan`` measure on the same database and seed."""

    def test_hypercube(self, capsys):
        query = parse_query(TRIANGLE)
        code = main(["query", TRIANGLE, "--algorithm", "hypercube",
                     "--n", "60", "--p", "8", "--seed", "3"])
        rows = _rows(capsys.readouterr().out)
        pinned = run_pinned(
            "hypercube", query, matching_database(query, n=60, rng=3), 8,
            seed=3,
        )
        assert code == 0
        assert rows["verified vs exact join"] == "True"
        assert rows["max load (tuples)"] == str(pinned.report.max_load_tuples)
        assert rows["replication rate"] == (
            f"{pinned.report.replication_rate:.3f}"
        )
        assert rows["shares"] == "{" + ", ".join(
            f"{v}: {s}" for v, s in pinned.plan.allocation.shares.items()
        ) + "}"

    def test_multiround(self, capsys):
        query = parse_query(L4)
        code = main(["query", L4, "--algorithm", "multiround",
                     "--eps", "0", "--n", "40", "--p", "8"])
        rows = _rows(capsys.readouterr().out)
        pinned = run_pinned(
            "multiround", query, matching_database(query, n=40, rng=0), 8,
            eps=0,
        )
        assert code == 0
        assert rows["verified vs exact join"] == "True"
        assert rows["rounds used"] == str(pinned.report.num_rounds) == "2"
        views = {
            key[len("view |"):-1]: int(value)
            for key, value in rows.items()
            if key.startswith("view |")
        }
        assert views == pinned.view_sizes != {}

    def test_skewed_database(self, capsys):
        query = parse_query("S1(x,y), S2(y,z)")
        code = main(["query", str(query), "--skewed", "--algorithm",
                     "hypercube", "--n", "120", "--heavy-fraction", "0.5"])
        rows = _rows(capsys.readouterr().out)
        pinned = run_pinned(
            "hypercube", query,
            skewed_database(query, n=120, rng=0, heavy_fraction=0.5), 16,
        )
        assert code == 0
        assert rows["verified vs exact join"] == "True"
        assert rows["max load (tuples)"] == str(pinned.report.max_load_tuples)
        assert rows["round-1 imbalance"] == (
            f"{pinned.report.rounds[0].load_imbalance:.2f}"
        )
        assert rows["heavy hitters"] == "{y: [1]}"
        assert pinned.heavy_hitters["y"] == {1}

    @pytest.mark.parametrize("command", ["query S1(x,y)", "serve --tcp 0"])
    def test_skewaware_is_an_invalid_choice(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command.split(), "--algorithm", "skewaware"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'skewaware'" in capsys.readouterr().err

    def test_disconnected_multiround_errors(self, capsys):
        code = main(["query", "R(x,y), S(u,v)", "--algorithm", "multiround"])
        assert code == 2
        assert "error: plans require a connected query" in (
            capsys.readouterr().err
        )


class TestExplainAnalysis:
    """``explain`` carries the query's static analysis and, for a
    multi-round choice, the plan's steps."""

    def test_triangle_at_27_servers(self, capsys):
        code = main(["explain", TRIANGLE, "--p", "27"])
        output = capsys.readouterr().out
        rows = _rows(output.split("static analysis", 1)[1])
        assert code == 0
        assert rows["share grid"] == "{x: 3, y: 3, z: 3} on 27 servers"
        assert rows["vertex cover"] == "{x: 1/2, y: 1/2, z: 1/2}"
        assert rows["edge packing"] == "{S1: 1/2, S2: 1/2, S3: 1/2}"
        assert rows["share exponents"] == "{x: 1/3, y: 1/3, z: 1/3}"
        assert rows["characteristic chi"] == "-1"
        assert rows["tree-like"] == "False"
        assert rows["radius"] == rows["diameter"] == "1"
        assert "3/2" in output  # tau*
        assert "Fraction(" not in output

    def test_one_round_choice_prints_no_plan_steps(self, capsys):
        assert main(["explain", "S1(x,y), S2(y,z)", "--n", "60"]) == 0
        output = capsys.readouterr().out
        assert _rows(output)["chosen algorithm"] == "hypercube"
        assert "  round 1: " not in output

    def test_disconnected_query_explained(self, capsys):
        code = main(["explain", "R(x,y), S(u,v)"])
        output = capsys.readouterr().out
        assert code == 0
        assert "tau*" in output
        assert "diameter" not in output

    def test_malformed_query_errors(self, capsys):
        assert main(["explain", "garbage("]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("eps, depth", [("0", 2), ("1/2", 1)])
    def test_multiround_plan_steps(self, capsys, eps, depth):
        code = main(["explain", L4, "--algorithm", "multiround",
                     "--eps", eps])
        output = capsys.readouterr().out
        assert code == 0
        assert f"plan at eps={eps}: depth {depth}" in output
        assert "  round 1: " in output
        assert ("  round 2: " in output) == (depth == 2)

    def test_planner_chosen_multiround_prints_its_steps(self, capsys):
        chain = "S1(a,b), S2(b,c), S3(c,d), S4(d,e), S5(e,f), S6(f,g)"
        assert main(["explain", chain, "--n", "60"]) == 0
        output = capsys.readouterr().out
        assert _rows(output)["chosen algorithm"] == "multiround"
        assert "round 1: V1 := " in output

    def test_bad_eps_rejected(self):
        with pytest.raises(SystemExit):
            main(["explain", "S1(a,b)", "--eps", "nope"])


class TestRemovedCommands:
    """The six commands whose output ``query``/``explain`` now print
    are argparse's ``invalid choice``, exit 2."""

    @pytest.mark.parametrize(
        "command", ["analyze", "run", "plan", "run-plan", "skew", "shares"]
    )
    def test_old_command_is_an_invalid_choice(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "S1(x,y), S2(y,z)"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestNoBackendFlag:
    """numpy is the one engine: no subcommand takes ``--backend``."""

    @pytest.mark.parametrize(
        "command",
        [
            ["query", "S1(x,y)"],
            ["explain", "S1(x,y)"],
            ["serve"],
        ],
        ids=lambda command: command[0],
    )
    def test_backend_flag_is_rejected(self, capsys, command):
        with pytest.raises(SystemExit):
            main([*command, "--backend", "numpy"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestTables:
    def test_tables_regenerate(self, capsys):
        code = main(["tables", "--n", "20", "--trials", "1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in output
        assert "Table 2" in output
        assert "True" in output  # matches_paper column


class TestProfileFlag:
    def test_query_prints_breakdown(self, capsys):
        code = main(["query", "S1(x,y), S2(y,z)", "--n", "30", "--p", "4",
                     "--algorithm", "hypercube", "--profile"])
        output = capsys.readouterr().out
        assert code == 0
        assert "hypercube timing breakdown" in output
        for phase in ("route", "ship", "deliver", "local"):
            assert phase in output

    def test_no_breakdown_without_flag(self, capsys):
        code = main(["query", "S1(x,y), S2(y,z)", "--n", "30", "--p", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "timing breakdown" not in output

    def test_chunk_rows_prints_the_per_block_table(self, capsys):
        code = main(["query", L4, "--algorithm", "multiround", "--eps", "0",
                     "--n", "40", "--p", "8", "--chunk-rows", "4",
                     "--profile"])
        output = capsys.readouterr().out
        assert code == 0
        assert "multiround timing breakdown" in output
        _, blocks = output.split("per-block timing", 1)
        assert any(
            line.split()[1:2] == ["route"] for line in blocks.splitlines()
        )

    def test_explain_takes_no_profile(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", "S1(x,y)", "--profile"])
        assert excinfo.value.code == 2


class TestWorkersFlag:
    """Every command runs its statements in one process, so none takes
    ``--workers``."""

    def test_streamed_query_runs_in_one_process(self, capsys):
        code = main(["query", "S1(a,b), S2(b,c), S3(c,d)", "--algorithm",
                     "multiround", "--eps", "0", "--n", "40", "--p", "4",
                     "--chunk-rows", "16"])
        output = capsys.readouterr().out
        assert code == 0
        assert _rows(output)["verified vs exact join"] == "True"
        assert "view workers" not in output

    @pytest.mark.parametrize("command", ["query", "explain"])
    def test_query_commands_take_no_workers(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "S1(x,y), S2(y,z)", "--workers", "2",
                  "--chunk-rows", "16"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_takes_no_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--n", "40", "--p", "8", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


def _serve(capsys, tmp_path, lines, *flags):
    """``repro serve --script`` over ``lines``: its stdout (exit 0)."""
    path = tmp_path / "script.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["serve", "--script", str(path), *flags]) == 0
    return capsys.readouterr().out


class TestServe:
    """The REPL is a line parser over the same Session ``--tcp`` serves."""

    def test_run_update_stats_script(self, capsys, tmp_path):
        from repro.serve.rpc import RpcServer
        from tests.serve.test_rpc import _Client, _session, rpc_test

        output = _serve(
            capsys,
            tmp_path,
            [
                "# comment and blank lines are skipped",
                "",
                "run S1(x,y), S2(y,z)",
                "run S1(x,y), S2(y,z)",
                "run S2(a,b), S1(b,c)",
                "explain S1(x,y), S2(y,z)",
                "update S1 1,2 3,4",
                "run S1(x,y), S2(y,z)",
                "delete S1 1,2",
                "stats",
                "exit",
            ],
            "--n", "40", "--p", "8", "--seed", "7",
        )
        assert "serving" in output
        assert "result:hit" in output       # repeated query memoized
        assert "plan:hit result:miss" in output  # isomorphic variant
        assert "planner bids (chosen first)" in output  # explain
        assert "v1: updated 2 rows in S1" in output
        assert "v2: deleted 1 rows in S1" in output

        # The stats table is the dict of the RPC ``stats`` op: the same
        # statements over the wire report equal sections -- but for the
        # reply bytes IVM retains, which only the wire builds: the
        # merge counts the first reply, the one it derives its own from.
        async def over_rpc():
            async with RpcServer(_session(n=40, seed=7)) as server:
                client = await _Client.open(server)
                first = await client.call(
                    {"op": "query", "q": "S1(x,y), S2(y,z)"}
                )
                for request in (
                    {"op": "query", "q": "S1(x,y), S2(y,z)"},
                    {"op": "query", "q": "S2(a,b), S1(b,c)"},
                    {"op": "explain", "q": "S1(x,y), S2(y,z)"},
                    {"op": "update", "relation": "S1",
                     "rows": [[1, 2], [3, 4]]},
                    {"op": "query", "q": "S1(x,y), S2(y,z)"},
                    {"op": "delete", "relation": "S1", "rows": [[1, 2]]},
                ):
                    assert (await client.call(request))["ok"]
                stats = await client.call({"op": "stats"})
                await client.close()
                return first, stats

        first, stats = rpc_test(over_rpc())
        stats["service"]["ivm_retained_bytes"] -= len(
            json.dumps(first["answers"], separators=(",", ":"))
        )
        assert dict(
            line.split(None, 1)
            for line in output.splitlines()
            if line.startswith(("service.", "planner."))
        ) == {
            f"{section}.{counter}": str(value)
            for section in ("service", "planner")
            for counter, value in stats[section].items()
        }

    def test_errors_do_not_kill_the_loop(self, capsys, tmp_path):
        output = _serve(
            capsys,
            tmp_path,
            [
                "run garbage(",
                "frobnicate",
                "update",
                "run S1(x,y)",
                "exit",
            ],
            "--n", "20", "--p", "4",
        )
        assert output.count("error:") == 3
        assert "answers in" in output  # the valid query still ran

    def test_update_reflects_in_answers(self, capsys, tmp_path):
        output = _serve(
            capsys,
            tmp_path,
            [
                "run S1(x,y)",
                "update S1 7,9",
                "run S1(x,y)",
                "exit",
            ],
            "--n", "10", "--p", "2",
        )
        counts = [
            int(line.split()[0])
            for line in output.splitlines()
            if "answers in" in line
        ]
        assert counts[1] == counts[0] + 1

    def test_bad_updates_report_errors_without_crashing(
        self, capsys, tmp_path
    ):
        output = _serve(
            capsys,
            tmp_path,
            [
                "delete Nope 1,2",      # unknown relation (DataError)
                "update S1 1,2,3",      # wrong arity (DataError)
                "update S1 0,1",        # value below domain (DataError)
                "run S1(x,y)",
                "exit",
            ],
            "--n", "20", "--p", "4",
        )
        assert output.count("error:") == 3
        assert "answers in" in output

    def test_routes_like_the_query_command(self, capsys, tmp_path):
        chain = "S1(a,b), S2(b,c), S3(c,d), S4(d,e), S5(e,f), S6(f,g)"
        output = _serve(
            capsys, tmp_path, [f"run {chain}"], "--vocab", chain, "--n", "60"
        )
        assert "via multiround" in output
        # Funnel S1's second column into one value: the skew the
        # planner's profile samples, built with the REPL's own verbs.
        heavy = " ".join(f"{x},7" for x in range(1, 151))
        output = _serve(
            capsys, tmp_path,
            [f"update S1 {heavy}", "run S1(x,y), S2(y,z)"], "--n", "150",
        )
        assert "via hypercube" in output

    @pytest.mark.parametrize("command", ["query", "explain", "serve --tcp 0"])
    def test_p_zero_is_a_usage_error_not_a_traceback(self, capsys, command):
        query = [] if command.startswith("serve") else ["S1(x,y)"]
        assert main([*command.split(), *query, "--p", "0"]) == 2
        assert "error: need p >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("cache", ["plan", "result"])
    def test_negative_cache_size_is_a_usage_error(
        self, capsys, tmp_path, cache
    ):
        script = tmp_path / "script.txt"
        script.write_text("exit\n", encoding="utf-8")
        flags = ["--script", str(script), f"--{cache}-cache-size", "-7"]
        assert main(["serve", *flags]) == 2
        error = capsys.readouterr().err
        assert f"error: need {cache}_cache_size >= 0, got -7" in error


class TestQueryCommand:
    """The planner-backed front door from the command line."""

    def test_matching_database_routes_to_hypercube(self, capsys):
        code = main(["query", "S1(x,y), S2(y,z)", "--n", "80", "--p", "8"])
        output = capsys.readouterr().out
        assert code == 0
        assert "chosen algorithm         hypercube" in output
        assert "verified vs exact join   True" in output

    def test_skewed_database_routes_to_hypercube(self, capsys):
        code = main(
            ["query", "S1(x,y), S2(y,z)", "--skewed", "--n", "150"]
        )
        rows = _rows(capsys.readouterr().out)
        assert code == 0
        assert rows["chosen algorithm"] == "hypercube"
        assert rows["heavy hitters"] == "{y: [1]}"
        assert rows["verified vs exact join"] == "True"

    def test_long_chain_routes_to_multiround(self, capsys):
        code = main(
            [
                "query",
                "S1(a,b), S2(b,c), S3(c,d), S4(d,e), S5(e,f), S6(f,g)",
                "--n", "60",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "multiround" in output
        assert "verified vs exact join   True" in output

    def test_algorithm_pin(self, capsys):
        code = main(
            ["query", "S1(x,y), S2(y,z)", "--algorithm", "multiround",
             "--n", "40"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "multiround (pinned)" in output

    def test_partial_route_with_low_eps(self, capsys):
        code = main(
            ["query", "S1(x,y), S2(y,z), S3(z,x)", "--eps", "0",
             "--allow-partial", "--n", "60"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "partial" in output
        assert "n/a (partial answers)" in output

    def test_malformed_query_errors_cleanly(self, capsys):
        code = main(["query", "S1(x", "--n", "20"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_domain_is_a_usage_error_not_a_traceback(self, capsys):
        assert main(["query", "S1(x,y), S2(y,z)", "--n", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: S1: domain size must be >= 1, got 0\n"
        )

    def test_heavy_fraction_out_of_range_is_a_usage_error(self, capsys):
        code = main(["query", "S1(x,y), S2(y,z)", "--skewed",
                     "--heavy-fraction", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: heavy_fraction must be in [0,1], got 2.0\n"
        )


class TestExplainCommand:
    def test_report_shows_bids_and_bounds(self, capsys):
        code = main(["explain", "S1(x,y), S2(y,z)", "--n", "60"])
        output = capsys.readouterr().out
        assert code == 0
        assert "planner bids (chosen first)" in output
        assert "tau* (covering number)" in output
        assert "space exponent (Thm 1.1)" in output
        assert "hypercube" in output and "multiround" in output

    def test_pinned_eps_changes_the_choice(self, capsys):
        code = main(
            ["explain", "S1(x,y), S2(y,z), S3(z,x)", "--eps", "0",
             "--n", "60"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "chosen algorithm                   multiround" in output
        assert "Theorem 3.3" in output  # HC's ineligibility reason


class TestServeErrorRegressions:
    """Regression: bad statements must never kill the REPL loop.

    An arity-mismatched query used to escape the error handling as a
    raw IndexError traceback (killing the whole process); an unknown
    relation surfaced as a bare KeyError repr.  Both now come back as
    structured ``error:`` lines and the loop keeps serving.
    """

    @pytest.mark.parametrize("algorithm", ["hypercube", "multiround"])
    def test_arity_mismatch_reports_error_and_loop_survives(
        self, capsys, tmp_path, algorithm
    ):
        output = _serve(
            capsys,
            tmp_path,
            [
                "run S1(x,y,z)",     # arity 3 vs stored arity 2
                "run S1(x)",         # arity 1 vs stored arity 2
                "run S1(x,y)",       # still serving after the errors
                "exit",
            ],
            "--n", "20", "--p", "4", "--algorithm", algorithm,
        )
        assert output.count("error: arity mismatch for S1") == 2
        assert "answers in" in output

    def test_unknown_relation_reports_structured_error(
        self, capsys, tmp_path
    ):
        output = _serve(
            capsys,
            tmp_path,
            ["run S1(x,y), S9(y,z)", "run S1(x,y)", "exit"],
            "--n", "20", "--p", "4",
        )
        assert "error: unknown relation 'S9'" in output
        assert "answers in" in output

    def test_stats_reports_eviction_counters(self, capsys, tmp_path):
        output = _serve(
            capsys, tmp_path, ["run S1(x,y)", "stats", "exit"],
            "--n", "20", "--p", "4",
            "--plan-cache-size", "2", "--result-cache-size", "2",
        )
        assert "service.plan_evictions" in output
        assert "service.result_evictions" in output


class TestServeTcpFlag:
    def test_parser_accepts_tcp_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--tcp", "0", "--host", "127.0.0.1",
             "--plan-cache-size", "64"]
        )
        assert args.tcp == 0
        assert args.host == "127.0.0.1"
        assert args.plan_cache_size == 64
