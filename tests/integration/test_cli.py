"""Integration tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestAnalyze:
    def test_triangle(self, capsys):
        code = main(["analyze", "S1(x,y), S2(y,z), S3(z,x)"])
        output = capsys.readouterr().out
        assert code == 0
        assert "3/2" in output
        assert "1/3" in output
        assert "tree-like" in output

    def test_disconnected_query_analyzed(self, capsys):
        code = main(["analyze", "R(x,y), S(u,v)"])
        assert code == 0
        output = capsys.readouterr().out
        assert "tau*" in output

    def test_malformed_query_errors(self, capsys):
        code = main(["analyze", "garbage("])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_verified_run(self, capsys):
        code = main(
            ["run", "S1(x,y), S2(y,z)", "--n", "30", "--p", "4"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "True" in output
        assert "answers" in output


class TestPlan:
    def test_depth_printed(self, capsys):
        code = main(
            ["plan", "S1(a,b), S2(b,c), S3(c,d), S4(d,e)", "--eps", "0"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "depth 2" in output
        assert "round 1" in output

    def test_eps_fraction_parsing(self, capsys):
        code = main(
            ["plan", "S1(a,b), S2(b,c), S3(c,d), S4(d,e)", "--eps", "1/2"]
        )
        assert code == 0
        assert "depth 1" in capsys.readouterr().out

    def test_bad_eps_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "S1(a,b)", "--eps", "nope"])


class TestRunPlan:
    def test_executes_and_verifies(self, capsys):
        code = main(
            [
                "run-plan",
                "S1(a,b), S2(b,c), S3(c,d), S4(d,e)",
                "--eps", "0", "--n", "40", "--p", "8",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "plan depth" in output
        assert "rounds used" in output
        assert "True" in output
        assert "view |" in output

    def test_disconnected_query_errors(self, capsys):
        code = main(["run-plan", "R(x,y), S(u,v)"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSkew:
    def test_detects_heavy_hitter_and_verifies(self, capsys):
        code = main(
            [
                "skew",
                "S1(x,y), S2(y,z)",
                "--n", "120", "--p", "16",
                "--heavy-fraction", "0.5",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "heavy hitters" in output
        assert "True" in output
        assert "skew-aware max load" in output


class TestNoBackendFlag:
    """numpy is the one engine: no subcommand takes ``--backend``."""

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "S1(x,y)"],
            ["run-plan", "S1(x,y)"],
            ["skew", "S1(x,y)"],
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


class TestShares:
    def test_cube_allocation(self, capsys):
        code = main(
            ["shares", "S1(x,y), S2(y,z), S3(z,x)", "--p", "27"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "27 servers" in output


class TestTables:
    def test_tables_regenerate(self, capsys):
        code = main(["tables", "--n", "20", "--trials", "1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in output
        assert "Table 2" in output
        assert "True" in output  # matches_paper column


class TestProfileFlag:
    def test_run_prints_breakdown(self, capsys):
        code = main(
            ["run", "S1(x,y), S2(y,z)", "--n", "30", "--p", "4",
             "--profile"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "timing breakdown" in output
        for phase in ("route", "ship", "deliver", "local"):
            assert phase in output

    def test_run_plan_prints_breakdown(self, capsys):
        code = main(
            ["run-plan", "S1(a,b), S2(b,c), S3(c,d)", "--eps", "0",
             "--n", "20", "--p", "4", "--profile"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "plan timing breakdown" in output

    def test_skew_prints_both_breakdowns(self, capsys):
        code = main(
            ["skew", "S1(x,y), S2(y,z)", "--n", "40", "--p", "4",
             "--profile"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "plain HC timing breakdown" in output
        assert "skew-aware timing breakdown" in output

    def test_no_breakdown_without_flag(self, capsys):
        code = main(["run", "S1(x,y), S2(y,z)", "--n", "30", "--p", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "timing breakdown" not in output


class TestWorkersFlag:
    """Every command runs its statements in one process, so none takes
    ``--workers``."""

    def test_streamed_run_plan_runs_in_one_process(self, capsys):
        code = main(["run-plan", "S1(a,b), S2(b,c), S3(c,d)", "--eps", "0",
                     "--n", "40", "--p", "4", "--chunk-rows", "16"])
        output = capsys.readouterr().out
        assert code == 0
        assert "verified vs exact join  True" in output
        assert "view workers" not in output

    @pytest.mark.parametrize("command", ["run", "skew", "run-plan"])
    def test_pinned_commands_take_no_workers(self, capsys, command):
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

    def test_chunk_rows_prints_the_per_block_table(self, capsys):
        code = main(
            ["run-plan", "S1(a,b), S2(b,c), S3(c,d), S4(d,e)", "--eps", "0",
             "--n", "40", "--p", "8", "--chunk-rows", "4", "--profile"]
        )
        output = capsys.readouterr().out
        assert code == 0
        _, blocks = output.split("per-block timing", 1)
        assert any(
            line.split()[1:2] == ["route"] for line in blocks.splitlines()
        )


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
        assert "via skewaware" in output

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

    def test_skewed_database_routes_to_skew_aware(self, capsys):
        code = main(
            ["query", "S1(x,y), S2(y,z)", "--skewed", "--n", "150"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "skewaware" in output
        assert "verified vs exact join   True" in output

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
