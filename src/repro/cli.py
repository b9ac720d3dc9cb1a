"""Command-line interface: ``python -m repro <command>``.

Every command but ``tables`` opens one :func:`repro.connect` session
over a generated database (a random matching one; ``--skewed`` funnels
``--heavy-fraction`` of every relation into one heavy value):

* ``query Q`` -- execute ``Q`` (the planner picks the algorithm;
  ``--algorithm`` and ``--eps`` pin it), print what the run measured
  and verify the answers against the exact join.  ``--profile`` adds
  a per-round route/ship/deliver/local-eval breakdown.
* ``explain Q`` -- the planner's report without executing, the query's
  static analysis (covers, shares, chi, radius, diameter) and, for a
  multi-round choice, the plan's steps.
* ``serve`` -- one long-lived session behind a REPL on stdin (or
  ``--script FILE``): ``run <query>``, ``explain <query>``,
  ``update <rel> <v,v> ...``, ``delete <rel> <v,v> ...``, ``stats``,
  ``exit``.  With ``--tcp PORT`` the session is served over the
  JSON-lines RPC protocol of :mod:`repro.serve.rpc` instead; the same
  port answers HTTP ``GET /metrics`` and ``GET /healthz``.
* ``tables`` -- regenerate Table 1 and Table 2 of the paper.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from fractions import Fraction

from repro.analysis.reporting import format_table
from repro.core.characteristic import characteristic, is_tree_like
from repro.core.covers import analyze_covers
from repro.core.plans import build_plan
from repro.core.query import QueryError, parse_query
from repro.core.shares import allocate_integer_shares, share_exponents
from repro.data.columnar import DataError


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as error:
        raise argparse.ArgumentTypeError(
            f"invalid space exponent {text!r}: {error}"
        ) from None


def _mapping(values) -> str:
    """``{x: 1/2, y: 3}``: a mapping with its values str()-ed."""
    return "{" + ", ".join(f"{k}: {v}" for k, v in values.items()) + "}"


def _generated_database(query, args: argparse.Namespace):
    """The database ``query``/``explain`` run against."""
    from repro.data.generators import matching_database, skewed_database

    if args.skewed:
        return skewed_database(
            query,
            n=args.n,
            rng=args.seed,
            heavy_fraction=args.heavy_fraction,
        )
    return matching_database(query, n=args.n, rng=args.seed)


def _session_for(database, args: argparse.Namespace, **options):
    """The one ``connect(...)`` of ``query``, ``explain`` and ``serve``."""
    from repro.api import connect

    return connect(
        database,
        p=args.p,
        seed=args.seed,
        chunk_rows=args.chunk_rows,
        **options,
    )


def cmd_query(args: argparse.Namespace) -> int:
    from repro.algorithms.localjoin import evaluate_query_table
    from repro.engine import RoundProfiler

    query = parse_query(args.query)
    database = _generated_database(query, args)
    profiler = RoundProfiler() if args.profile else None
    result = _session_for(database, args).query(
        query,
        eps=args.eps,
        algorithm=args.algorithm,
        allow_partial=args.allow_partial,
    ).execute(profiler)
    explain = result.explain
    report = result.report
    rows = [
        ["query", str(query)],
        ["n (domain)", args.n],
        ["p (servers)", args.p],
        ["chosen algorithm", result.algorithm
         + (" (pinned)" if args.algorithm else "")],
        ["eps effective", explain.eps_effective
         if explain.eps_effective is not None else "per-query"],
        ["predicted rounds / load",
         f"{explain.predicted_rounds} / {explain.predicted_load:.1f}"],
        ["answers", len(result.answers)],
    ]
    if result.algorithm != "partial":
        truth = evaluate_query_table(
            query, {relation.name: relation.columns for relation in database}
        )
        verified = result.answers == tuple(map(tuple, truth.tolist()))
        rows.append(["verified vs exact join", verified])
    else:
        verified = True
        rows.append(["verified vs exact join", "n/a (partial answers)"])
    rows += [
        ["rounds used", report.num_rounds],
        ["max load (tuples)", report.max_load_tuples],
        ["replication rate", f"{report.replication_rate:.3f}"],
        ["round-1 imbalance", f"{report.rounds[0].load_imbalance:.2f}"],
    ]
    if result.plan.allocation is not None:
        rows.append(["shares", _mapping(result.plan.allocation.shares)])
    rows += [
        [f"view |{view}|", size]
        for view, size in sorted(result.view_sizes.items())
    ]
    if result.heavy_hitters is not None:
        heavy = {
            variable: sorted(values)
            for variable, values in result.heavy_hitters.items()
            if values
        }
        rows.append(["heavy hitters", _mapping(heavy) if heavy else "none"])
    print(format_table(["property", "value"], rows))
    if profiler is not None:
        print()
        print(profiler.format_table(
            title=f"{result.algorithm} timing breakdown"
        ))
    print("\n(`repro explain` prints the full planner report)")
    return 0 if verified else 1


def _analysis_rows(query, p: int) -> list[list[object]]:
    """The query's static analysis: what the data cannot change."""
    analysis = analyze_covers(query)
    exponents = share_exponents(query, analysis.vertex_cover)
    grid = allocate_integer_shares(exponents, p)
    rows = [
        ["vertex cover", _mapping(analysis.vertex_cover)],
        ["edge packing", _mapping(analysis.edge_packing)],
        ["share exponents", _mapping(exponents)],
        ["share grid", f"{_mapping(grid.shares)} on "
         f"{grid.used_servers} servers"],
        ["characteristic chi", characteristic(query)],
        ["tree-like", is_tree_like(query)],
    ]
    if query.is_connected:
        rows.append(["radius", query.hypergraph.radius])
        rows.append(["diameter", query.hypergraph.diameter])
    return rows


def cmd_explain(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    session = _session_for(_generated_database(query, args), args)
    explain = session.explain(
        query,
        eps=args.eps,
        algorithm=args.algorithm,
        allow_partial=args.allow_partial,
    )
    print(explain.format())
    print()
    print(format_table(
        ["property", "value"],
        _analysis_rows(query, args.p),
        title="static analysis",
    ))
    if explain.algorithm == "multiround":
        plan = build_plan(query, explain.eps_effective)
        print()
        print(f"plan at eps={explain.eps_effective}: depth {plan.depth}")
        for index, round_ in enumerate(plan.rounds, start=1):
            for step in round_.steps:
                print(f"  round {index}: {step.output} := {step.query}")
    return 0


def _repl_line(session, line: str, out) -> bool:
    """Process one serve-REPL line as a Session call; False means quit."""
    import time

    from repro.mpc.simulator import CapacityExceeded

    line = line.strip()
    if not line or line.startswith("#"):
        return True
    command, _, rest = line.partition(" ")
    command = command.lower()
    if command in ("exit", "quit"):
        return False
    try:
        if command == "run":
            start = time.perf_counter()
            result = session.execute(rest)
            elapsed = (time.perf_counter() - start) * 1000
            flags = (
                f"plan:{'hit' if result.plan_hit else 'miss'} "
                f"result:{'hit' if result.cached else 'miss'}"
            )
            print(
                f"{len(result)} answers in {elapsed:.2f} ms "
                f"[{flags}] v{result.version} via {result.algorithm}",
                file=out,
            )
        elif command == "explain":
            print(session.explain(rest).format(), file=out)
        elif command in ("update", "delete"):
            relation, _, row_text = rest.partition(" ")
            if not relation:
                raise ValueError(f"usage: {command} <relation> <v,v> ...")
            rows = [
                tuple(int(value) for value in token.split(","))
                for token in row_text.split()
            ]
            if not rows:
                raise ValueError(f"{command}: no rows given")
            delta = {relation: rows}
            version = (
                session.update(inserts=delta)
                if command == "update"
                else session.update(deletes=delta)
            )
            print(f"v{version}: {command}d {len(rows)} rows in {relation}", file=out)
        elif command == "stats":
            # The session's part of the RPC ``stats`` reply, one row
            # per instrument: ``section.key``, or a top-level key.
            rows = []
            for name, value in session.stats_report().items():
                if isinstance(value, dict):
                    rows += [[f"{name}.{key}", v] for key, v in value.items()]
                else:
                    rows.append([name, value])
            print(format_table(["counter", "value"], rows), file=out)
        else:
            print(f"error: unknown command {command!r} "
                  "(run / explain / update / delete / stats / exit)",
                  file=out)
    except (
        QueryError,
        DataError,
        ValueError,
        KeyError,
        CapacityExceeded,
    ) as error:
        print(f"error: {error}", file=out)
    except Exception as error:  # noqa: BLE001 -- the REPL must survive
        # Anything unexpected still comes back as one structured line
        # (with the type, since the message alone may be cryptic).
        print(f"error: {error.__class__.__name__}: {error}", file=out)
    return True


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.data.generators import matching_database

    vocab = parse_query(args.vocab)
    session = _session_for(
        matching_database(vocab, n=args.n, rng=args.seed),
        args,
        eps=args.eps,
        algorithm=args.algorithm,
        plan_cache_size=args.plan_cache_size,
        result_cache_size=args.result_cache_size,
    )
    routing = (
        f"pinned to {args.algorithm}" if args.algorithm else "planner-routed"
    )
    print(
        f"serving {vocab} over n={args.n} matching database "
        f"(p={args.p}, {routing})"
    )
    try:
        if args.tcp is not None:
            import asyncio

            from repro.serve.rpc import serve_tcp

            try:
                asyncio.run(
                    serve_tcp(
                        session,
                        host=args.host,
                        port=args.tcp,
                        max_inflight=args.max_inflight,
                        max_queue=args.max_queue,
                        quota_rps=args.quota_rps,
                        quota_burst=args.quota_burst,
                        idle_timeout=args.idle_timeout,
                    )
                )
            except KeyboardInterrupt:
                print("rpc server stopped")
        else:
            source = (
                open(args.script, encoding="utf-8")
                if args.script
                else nullcontext(sys.stdin)
            )
            with source as stream:
                for line in stream:
                    if not _repl_line(session, line, sys.stdout):
                        break
    finally:
        session.close()
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis.tables import table1_rows, table2_rows

    rows1 = table1_rows(n=args.n, trials=args.trials, seed=0)
    print(format_table(
        ["query", "E[|q|]", "measured", "tau*", "eps", "matches paper"],
        [
            [
                row.name,
                f"{row.expected_answer_size:g}",
                f"{row.measured_answer_size:g}",
                row.tau_star,
                row.space_exponent,
                row.matches_paper,
            ]
            for row in rows1
        ],
        title="Table 1",
    ))
    print()
    rows2 = table2_rows()
    print(format_table(
        ["query", "space exp", "rounds@0", "paper", "curve"],
        [
            [
                row.name,
                row.space_exponent,
                row.rounds_at_zero,
                row.paper_rounds_at_zero,
                " ".join(
                    f"{eps}:{depth}"
                    for eps, depth in sorted(row.rounds_by_eps.items())
                ),
            ]
            for row in rows2
        ],
        title="Table 2",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Beame-Koutris-Suciu (PODS 2013) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_session_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--n", type=int, default=200,
                               help="domain size")
        subparser.add_argument("--p", type=int, default=16,
                               help="number of servers")
        subparser.add_argument("--seed", type=int, default=0)
        subparser.add_argument(
            "--chunk-rows",
            type=int,
            default=None,
            help="streaming block size: route/ship in blocks of this "
            "many rows (default: every step ships whole)",
        )

    def add_planner_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("query")
        subparser.add_argument(
            "--eps",
            type=_parse_eps,
            default=None,
            help="pin the space exponent, e.g. 1/2 (default: "
            "planner-automatic)",
        )
        subparser.add_argument(
            "--algorithm",
            choices=["hypercube", "multiround", "partial"],
            default=None,
            help="pin the algorithm instead of letting the planner pick",
        )
        subparser.add_argument(
            "--allow-partial",
            action="store_true",
            help="let the inexact below-threshold algorithm win when "
            "--eps is pinned under the query's space exponent",
        )
        subparser.add_argument(
            "--skewed",
            action="store_true",
            help="generate a skewed database instead of a matching one",
        )
        subparser.add_argument(
            "--heavy-fraction",
            type=float,
            default=0.5,
            help="with --skewed, the share of each relation funnelled "
            "into one heavy value",
        )
        add_session_options(subparser)

    query_cmd = commands.add_parser(
        "query",
        help="execute a query through the planner-backed Session API",
    )
    add_planner_options(query_cmd)
    query_cmd.add_argument(
        "--profile",
        action="store_true",
        help="print a per-round route/ship/deliver/local-eval "
        "wall-clock breakdown after the run",
    )
    query_cmd.set_defaults(handler=cmd_query)

    explain_cmd = commands.add_parser(
        "explain",
        help="print the planner's report and the query's static "
        "analysis without executing",
    )
    add_planner_options(explain_cmd)
    explain_cmd.set_defaults(handler=cmd_explain)

    serve = commands.add_parser(
        "serve",
        help="long-lived query service over a generated matching DB "
        "(REPL on stdin, or --script FILE)",
    )
    serve.add_argument(
        "--vocab",
        default="S1(x,y), S2(y,z), S3(z,x)",
        help="query whose atoms define the served relations",
    )
    serve.add_argument(
        "--algorithm",
        choices=["hypercube", "multiround"],
        default=None,
        help="pin the compiler serving requests (default: the "
        "cost-based planner picks per statement)",
    )
    serve.add_argument(
        "--eps",
        type=_parse_eps,
        default=None,
        help="space exponent (default: per-query; multiround uses 0)",
    )
    serve.add_argument(
        "--script",
        help="file with one command per line instead of stdin",
    )
    serve.add_argument(
        "--tcp",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the asyncio JSON-lines RPC protocol on PORT "
        "(0 picks a free port) instead of the REPL; the same port "
        "answers HTTP GET /metrics and /healthz",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --tcp",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        help="with --tcp, admit at most N queries at once and queue "
        "the rest (0, the default, disables admission control)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="with --tcp, queue depth behind --max-inflight; excess "
        "requests are shed with a ServerOverloaded error",
    )
    serve.add_argument(
        "--quota-rps",
        type=float,
        default=None,
        help="with --tcp, per-client token-bucket rate limit in "
        "requests/second (default: no quota)",
    )
    serve.add_argument(
        "--quota-burst",
        type=float,
        default=None,
        help="with --tcp, token-bucket burst size "
        "(default: max(2 * quota-rps, 1))",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --tcp, drop connections idle for more than SECONDS "
        "(default: keep idle connections open)",
    )
    serve.add_argument(
        "--plan-cache-size", type=int, default=128,
        help="plan-cache entry budget (0 disables)",
    )
    serve.add_argument(
        "--result-cache-size", type=int, default=512,
        help="result-cache entry budget (0 disables)",
    )
    add_session_options(serve)
    serve.set_defaults(handler=cmd_serve)


    tables = commands.add_parser("tables", help="regenerate Tables 1 and 2")
    tables.add_argument("--n", type=int, default=60)
    tables.add_argument("--trials", type=int, default=3)
    tables.set_defaults(handler=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (QueryError, DataError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
