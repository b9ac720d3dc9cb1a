"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze "S1(x,y), S2(y,z), S3(z,x)"`` -- print the full analysis
  of a query: tau*, space exponent, covers, shares, chi, radius,
  diameter, round bounds.
* ``run "S1(x,y), S2(y,z)" --n 100 --p 16 --backend numpy`` --
  generate a random matching database and run HyperCube on the
  simulator, on the pure-Python reference engine or the vectorized
  numpy one (``--backend {auto,pure,numpy}``; both give identical
  answers and load accounting).
* ``plan "S1(x,y), ..." --eps 1/2`` -- build and print a multi-round
  plan.
* ``run-plan "S1(a,b), S2(b,c), S3(c,d)" --eps 0 --n 100 --p 16`` --
  build the plan AND execute it on the simulator round by round (the
  Proposition 4.1 executor), verifying the final view against the
  exact join; honours ``--backend`` like ``run``.
* ``skew "S1(x,y), S2(y,z)" --n 200 --p 16 --heavy-fraction 0.5`` --
  generate a skewed database (heavy hitter on every first attribute)
  and race plain HC against the skew-aware executor, printing heavy
  hitters, max loads and imbalance; honours ``--backend``.
* ``query "S1(x,y), S2(y,z)" --n 200 --p 16`` -- the planner-backed
  front door: generate a database, open a :class:`repro.api.Session`
  and let the cost-based planner pick the algorithm (pin one with
  ``--algorithm``, pin the budget with ``--eps``); prints the chosen
  route and verifies the answers against the exact join.
* ``explain "S1(x,y), S2(y,z)"`` -- the planner's full report for a
  statement (chosen algorithm, shares, predicted rounds/load vs the
  paper's bounds, every candidate's bid) without executing it.
* ``serve --vocab "S1(x,y), S2(y,z), S3(z,x)" --n 200 --p 16`` --
  open one long-lived :class:`repro.api.Session` over a generated
  matching database and serve it on one of two transports.  The REPL
  reads one command per line from stdin (or ``--script FILE``):
  ``run <query>``, ``explain <query>``, ``update <rel> <v,v> ...``,
  ``delete <rel> <v,v> ...``, ``stats``, ``exit`` -- each a
  ``Session`` call.  With ``--tcp PORT`` the same session is served
  to the network over the asyncio JSON-lines RPC protocol of
  :mod:`repro.serve.rpc` (with cross-request coalescing).  Either way
  statements are planner-routed (``--algorithm`` pins one), repeated
  and isomorphic queries hit the plan/result caches, ``stats`` shows
  the same counters, and ``--workers N`` fans statements out over
  ``N`` worker processes.
* ``tables`` -- regenerate Table 1 and Table 2 of the paper.

``run``, ``run-plan`` and ``skew`` are the pinned, cache-free path:
``compile_with(name, ...)`` from the algorithm registry
(:mod:`repro.algorithms.registry`) -- the same compilers the planner
chooses from -- plus :func:`repro.engine.execute_plan`.  They accept
``--profile``, which prints a per-round route/ship/deliver/local-eval
wall-clock breakdown, and ``--workers N``, the engine's shard pool.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from fractions import Fraction

from repro.analysis.reporting import format_table
from repro.core.bounds import round_upper_bound
from repro.core.characteristic import characteristic, is_tree_like
from repro.core.covers import analyze_covers
from repro.core.plans import build_plan
from repro.core.query import QueryError, parse_query
from repro.core.shares import allocate_integer_shares, share_exponents


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as error:
        raise argparse.ArgumentTypeError(
            f"invalid space exponent {text!r}: {error}"
        ) from None


def cmd_analyze(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    analysis = analyze_covers(query)
    shares = share_exponents(query, analysis.vertex_cover)
    rows = [
        ["query", str(query)],
        ["tau* (covering number)", analysis.tau_star],
        ["space exponent (Thm 1.1)", analysis.space_exponent],
        ["vertex cover", dict(analysis.vertex_cover)],
        ["edge packing", dict(analysis.edge_packing)],
        ["share exponents", dict(shares)],
        ["characteristic chi", characteristic(query)],
        ["tree-like", is_tree_like(query)],
    ]
    if query.is_connected:
        hypergraph = query.hypergraph
        rows.append(["radius", hypergraph.radius])
        rows.append(["diameter", hypergraph.diameter])
        rows.append(
            ["rounds at eps=0 (Lemma 4.3)", round_upper_bound(query, Fraction(0))]
        )
    print(format_table(["property", "value"], rows))
    return 0


def _truth(query, database) -> tuple:
    """The exact single-site join every command verifies against."""
    from repro.algorithms.localjoin import evaluate_query
    from repro.data.database import as_mapping

    return evaluate_query(query, as_mapping(database))


def _run_pinned(
    args: argparse.Namespace, query, database, runs, rows, eps=None
) -> int:
    """``run`` / ``run-plan`` / ``skew``: pinned, cache-free execution.

    ``runs`` lists ``(profile title, registry algorithm)``; each is
    compiled with ``compile_with`` and executed with ``execute_plan``
    under one ``--workers`` pool, then checked against the exact join.
    ``rows(*executions)`` supplies the command's own table rows.
    """
    from repro.algorithms.registry import compile_with
    from repro.backend import resolve_backend
    from repro.engine import RoundProfiler, execute_plan
    from repro.engine.parallel import ParallelContext

    backend = resolve_backend(args.backend)
    profilers = [RoundProfiler() if args.profile else None for _ in runs]
    # The shard pool is an engine facility: numpy only, closed on exit.
    pool = (
        ParallelContext(args.workers, min_rows=0)
        if args.workers >= 2 and backend == "numpy"
        else nullcontext()
    )
    with pool as parallel:
        executions = [
            execute_plan(
                compile_with(
                    algorithm, query, args.p, eps=eps, seed=args.seed,
                    backend=backend,
                ),
                database,
                profiler=profiler,
                parallel=parallel,
                chunk_rows=args.chunk_rows,
            )
            for (_, algorithm), profiler in zip(runs, profilers)
        ]
    truth = _truth(query, database)
    verified = all(execution.answers == truth for execution in executions)
    table = [
        ["query", str(query)],
        ["n (domain)", args.n],
        ["p (servers)", args.p],
        ["backend", backend],
        ["answers", len(executions[-1].answers)],
        ["verified vs exact join", verified],
    ] + rows(*executions)
    if parallel is not None:
        # The rows that make ``--workers N`` visible.
        table += [
            ["route workers", parallel.workers],
            ["parallel rounds", parallel.parallel_rounds],
            ["fallback rounds", parallel.fallback_rounds],
        ]
    print(format_table(["property", "value"], table))
    if args.profile:
        for (title, _), profiler in zip(runs, profilers):
            print()
            print(profiler.format_table(
                title=f"{title} timing breakdown ({backend})"
            ))
    return 0 if verified else 1


def cmd_run(args: argparse.Namespace) -> int:
    from repro.data.matching import matching_database

    query = parse_query(args.query)
    return _run_pinned(
        args,
        query,
        matching_database(query, n=args.n, rng=args.seed),
        [("HC", "hypercube")],
        lambda hc: [
            ["shares", hc.plan.allocation.shares],
            ["max load (tuples)", hc.report.max_load_tuples],
            ["replication rate", f"{hc.report.replication_rate:.3f}"],
        ],
    )


def cmd_plan(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    plan = build_plan(query, args.eps)
    print(f"plan for {query.name} at eps={args.eps}: depth {plan.depth}")
    for index, round_ in enumerate(plan.rounds, start=1):
        for step in round_.steps:
            print(f"  round {index}: {step.output} := {step.query}")
    return 0


def cmd_run_multiround(args: argparse.Namespace) -> int:
    from repro.data.matching import matching_database

    query = parse_query(args.query)
    depth = build_plan(query, args.eps).depth
    return _run_pinned(
        args,
        query,
        matching_database(query, n=args.n, rng=args.seed),
        [("plan", "multiround")],
        lambda run: [
            ["eps (space exponent)", args.eps],
            ["plan depth", depth],
            ["rounds used", run.report.num_rounds],
            ["max load (tuples)", run.report.max_load_tuples],
            ["replication rate", f"{run.report.replication_rate:.3f}"],
        ]
        + [
            [f"view |{view}|", size]
            for view, size in sorted(run.view_sizes.items())
        ],
        eps=args.eps,
    )


def cmd_skew(args: argparse.Namespace) -> int:
    from repro.data.generators import skewed_database

    query = parse_query(args.query)
    return _run_pinned(
        args,
        query,
        skewed_database(
            query, n=args.n, rng=args.seed,
            heavy_fraction=args.heavy_fraction,
        ),
        [("plain HC", "hypercube"), ("skew-aware", "skewaware")],
        lambda plain, aware: [
            ["heavy fraction", args.heavy_fraction],
            ["heavy hitters",
             {
                 variable: sorted(values)
                 for variable, values in aware.heavy_hitters.items()
                 if values
             }
             or "none"],
            ["plain HC max load", plain.report.max_load_tuples],
            ["skew-aware max load", aware.report.max_load_tuples],
            ["plain imbalance",
             f"{plain.report.rounds[0].load_imbalance:.2f}"],
            ["aware imbalance",
             f"{aware.report.rounds[0].load_imbalance:.2f}"],
        ],
    )


def _generated_database(query, args: argparse.Namespace):
    """The database ``query``/``explain`` run against.

    A random matching database by default; ``--skewed`` funnels
    ``--heavy-fraction`` of every relation into one heavy value so the
    planner's skew routing is observable from the command line.
    """
    if getattr(args, "skewed", False):
        from repro.data.generators import skewed_database

        return skewed_database(
            query,
            n=args.n,
            rng=args.seed,
            heavy_fraction=args.heavy_fraction,
        )
    from repro.data.matching import matching_database

    return matching_database(query, n=args.n, rng=args.seed)


def _session_for(database, args: argparse.Namespace, **options):
    """The one ``connect(...)`` of ``query``, ``explain`` and ``serve``."""
    from repro.api import connect
    from repro.backend import resolve_backend

    return connect(
        database,
        p=args.p,
        backend=resolve_backend(args.backend),
        seed=args.seed,
        chunk_rows=args.chunk_rows,
        **options,
    )


def cmd_query(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    database = _generated_database(query, args)
    session = _session_for(database, args)
    result = session.execute(
        query,
        eps=args.eps,
        algorithm=args.algorithm,
        allow_partial=args.allow_partial,
    )
    explain = result.explain
    rows = [
        ["query", str(query)],
        ["n (domain)", args.n],
        ["p (servers)", args.p],
        ["backend", session.backend],
        ["chosen algorithm", result.algorithm
         + (" (pinned)" if args.algorithm else "")],
        ["eps effective", explain.eps_effective
         if explain.eps_effective is not None else "per-query"],
        ["predicted rounds / load",
         f"{explain.predicted_rounds} / {explain.predicted_load:.1f}"],
        ["answers", len(result.answers)],
    ]
    if result.algorithm != "partial":
        verified = result.answers == _truth(query, database)
        rows.append(["verified vs exact join", verified])
    else:
        verified = True
        rows.append(["verified vs exact join", "n/a (partial answers)"])
    rows.append(["max load (tuples)", result.report.max_load_tuples])
    if result.heavy_hitters:
        rows.append(
            ["heavy hitters",
             {v: sorted(values)
              for v, values in result.heavy_hitters.items() if values}
             or "none"]
        )
    print(format_table(["property", "value"], rows))
    print("\n(`repro explain` prints the full planner report)")
    return 0 if verified else 1


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
    return 0


def _repl_line(session, line: str, out) -> bool:
    """Process one serve-REPL line as a Session call; False means quit."""
    import time

    from repro.data.database import DataError
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
                f"plan:{'hit' if result.raw.plan_hit else 'miss'} "
                f"result:{'hit' if result.cached else 'miss'}"
            )
            print(
                f"{len(result.answers)} answers in {elapsed:.2f} ms "
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
            # The dict the RPC ``stats`` op returns, one row per counter.
            report = session.stats_report()
            version = report.pop("version")
            rows = [
                [f"{section}.{counter}", value]
                for section, counters in report.items()
                for counter, value in counters.items()
            ]
            rows.append(["version", version])
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
    from repro.data.matching import matching_database

    vocab = parse_query(args.vocab)
    session = _session_for(
        matching_database(vocab, n=args.n, rng=args.seed),
        args,
        eps=args.eps,
        algorithm=args.algorithm,
        workers=args.workers,
        plan_cache_size=args.plan_cache_size,
        result_cache_size=args.result_cache_size,
    )
    routing = (
        f"pinned to {args.algorithm}" if args.algorithm else "planner-routed"
    )
    print(
        f"serving {vocab} over n={args.n} matching database "
        f"(p={args.p}, backend={session.backend}, {routing}, "
        f"workers={args.workers})"
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
                        metrics_port=args.metrics_port,
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


def cmd_shares(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    exponents = share_exponents(query)
    allocation = allocate_integer_shares(exponents, args.p)
    print(format_table(
        ["variable", "exponent", "integer share"],
        [
            [variable, exponents[variable], allocation.shares[variable]]
            for variable in query.variables
        ],
        title=f"shares for p={args.p} "
        f"(grid uses {allocation.used_servers} servers)",
    ))
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

    analyze = commands.add_parser("analyze", help="analyse a query")
    analyze.add_argument("query", help='e.g. "S1(x,y), S2(y,z), S3(z,x)"')
    analyze.set_defaults(handler=cmd_analyze)

    def add_execution_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--n", type=int, default=100, help="domain size")
        subparser.add_argument("--p", type=int, default=16, help="number of servers")
        subparser.add_argument("--seed", type=int, default=0)
        subparser.add_argument(
            "--backend",
            choices=["auto", "pure", "numpy"],
            default="pure",
            help="execution engine: pure-Python reference or vectorized "
            "numpy (auto picks numpy when available)",
        )
        subparser.add_argument(
            "--profile",
            action="store_true",
            help="print a per-round route/ship/deliver/local-eval "
            "wall-clock breakdown after the run",
        )
        subparser.add_argument(
            "--workers",
            type=int,
            default=1,
            help="executor processes for run, run-plan and skew: "
            "shardable steps route as one row range per process and, "
            "with --chunk-rows, views evaluate on them while the next "
            "round routes (numpy backend only; 1 = fully in-process)",
        )
        subparser.add_argument(
            "--chunk-rows",
            type=int,
            default=None,
            help="streaming block size: route/ship in blocks of this "
            "many rows with lazy delivery pools (numpy backend only; "
            "default: every step ships whole)",
        )

    run = commands.add_parser("run", help="run HyperCube on a random matching DB")
    run.add_argument("query")
    add_execution_options(run)
    run.set_defaults(handler=cmd_run)

    plan = commands.add_parser("plan", help="build a multi-round plan")
    plan.add_argument("query")
    plan.add_argument("--eps", type=_parse_eps, default=Fraction(0),
                      help="space exponent, e.g. 1/2")
    plan.set_defaults(handler=cmd_plan)

    run_multiround = commands.add_parser(
        "run-plan",
        help="build a multi-round plan and execute it on the simulator",
    )
    run_multiround.add_argument("query")
    run_multiround.add_argument("--eps", type=_parse_eps, default=Fraction(0),
                          help="space exponent, e.g. 1/2")
    add_execution_options(run_multiround)
    run_multiround.set_defaults(handler=cmd_run_multiround)

    def add_planner_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("query")
        subparser.add_argument(
            "--eps",
            type=_parse_eps,
            default=None,
            help="pin the space exponent (default: planner-automatic)",
        )
        subparser.add_argument(
            "--algorithm",
            choices=["hypercube", "skewaware", "multiround", "partial"],
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
            help="skew strength for --skewed",
        )
        subparser.add_argument("--n", type=int, default=200,
                               help="domain size")
        subparser.add_argument("--p", type=int, default=16,
                               help="number of servers")
        subparser.add_argument("--seed", type=int, default=0)
        subparser.add_argument(
            "--backend",
            choices=["auto", "pure", "numpy"],
            default="pure",
            help="execution engine",
        )
        subparser.add_argument(
            "--chunk-rows",
            type=int,
            default=None,
            help="streaming block size for execution (numpy backend "
            "only; default: every step ships whole)",
        )

    query_cmd = commands.add_parser(
        "query",
        help="execute a query through the planner-backed Session API",
    )
    add_planner_options(query_cmd)
    query_cmd.set_defaults(handler=cmd_query)

    explain_cmd = commands.add_parser(
        "explain",
        help="print the planner's routing report without executing",
    )
    add_planner_options(explain_cmd)
    explain_cmd.set_defaults(handler=cmd_explain)

    skew = commands.add_parser(
        "skew",
        help="race plain vs skew-aware HC on a skewed database",
    )
    skew.add_argument("query")
    skew.add_argument(
        "--heavy-fraction",
        type=float,
        default=0.5,
        help="share of each relation funnelled into one heavy value",
    )
    add_execution_options(skew)
    skew.set_defaults(handler=cmd_skew)

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
        choices=["hypercube", "skewaware", "multiround"],
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
        "(0 picks a free port) instead of the REPL",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --tcp",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="with --tcp, expose Prometheus text metrics over HTTP on "
        "PORT (0 picks a free port; default: no metrics listener)",
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
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="statement fan-out: N worker processes, each a full "
        "session over a shared-memory snapshot (with --tcp, also N "
        "dispatch threads). 1 (default) keeps everything in-process",
    )
    serve.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="streaming block size for every served execution (numpy "
        "backend only; default: every step ships whole)",
    )
    serve.add_argument("--n", type=int, default=200, help="domain size")
    serve.add_argument("--p", type=int, default=16, help="number of servers")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--backend",
        choices=["auto", "pure", "numpy"],
        default="pure",
        help="execution engine for every served request",
    )
    serve.set_defaults(handler=cmd_serve)

    shares = commands.add_parser("shares", help="integer share allocation")
    shares.add_argument("query")
    shares.add_argument("--p", type=int, default=16)
    shares.set_defaults(handler=cmd_shares)

    tables = commands.add_parser("tables", help="regenerate Tables 1 and 2")
    tables.add_argument("--n", type=int, default=60)
    tables.add_argument("--trials", type=int, default=3)
    tables.set_defaults(handler=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.backend import BackendError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (BackendError, QueryError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
