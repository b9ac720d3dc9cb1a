"""Socket-to-socket serving benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --trace 1            # ... per-layer ledger
    python3 benchmarks/e2e/run.py --workload cold_exec --seed 7 \\
        --seconds 10 --trace 0                         # one workload; the
                                  # last line of stdout is one JSON object
    python3 benchmarks/e2e/run.py --runs 10 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload generates its inputs from ``--seed``, starts the server
under test as a subprocess per pass, drives it over real TCP, checks
every reply against an oracle and exits non-zero on any failure.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from server import SRC

if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing: no {SRC}/repro")
sys.path.insert(0, str(SRC))

import metrics  # noqa: E402
from harness import ServerCrashed, run_pass  # noqa: E402
from workloads import WORKLOADS, Workload, build_plan  # noqa: E402


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
) -> dict:
    """One run: ``seconds`` worth of passes, each against a fresh server.

    A traced run alternates untraced and traced passes: the traced
    ones feed the per-layer ledger, the difference between the two is
    the tracing overhead.
    """
    count = max(round(seconds / workload.pass_seconds), 2 if trace else 1)
    plan = build_plan(workload, seed)
    passes = [
        run_pass(workload, plan, seed, traced=trace and index % 2 == 1)
        for index in range(count)
    ]
    # Tracing is off for the end-to-end metrics, always.
    values, details = metrics.end_to_end(
        [result for result in passes if not result.traced]
    )
    failures = [
        f"{record.request.op} #{index}: {record.failure}"
        for result in passes
        for index, record in enumerate(result.records)
        if record.failure is not None
    ]
    details["attempted"] = sum(len(result.records) for result in passes)
    details["failed"] = len(failures)
    details["failed_share"] = len(failures) / details["attempted"]
    run = {"seed": seed, "end_to_end": values, "details": details}
    if trace:
        run["per_layer"], run["trace_details"] = metrics.per_layer(passes)
    for failure in failures[:10]:
        print(f"FAILED {workload.name}: {failure}", file=sys.stderr)
    if trace:
        traced = run["trace_details"]
        for target in traced["missing_targets"]:
            print(
                f"warning: trace target {target} no longer exists; "
                "its metric is null",
                file=sys.stderr,
            )
        if traced["uncontained"]:
            print(
                f"warning: {traced['uncontained']} requests have a span "
                "outside their send..receive interval; the ledger is off",
                file=sys.stderr,
            )
    return run


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def print_run(name: str, run: dict, trace: bool) -> None:
    """Every metric by name with its unit, one per line."""
    details = run["details"]
    notes = {
        "latency_p50_ms": f"{details['read_samples']} reads",
        "latency_tail_ms": (
            f"p{details['tail_percentile']:g} of each pass, "
            f"{details['read_samples']} reads"
            if details["tail_percentile"] is not None
            else "fewer than 20 reads"
        ),
        "update_p50_ms": f"{details['write_samples']} writes",
        "setup_s": f"{details['passes']} passes",
        "throughput_rps": f"{details['timed_seconds']:.1f} s timed",
    }
    rows = [
        (metric, run["end_to_end"][metric], declared["unit"],
         notes.get(metric, ""))
        for metric, declared in metrics.END_TO_END.items()
    ]
    rows.append((
        "failed_share", details["failed_share"], "ratio",
        f"{details['failed']} of {details['attempted']}",
    ))
    if trace:
        rows += [
            (metric, run["per_layer"][metric], declared["unit"], "")
            for metric, declared in metrics.PER_LAYER.items()
        ]
    print(f"== {name} (seed {run['seed']})")
    for metric, value, unit, note in rows:
        print(f"  {metric:34s} {_format(value):>14s} {unit:6s} {note}")
    if trace:
        print("  -- per statement class: rounds, max load bits, "
              "predicted load tuples, algorithm")
        for text, note in sorted(run["trace_details"]["classes"].items()):
            print(
                f"  {note['rounds']:2d} {note['max_load_bits']:10d} "
                f"{note['predicted_load']:12.1f} {note['algorithm']:10s} "
                f"{text}"
            )


def contract_line(run: dict, trace: bool) -> str:
    """The one JSON object the benchmark driver reads."""
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    values = run["per_layer" if trace else "end_to_end"]
    details = run["details"]
    return json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {
            name: {"value": values[name], "unit": metric["unit"]}
            for name, metric in declared.items()
        },
    })


def print_comparison(before: dict, after: dict) -> int:
    rows = metrics.compare(before, after)
    for workload, metric, base, new, verdict in rows:
        print(
            f"{workload:16s} {metric:34s} {_format(base):>14s} "
            f"{_format(new):>14s}  {verdict}"
        )
    return int(any(row[-1] == "regressed" for row in rows))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        default=float(metrics.DECLARATION["run_seconds"]),
        help="timed budget of one run of one workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=1,
        help="runs per workload, on seeds seed, seed+1, ...",
    )
    parser.add_argument("--out", type=Path, help="write the results here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="FILE")
    args = parser.parse_args()
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        return print_comparison(before, after)

    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results: dict = {"seconds": args.seconds, "workloads": {}}
    failed = 0
    run: dict = {}
    try:
        for name in names:
            for seed in range(args.seed, args.seed + args.runs):
                run = run_workload(WORKLOADS[name], seed, args.seconds, trace)
                results["workloads"].setdefault(name, []).append(run)
                failed += run["details"]["failed"]
                print_run(name, run, trace)
    except ServerCrashed as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    if args.workload:
        print(contract_line(run, trace))
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
