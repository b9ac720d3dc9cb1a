#!/usr/bin/env python3
"""Trend gate: diff current BENCH_*.json against the previous CI run.

Every benchmark that records a ``*speedup*`` field into its
BENCH_<name>.json is a perf claim; this script compares the current
artifacts against the previous run's (downloaded from the last
successful CI on the main branch) and fails when any recorded speedup
regressed by more than the tolerance (default 20%).

Usage::

    python benchmarks/trend.py --previous prev-artifacts \
        --current bench-artifacts [--tolerance 0.2]

Exit status 1 on regression, 0 otherwise.  A missing or empty
``--previous`` directory is not an error (first run, expired
artifacts): the gate reports and passes, and the current run's upload
becomes the next baseline.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def speedup_fields(payload: dict) -> dict[str, float]:
    """The perf-claim fields of one benchmark payload.

    Any numeric top-level field whose name contains ``speedup`` is a
    claim worth trending (``speedup``, ``segmented_speedup``, ...).
    Booleans are excluded even though ``bool`` is an ``int``: a flag
    like ``speedup_gated`` is metadata, and trending it would turn a
    True -> False transition into a fake 1.0x -> 0.0x regression.
    """
    return {
        key: float(value)
        for key, value in payload.items()
        if "speedup" in key
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def collect(directory: str) -> dict[str, dict]:
    """Per BENCH file (by basename), its speedup fields + core count.

    Each entry is ``{"fields": {...}, "cores": int | None}`` -- the
    recorded runner core count, absent in artifacts from before it was
    recorded.
    """
    results: dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"trend: skipping unreadable {path}: {error}")
            continue
        fields = speedup_fields(payload)
        if fields:
            results[os.path.basename(path)] = {
                "fields": fields,
                "cores": payload.get("cores"),
            }
    return results


def incomparable(previous: dict, current: dict) -> str | None:
    """Why two entries' speedups cannot be trended, or None.

    Speedups measured on different core counts are different
    experiments: a 4-core baseline against a 1-core run would be a
    fake regression, and the reverse would launder a real one.
    """
    before_cores = previous.get("cores")
    after_cores = current.get("cores")
    if (
        before_cores is not None
        and after_cores is not None
        and before_cores != after_cores
    ):
        return (
            f"cores changed ({before_cores} -> {after_cores}); "
            "speedups not comparable"
        )
    return None


def compare(
    previous: dict[str, dict],
    current: dict[str, dict],
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """``(regressions, notes)`` between two artifact snapshots.

    A regression is a speedup field present on both sides whose
    current value fell below ``previous * (1 - tolerance)``.  Fields
    or files present on only one side are notes, never failures --
    benchmarks come and go; silent disappearance still gets surfaced.
    Entries whose runs are :func:`incomparable` (different core
    counts) are skipped with a note.
    """
    regressions: list[str] = []
    notes: list[str] = []
    for name in sorted(set(previous) | set(current)):
        if name not in current:
            notes.append(f"{name}: present in previous run only")
            continue
        if name not in previous:
            notes.append(f"{name}: new benchmark (no baseline)")
            continue
        reason = incomparable(previous[name], current[name])
        if reason is not None:
            notes.append(f"{name}: {reason}")
            continue
        before_fields = previous[name]["fields"]
        after_fields = current[name]["fields"]
        for field in sorted(set(before_fields) | set(after_fields)):
            if field not in after_fields:
                notes.append(f"{name}:{field}: dropped from payload")
                continue
            if field not in before_fields:
                notes.append(f"{name}:{field}: new field (no baseline)")
                continue
            before = before_fields[field]
            after = after_fields[field]
            floor = before * (1.0 - tolerance)
            line = (
                f"{name}:{field}: {before:.2f}x -> {after:.2f}x "
                f"(floor {floor:.2f}x)"
            )
            if after < floor:
                regressions.append(line)
            else:
                notes.append(line)
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on >tolerance regression of recorded speedups"
    )
    parser.add_argument(
        "--previous",
        required=True,
        help="directory with the previous run's BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--current",
        required=True,
        help="directory with this run's BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional regression (default 0.2 = 20%%)",
    )
    args = parser.parse_args(argv)

    current = collect(args.current)
    if not current:
        print(f"trend: no BENCH_*.json under {args.current}; nothing to gate")
        return 0
    if not os.path.isdir(args.previous):
        print(
            f"trend: no previous artifacts at {args.previous}; "
            "treating this run as the new baseline"
        )
        return 0
    previous = collect(args.previous)
    if not previous:
        print(
            f"trend: previous directory {args.previous} has no readable "
            "BENCH_*.json; treating this run as the new baseline"
        )
        return 0

    regressions, notes = compare(previous, current, args.tolerance)
    for note in notes:
        print(f"trend: ok  {note}")
    for regression in regressions:
        print(f"trend: REGRESSION  {regression}")
    if regressions:
        print(
            f"trend: {len(regressions)} speedup(s) regressed more than "
            f"{args.tolerance:.0%}"
        )
        return 1
    print(f"trend: all speedups within {args.tolerance:.0%} of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
