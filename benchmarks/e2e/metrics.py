"""From pass results to the named metrics of ``BENCHMARK.json``.

``BENCHMARK.json`` at the root of the repository is the one
declaration of every metric's name, unit, direction and bound;
:func:`end_to_end` and :func:`per_layer` compute the values and
:func:`compare` applies the bounds to two result files.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

from harness import PassResult, Record

DECLARATION = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
END_TO_END = {metric["name"]: metric for metric in DECLARATION["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in DECLARATION["per_layer"]}

#: Conventional percentiles; the tail metric is the highest one that
#: still has at least :data:`BEYOND` samples beyond it.  No p99: only
#: ``cached_mix`` has the 1000 reads in a pass that it takes, and there
#: 1.08% of the reads meet a full garbage collection of the server
#: (7 ms against 1 ms), so the p99 stands on the edge of that class:
#: it moved by 15 to 24% between runs of the same code.
LADDER = (50.0, 75.0, 90.0, 95.0)
BEYOND = 10

#: Per-layer metrics that are functions of (workload, seed) alone: two
#: runs of the same code must report them equal.
EXACT = frozenset({
    "rpc.reply_bytes", "rpc.coalesced", "rpc.streamed_batches",
    "planner.decision_cache_hit_ratio",
    "cache.plan_hit_ratio", "cache.plan_isomorphic_hits",
    "cache.result_hit_ratio", "cache.routing_hit_ratio", "cache.evictions",
    "engine.executions",
    "ivm.hit_ratio", "ivm.fallbacks", "ivm.retained_bytes",
    "mpc.rounds", "mpc.max_load_bits", "mpc.total_bits",
    "mpc.replication_rate", "planner.predicted_load_bits",
    "mpc.load_over_predicted",
})

#: metric -> span whose mean self time per timed read it reports.
READ_SPANS = {
    "api.execute_ms": "api.execute",
    "planner.profile_ms": "planner.profile",
    "planner.choose_ms": "planner.choose",
    "cache.plan_lookup_ms": "cache.plan_lookup",
    "algorithms.compile_ms": "algorithms.compile",
    "core.parse_ms": "core.parse",
    "service.execute_ms": "service.execute",
    "ivm.capture_ms": "ivm.capture",
    "ivm.merge_ms": "ivm.merge",
}
#: ... and per timed write.
WRITE_SPANS = {
    "service.apply_delta_ms": "service.apply_delta",
    "data.apply_ms": "data.apply",
}
PHASES = ("route", "ship", "deliver", "local")


def percentile(ordered: list[float], percent: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(percent / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_percent(samples: int) -> float | None:
    """The highest ladder percentile with >= BEYOND samples beyond it."""
    supported = [
        percent for percent in LADDER
        if samples - math.ceil(percent / 100.0 * samples) >= BEYOND
    ]
    return supported[-1] if supported else None


def _timed(passes: list[PassResult], read: bool) -> list[Record]:
    return [
        record
        for result in passes
        for record in result.records
        if record.request.timed and (record.request.op == "query") == read
    ]


def _median_ms(records: list[Record]) -> float | None:
    latencies = [r.latency for r in records if r.failure is None]
    return statistics.median(latencies) * 1000.0 if latencies else None


def _over_passes(values: list[float | None], better: str = "lower"):
    """The quartile on the fast side of one value per pass.

    Another tenant of the host slows a pass by 10 to 35% for half a
    minute at a time, and nothing ever makes one faster: the quartile
    nearest the best pass stays put while up to three quarters of the
    passes are slowed, where their median moves with half.
    """
    if None in values:
        return None
    if len(values) == 1:
        return values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[0] if better == "lower" else quartiles[2]


def _throughput(result: PassResult) -> float:
    completed = sum(
        record.failure is None
        for record in result.records
        if record.request.timed
    )
    return completed / result.timed_seconds


def _read_latencies(passes: list[PassResult]) -> list[float]:
    return sorted(
        r.latency for r in _timed(passes, read=True) if r.failure is None
    )


def _tail(passes: list[PassResult]) -> tuple[float | None, float | None]:
    """(percentile, its latency in ms).

    The highest percentile that the reads of the whole run support,
    taken pass by pass like every other timing: pooled, the samples
    beyond it would mostly be those of the slowed passes.
    """
    per_pass = [_read_latencies([result]) for result in passes]
    percent = tail_percent(sum(map(len, per_pass)))
    if percent is None or not all(per_pass):
        return None, None
    return percent, _over_passes(
        [percentile(ordered, percent) * 1000.0 for ordered in per_pass]
    )


def end_to_end(passes: list[PassResult]) -> tuple[dict, dict]:
    """The end-to-end metrics of these passes, and what qualifies them.

    Every timing is taken per pass and reported as the fast-side
    quartile over the passes (see :func:`_over_passes`).
    """
    percent, tail = _tail(passes)
    values = {
        "setup_s": _over_passes([r.setup_seconds for r in passes]),
        "latency_p50_ms": _over_passes(
            [_median_ms(_timed([r], read=True)) for r in passes]
        ),
        "latency_tail_ms": tail,
        "throughput_rps": _over_passes(
            [_throughput(r) for r in passes], better="higher"
        ),
        "update_p50_ms": _over_passes(
            [_median_ms(_timed([r], read=False)) for r in passes]
        ),
        "peak_rss_mib": max(r.peak_rss_mib for r in passes),
    }
    details = {
        "passes": len(passes),
        "read_samples": len(_read_latencies(passes)),
        "tail_percentile": percent,
        "write_samples": len(_timed(passes, read=False)),
        "timed_seconds": sum(r.timed_seconds for r in passes),
    }
    return values, details


# -- the per-layer ledger ---------------------------------------------------


class LedgerRow:
    """One timed request with the spans the server recorded for it."""

    def __init__(self, record: Record) -> None:
        self.record = record
        #: span name -> self seconds, over every root span of the request
        self.spans: dict[str, float] = defaultdict(float)
        self.phases: dict[str, float] = defaultdict(float)
        self.executions = 0
        #: what ``Statement.execute`` returned, in the paper's currency
        self.note: dict | None = None
        #: seconds covered by the request's root spans
        self.inside = 0.0
        #: every root span lies within the client's send..receive
        self.contained = True

    @property
    def overhead(self) -> float:
        """Socket-to-socket time no span covers: the rpc layer."""
        return self.record.latency - self.inside


def ledger(result: PassResult) -> list[LedgerRow]:
    """Match one traced pass's root spans to its requests.

    Requests carry no id the wrapped callables can see, so matching is
    first-in-first-out per statement text (reads) and in order
    (writes): the server runs requests on one control thread in
    arrival order, and the one connection has one request in flight.
    """
    spans = result.trace.get("spans", [])
    parent_of = {span[0]: span[4] for span in spans}
    covered: dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start

    def root_of(span_id: int) -> int:
        while parent_of[span_id] is not None:
            span_id = parent_of[span_id]
        return span_id

    by_root: dict[int, list] = defaultdict(list)
    queues: dict[tuple, list] = defaultdict(list)
    for span in spans:
        by_root[root_of(span[0])].append(span)
        if span[4] is None:
            note = span[5] or {}
            queues[span[1], note.get("text")].append(span)
    for queue in queues.values():
        queue.sort(key=lambda span: span[2], reverse=True)

    rows = []
    for record in sorted(result.records, key=lambda r: r.start):
        request = record.request
        if record.failure is not None or request.op == "ping":
            continue
        if request.op == "query":
            wanted = [("core.parse", request.text)]
            if not record.summary.get("coalesced"):
                wanted.append(("api.execute", request.text))
        else:
            wanted = [("service.apply_delta", None)]
        row = LedgerRow(record)
        for key in wanted:
            if not queues[key]:
                continue  # target missing, or spans lost: not matched
            root = queues[key].pop()
            row.inside += root[3] - root[2]
            row.contained &= record.start <= root[2] and root[3] <= record.end
            if root[1] == "api.execute":
                row.note = root[5]
            for span_id, name, start, end, _, note in by_root[root[0]]:
                row.spans[name] += end - start - covered[span_id]
                if name == "engine.execute_plan":
                    row.executions += 1
                    for phase, seconds in (note or {}).get(
                        "phases", {}
                    ).items():
                        row.phases[phase] += seconds
        if request.timed:
            rows.append(row)
    return rows


def _delta(passes: list[PassResult], section: str, key: str) -> float:
    return sum(
        result.stats_after[section][key] - result.stats_before[section][key]
        for result in passes
    )


def _ratio(hits: float, others: float) -> float:
    """hits / (hits + others); 0 when nothing was looked up."""
    total = hits + others
    return hits / total if total else 0.0


def per_layer(passes: list[PassResult]) -> tuple[dict, dict]:
    """The per-layer metrics of a run whose passes alternate traced/not.

    Timings are mean span self-times in ms per timed read (or write);
    counts and ratios are differences of the RPC ``stats`` op across
    the timed phase of the traced passes.
    """
    traced = [result for result in passes if result.traced]
    untraced = [result for result in passes if not result.traced]
    rows = [row for result in traced for row in ledger(result)]
    reads = [row for row in rows if row.record.request.op == "query"]
    writes = [row for row in rows if row.record.request.op != "query"]
    missing = {
        name for result in traced for name in result.trace.get("missing", [])
    }

    def mean_ms(group: list[LedgerRow], pick) -> float:
        return 1000.0 * sum(map(pick, group)) / len(group) if group else 0.0

    values: dict[str, float | None] = {}
    for spans, group in ((READ_SPANS, reads), (WRITE_SPANS, writes)):
        for metric, span in spans.items():
            values[metric] = (
                None if span in missing
                else mean_ms(group, lambda row, span=span: row.spans[span])
            )
    engine_missing = "engine.execute_plan" in missing
    for phase in PHASES:
        values[f"engine.{phase}_ms"] = (
            None if engine_missing
            else mean_ms(reads, lambda row, phase=phase: row.phases[phase])
        )
    values["engine.other_ms"] = (
        None if engine_missing
        else mean_ms(
            reads,
            lambda row: row.spans["engine.execute_plan"]
            - sum(row.phases.values()),
        )
    )
    values["engine.executions"] = (
        None if engine_missing else sum(row.executions for row in reads)
    )
    values["rpc.overhead_ms"] = (
        None if "api.execute" in missing
        else mean_ms(reads, lambda row: row.overhead)
    )
    values["rpc.reply_bytes"] = (
        sum(row.record.reply_bytes for row in reads) / len(reads)
        if reads else 0.0
    )
    values["rpc.coalesced"] = _delta(traced, "rpc", "coalesced")
    values["rpc.streamed_batches"] = _delta(traced, "rpc", "streamed_batches")

    def service(key: str) -> float:
        return _delta(traced, "service", key)

    values["planner.decision_cache_hit_ratio"] = _ratio(
        _delta(traced, "planner", "decision_cache_hits"),
        _delta(traced, "planner", "decisions"),
    )
    plan_hits = service("plan_hits") + service("plan_isomorphic_hits")
    values["cache.plan_hit_ratio"] = _ratio(plan_hits, service("plan_misses"))
    values["cache.plan_isomorphic_hits"] = service("plan_isomorphic_hits")
    values["cache.result_hit_ratio"] = _ratio(
        service("result_hits"), service("requests") - service("result_hits")
    )
    values["cache.routing_hit_ratio"] = _ratio(
        service("routing_hits"), service("routing_misses")
    )
    values["cache.evictions"] = (
        service("plan_evictions")
        + service("routing_evictions")
        + service("result_evictions")
    )
    values["ivm.hit_ratio"] = _ratio(
        service("ivm_hits"), service("ivm_fallbacks")
    )
    values["ivm.fallbacks"] = service("ivm_fallbacks")
    values["ivm.retained_bytes"] = max(
        (r.stats_after["service"]["ivm_retained_bytes"] for r in traced),
        default=0,
    )

    # The paper's currency, per statement class; the workload's metric
    # is the class with the heaviest measured load.
    classes: dict[str, dict] = {}
    for row in reads:
        if row.note is not None:
            classes[row.note["text"]] = row.note
    notes = [row.note for row in reads if row.note is not None]
    heaviest = max(notes, key=lambda n: n["max_load_bits"], default=None)
    if heaviest is None:
        values.update(dict.fromkeys(
            ("mpc.rounds", "mpc.max_load_bits", "mpc.total_bits",
             "mpc.replication_rate", "planner.predicted_load_bits",
             "mpc.load_over_predicted")
        ))
    else:
        # Predicted tuples priced at the statement's own measured bits
        # per tuple, so both columns are in bits.
        tuple_bits = heaviest["max_load_bits"] / heaviest["max_load_tuples"]
        predicted = heaviest["predicted_load"] * tuple_bits
        values["mpc.rounds"] = max(n["rounds"] for n in notes)
        values["mpc.max_load_bits"] = heaviest["max_load_bits"]
        values["mpc.total_bits"] = sum(
            n["total_bits"] for n in notes
        ) / len(notes)
        values["mpc.replication_rate"] = max(
            n["replication_rate"] for n in notes
        )
        values["planner.predicted_load_bits"] = predicted
        values["mpc.load_over_predicted"] = (
            heaviest["max_load_bits"] / predicted
        )

    wall = sum(r.timed_seconds for r in passes)
    values["proc.server_cpu_share"] = (
        sum(r.server_cpu_seconds for r in passes) / wall
    )
    values["proc.client_cpu_share"] = (
        sum(r.client_cpu_seconds for r in passes) / wall
    )
    mean_latency = mean_ms(reads, lambda row: row.record.latency)
    residual = [values["rpc.overhead_ms"], values["engine.other_ms"]]
    values["trace.unattributed_share"] = (
        None if None in residual or not mean_latency
        else sum(residual) / mean_latency
    )
    traced_p50 = _median_ms(_timed(traced, read=True))
    untraced_p50 = _median_ms(_timed(untraced, read=True))
    values["trace.overhead_share"] = (
        None if not traced_p50 or not untraced_p50
        else (traced_p50 - untraced_p50) / untraced_p50
    )
    details = {
        "missing_targets": sorted(missing),
        "uncontained": sum(not row.contained for row in rows),
        "classes": classes,
    }
    return values, details


# -- comparing two result files ---------------------------------------------


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def compare(before: dict, after: dict) -> list[tuple]:
    """Rows ``(workload, metric, before, after, verdict)``.

    End-to-end metrics: ``regressed`` when the second file's median is
    worse than the first's by more than the metric's bound,
    ``unresolved`` when either file's run-to-run spread is wider than
    the bound, else ``ok``.  Exact per-layer metrics must be equal run
    by run (both files hold the same seeds in the same order).
    """
    rows = []
    for workload, runs_before in before["workloads"].items():
        runs_after = after["workloads"].get(workload)
        if runs_after is None:
            continue

        def column(runs: list[dict], section: str, name: str) -> list:
            return [
                run[section][name] for run in runs
                if run.get(section) and run[section].get(name) is not None
            ]

        for name, metric in END_TO_END.items():
            a = column(runs_before, "end_to_end", name)
            b = column(runs_after, "end_to_end", name)
            if not a or not b:
                continue
            base, new = statistics.median(a), statistics.median(b)
            worse = new - base if metric["better"] == "lower" else base - new
            if max(spread(a), spread(b)) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"] * abs(base):
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append((workload, name, base, new, verdict))
        for name in sorted(EXACT):
            a = column(runs_before, "per_layer", name)
            b = column(runs_after, "per_layer", name)
            if not a or not b:
                continue
            runs = min(len(a), len(b))
            verdict = "ok" if a[:runs] == b[:runs] else "regressed"
            rows.append((workload, name, a[0], b[0], verdict))
    failed_runs = [
        (workload, "failed_share", 0.0, run["details"]["failed_share"],
         "regressed")
        for workload, runs in after["workloads"].items()
        for run in runs
        if run["details"]["failed_share"] > 0
    ]
    return rows + failed_runs
