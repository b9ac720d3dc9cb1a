"""The request executor behind :class:`~repro.api.session.Session`.

A session's planner decides *which* compiler serves a statement;
:class:`QueryService` runs that decision over the session's mutating
database and amortizes the work across requests.  It is private to the
session (``repro.connect(db)`` is the way to serve) and has two cache
layers:

1. **Plans** (:class:`~repro.serve.cache.PlanCache`): compilation --
   covers, shares, grids, step lists -- runs once per isomorphism
   class of (query, algorithm, eps, p); plans are data-independent
   and survive updates.
2. **Results**: whole executions are memoized per (plan, rebind,
   version) -- the database is immutable between versions, so a
   repeated query is answered without touching the simulator.  A
   cached :class:`~repro.mpc.simulator.CapacityExceeded` is re-raised
   the same way a fresh execution would raise it.  An entry keeps its
   answers per head order read, with their tuple and JSON views
   (:class:`AnswerViews`) built at most once.

Each execution builds its own simulator, and its
:class:`~repro.engine.profile.RoundProfiler` phases are aggregated
into :class:`ServiceStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Iterator, Mapping

import numpy

from repro.algorithms.registry import compile_with, get_algorithm
from repro.core.query import ConjunctiveQuery, QueryError
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.engine import Plan, RoundProfiler, execute_plan
from repro.engine.deadline import Deadline, DeadlineExceeded
from repro.engine.profile import PHASES
from repro.serve.metrics import Histogram, counter, histogram
from repro.mpc.simulator import CapacityExceeded
from repro.mpc.stats import SimulationReport
from repro.planner import Explain, PlannerChoice
from repro.serve.cache import (
    CACHE_EVICTIONS,
    CacheRebind,
    LRUCache,
    PlanCache,
    PlanCacheStats,
    identity_rebind,
)
from repro.serve.ivm import IvmManager, MergeCapacity, MergeSuccess


IVM_REQUESTS = counter(
    "ivm_requests_total",
    "Post-delta executions the IVM layer was consulted for, by outcome.",
)
#: The routing cache is gone; its counters stay at 0 because readers
#: of the ``stats`` op (benchmarks/e2e/metrics.py) index their keys.
RETIRED_ROUTING = counter(
    "service_routing_cache_total", "Retired routing cache (always 0)."
)


@dataclass
class ServiceStats:
    """Service-level counters, aggregated across every request.

    ``phase_seconds`` folds each execution's per-round
    route/ship/deliver/local profile into running totals -- the
    serving-time answer to "where does a request's time go".
    """

    stats_section = "service"

    requests: int = counter(
        "service_requests_total", "Statements the query service accepted."
    ).field()
    executions: int = counter(
        "service_executions_total",
        "Statements that executed (result-cache misses).",
    ).field()
    result_hits: int = counter(
        "service_result_hits_total", "Whole-execution result-cache hits."
    ).field()
    result_evictions: int = CACHE_EVICTIONS.field(cache="result")
    routing_hits: int = RETIRED_ROUTING.field(event="hit")
    routing_misses: int = RETIRED_ROUTING.field(event="miss")
    routing_evictions: int = RETIRED_ROUTING.field(event="eviction")
    updates: int = counter(
        "service_updates_total", "Database mutations applied."
    ).field()
    answers_served: int = counter(
        "service_answers_served_total",
        "Answer tuples returned across all requests.",
    ).field()
    capacity_failures: int = counter(
        "service_capacity_failures_total",
        "Executions that raised CapacityExceeded.",
    ).field()
    #: Executions cancelled cooperatively by their request deadline.
    deadline_exceeded: int = counter(
        "service_deadline_exceeded_total",
        "Executions cancelled by their deadline.",
    ).field()
    #: Post-delta requests served by merging a routed delta into
    #: retained state instead of re-executing the plan (includes
    #: merges that reproduced a capacity failure).
    ivm_hits: int = IVM_REQUESTS.field(outcome="hit")
    #: Post-delta requests where the incremental path declined and a
    #: full re-execution ran; per-reason detail lives on the service's
    #: :class:`~repro.serve.ivm.IvmManager`.
    ivm_fallbacks: int = IVM_REQUESTS.field(outcome="fallback")
    phase_seconds: dict[str, float] = counter(
        "phase_seconds_total",
        "Cumulative execution seconds, by engine phase.",
        label="phase",
        section="engine",
    ).field(lambda: {phase: 0.0 for phase in PHASES})
    #: Per-phase distribution of each *execution's* phase total.
    phase_histograms: dict[str, Histogram] = histogram(
        "phase_seconds",
        "Per-execution seconds, by engine phase.",
        label="phase",
        section="engine",
    ).field(lambda: {phase: Histogram() for phase in PHASES})
    plans: PlanCacheStats = field(default_factory=PlanCacheStats)

    def add_profile(self, profiler: RoundProfiler) -> None:
        """Fold one execution's phase timings into the totals."""
        for phase in PHASES:
            seconds = profiler.phase_total(phase)
            self.phase_seconds[phase] += seconds
            self.phase_histograms[phase].observe(seconds)


#: ``10**1 .. 10**9`` and ``10**1 .. 10**18``: a magnitude has one
#: decimal digit more than the powers of ten at or below it.
_POWERS = {
    numpy.dtype(numpy.uint32): 10 ** numpy.arange(1, 10, dtype=numpy.uint32),
    numpy.dtype(numpy.uint64): 10 ** numpy.arange(1, 19, dtype=numpy.uint64),
}


def encode_answers(table: Any) -> bytes:
    """An int64 answer table as the compact JSON array a reply carries.

    Byte for byte ``json.dumps(table.tolist(), separators=(",", ":"))``,
    written by numpy without building a Python int per cell: each
    cell's width (digits plus sign) places it in one ``","``-filled
    buffer, row brackets and signs are scattered in, and the digits
    are written least significant first, one vector pass per digit
    over the cells still that long.

    Raises:
        TypeError: ``table`` is not int64 (its bytes are not
            reinterpreted).
    """
    if table.dtype != numpy.int64:
        raise TypeError(f"answer tables are int64, got {table.dtype}")
    rows, columns = table.shape
    if not table.size:
        return b"[" + b",".join([b"[]"] * rows) + b"]"
    values = table.ravel()
    negative = values < 0
    magnitude = values.astype(numpy.uint64)
    # Unsigned negation wraps, so int64's minimum gets its magnitude too.
    numpy.negative(magnitude, out=magnitude, where=negative)
    if magnitude.max() <= numpy.iinfo(numpy.uint32).max:
        magnitude = magnitude.astype(numpy.uint32)
    # ``slots``: each cell's bytes plus the separator after it ("," or
    # its row's "]").  Row r's cells also follow 2r + 2 other bytes
    # (the outer "[", each earlier row's "[" and trailing ",", and
    # its own "["), so a cell's final digit is at its slots' running
    # sum plus 2r.
    slots = numpy.searchsorted(
        _POWERS[magnitude.dtype], magnitude, side="right"
    )
    slots += negative
    slots += 2
    last = numpy.cumsum(slots).reshape(rows, columns)
    last += numpy.arange(0, 2 * rows, 2).reshape(-1, 1)
    out = numpy.full(int(last[-1, -1]) + 3, ord(","), dtype=numpy.uint8)
    out[0] = ord("[")
    out[-1] = ord("]")
    out[last[:, 0] - slots[::columns] + 1] = ord("[")
    out[last[:, -1] + 1] = ord("]")
    position = last.ravel()
    if negative.any():
        out[position[negative] - slots[negative] + 2] = ord("-")
    while True:
        quotient = magnitude // 10
        magnitude -= quotient * 10
        magnitude += ord("0")
        out[position] = magnitude
        longer = quotient != 0
        if not longer.all():
            if not longer.any():
                return out.tobytes()
            quotient = quotient[longer]
            position = position[longer]
        magnitude = quotient
        position -= 1


def _row_edges(encoded: bytes) -> Any:
    """Rows ``a:b`` of a reply are ``encoded[edges[a] + 1:edges[b]]``:
    cells hold digits and signs only, so each row ends at a ``"]"``."""
    buffer = numpy.frombuffer(encoded, dtype=numpy.uint8)
    ends = numpy.flatnonzero(buffer == ord("]"))
    return numpy.concatenate(([0], ends[:-1] + 1))


def splice_answers(
    encoded: bytes, edges: Any, removed: Any, inserted_at: Any, rows: Any
) -> tuple[bytes, Any]:
    """The reply of a spliced table, from the reply of the table before.

    ``encode_answers(numpy.insert(numpy.delete(table, removed, 0),
    inserted_at, rows, 0))`` for ``encoded = encode_answers(table)``,
    distinct ``removed`` and non-decreasing ``inserted_at`` (both >= 0),
    byte for byte: kept rows are copied, only ``rows`` are encoded.
    ``edges`` are ``encoded``'s row edges (:func:`_row_edges`), or None
    to find them; the new reply's are returned beside it, shifted from
    ``edges`` without reading the bytes.
    """
    removed = numpy.unique(numpy.asarray(removed, dtype=numpy.intp))
    added = encode_answers(rows)
    old = _row_edges(encoded) if edges is None else edges
    new = _row_edges(added)
    encoded_v, added_v = memoryview(encoded), memoryview(added)
    pieces, runs = [], []
    # Old rows from ``start`` on are pending; new row ``j`` goes before
    # old row ``inserted_at[j] + i`` unless removed row ``i`` is first.
    # ``at`` is the next row's edge in the new reply: a run of old rows
    # keeps its edges, shifted.
    start = i = j = at = 0
    while i < len(removed) or j < len(inserted_at):
        if j == len(inserted_at) or (
            i < len(removed) and removed[i] <= inserted_at[j] + i
        ):
            stop, resume, i = removed[i], removed[i] + 1, i + 1
        else:
            stop = resume = inserted_at[j] + i
        pieces.append(encoded_v[old[start] + 1:old[stop]])
        runs.append(old[start:stop] + (at - old[start]))
        at += old[stop] - old[start]
        if stop == resume:
            pieces.append(added_v[new[j] + 1:new[j + 1]])
            runs.append([at])
            at += new[j + 1] - new[j]
            j += 1
        start = resume
    pieces.append(encoded_v[old[start] + 1:old[-1]])
    runs.append(old[start:] + (at - old[start]))
    return (
        b"[" + b",".join(piece for piece in pieces if piece) + b"]",
        numpy.concatenate(runs),
    )


class AnswerViews:
    """An answer table and its tuple and JSON views, each built once.

    Every :class:`Result` served from one result-cache entry in one
    head order shares one instance, so the table is made read-only.
    A merged table's JSON may be derived: :attr:`json` passes
    ``derived_from`` -- the previous reply with its row edges, and the
    merge's splice -- to :func:`splice_answers` and drops it, keeping
    the derived reply's row edges for the next splice.
    """

    def __init__(self, table: Any, derived_from: tuple | None = None) -> None:
        table.flags.writeable = False
        self.table = table
        self._derived_from = derived_from
        #: :attr:`json`'s row edges, when a splice derived it.
        self.row_edges: Any = None

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.table.tolist()))

    @cached_property
    def json(self) -> bytes:
        derived_from, self._derived_from = self._derived_from, None
        if derived_from is None:
            return encode_answers(self.table)
        (reply, edges), *splice = derived_from
        encoded, self.row_edges = splice_answers(reply, edges, *splice)
        return encoded

    @property
    def encoded(self) -> bytes | None:
        """:attr:`json` if built, else None (never builds it)."""
        return self.__dict__.get("json")

    @property
    def nbytes(self) -> int:
        """Bytes of :attr:`json` and its row edges, as built so far."""
        encoded = self.encoded
        if encoded is None:
            return 0
        edges = 0 if self.row_edges is None else int(self.row_edges.nbytes)
        return len(encoded) + edges


@dataclass(frozen=True)
class Result:
    """One executed statement's outcome.

    Iterating a result iterates its answer rows.

    Attributes:
        answer_views: the answer table in the statement's head order
            (:attr:`table`) with its tuple view (:attr:`answers`) and
            the JSON array an RPC reply carries (``.json``), each
            built once and shared by every hit in that order.
        per_server: per-worker answer counts of the canonical plan
            execution, zero-padded to ``p``.
        report: communication statistics of the (possibly cached)
            run, shared with other requests that hit the same result.
        plan: the (possibly shared) compiled plan that served this.
        version: the database version answered against.
        plan_hit: the plan came from the plan cache.
        cached: the whole execution was memoized.
        explain: the planner's :class:`~repro.planner.Explain` for
            the route that produced this, with :attr:`ivm` mirrored.
        heavy_hitters: per variable, the heavy values a HyperCube
            route bound (empty sets on skew-free data; None for other
            routes).
        view_sizes: materialised intermediate-view sizes (multi-round
            routes only; empty otherwise).
        ivm: how incremental maintenance participated -- ``"merged"``
            when the request was served by routing only the delta, a
            fallback reason string when the incremental path was
            consulted but declined, None when it was not consulted
            (version 0, result-cache hit, or IVM disabled).
    """

    answer_views: AnswerViews = field(repr=False)
    per_server: tuple[int, ...]
    report: SimulationReport
    plan: Plan
    version: int
    plan_hit: bool
    cached: bool
    explain: Explain
    heavy_hitters: dict[str, frozenset[int]] | None = None
    view_sizes: dict[str, int] = field(default_factory=dict)
    ivm: str | None = None

    @property
    def table(self) -> Any:
        """The answers: a sorted duplicate-free, read-only int64
        ``(rows, arity)`` table in the statement's head order."""
        return self.answer_views.table

    @property
    def answers(self) -> tuple[tuple[int, ...], ...]:
        """:attr:`table` as sorted answer tuples (built on first use)."""
        return self.answer_views.rows

    @property
    def algorithm(self) -> str:
        """The compiler that produced the served plan."""
        return self.plan.signature.algorithm

    def __len__(self) -> int:
        return len(self.answer_views.table)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.answers)


@dataclass
class _Outcome:
    """A memoized execution (``table`` in plan head order), or its
    capacity failure (``error``; then only ``report`` is set)."""

    report: SimulationReport
    table: Any = None
    per_server: tuple[int, ...] = ()
    heavy_hitters: dict[str, frozenset[int]] | None = None
    error: CapacityExceeded | None = None
    view_sizes: dict[str, int] = field(default_factory=dict)
    #: head permutation -> the answers in that head order.
    heads: dict[tuple[int, ...], AnswerViews] = field(default_factory=dict)

    def answer_views(self, rebind: CacheRebind) -> AnswerViews:
        """The answers in ``rebind``'s head order, remapped once."""
        permutation = rebind.head_permutation
        views = self.heads.get(permutation)
        if views is None:
            views = AnswerViews(rebind.remap_table(self.table))
            self.heads[permutation] = views
        return views


class QueryService:
    """Execute planner decisions over one mutating database.

    Built only by :class:`~repro.api.session.Session`, which forwards
    its own options of the same names.

    Args:
        database: initial contents; wrapped in (or used as) a
            :class:`~repro.data.versioned.VersionedDatabase`.
        p: number of workers every request runs on.
        seed: hash-family seed shared by all plans.
        capacity_c: capacity constant; None picks each chosen
            algorithm's registered default.
        enforce_capacity: raise :class:`CapacityExceeded` on overload
            (cached failures re-raise identically).
        plan_cache_size / result_cache_size: entry budgets of the two
            cache layers; a size of 0 disables that layer.
        ivm: serve post-delta requests by routing only the delta and
            merging with retained state when eligible, under the
            default :class:`~repro.serve.ivm.IvmPolicy` (see
            :mod:`repro.serve.ivm`); answers, loads and capacity
            behaviour stay bit-identical to full re-execution.
        chunk_rows: routing block size for every execution.  A
            source longer than one block streams in ``chunk_rows``-row
            blocks with lazy delivery pools, so peak memory per
            request is bounded by the block and shard budgets instead
            of the full delivery volume -- answers, loads and capacity
            behaviour stay bit-identical.  None makes every source one
            block.
    """

    def __init__(
        self,
        database: ColumnarDatabase
        | VersionedDatabase
        | Mapping[str, ColumnarRelation],
        p: int,
        *,
        seed: int,
        capacity_c: float | None,
        enforce_capacity: bool,
        plan_cache_size: int,
        result_cache_size: int,
        ivm: bool,
        chunk_rows: int | None,
    ) -> None:
        if isinstance(database, VersionedDatabase):
            self._database = database
        else:
            self._database = VersionedDatabase(database)
        self.p = p
        self.seed = seed
        self.capacity_c = capacity_c
        self.enforce_capacity = enforce_capacity
        self.chunk_rows = chunk_rows

        self.stats = ServiceStats()
        self._plans = (
            PlanCache(maxsize=plan_cache_size)
            if plan_cache_size > 0
            else None
        )
        if self._plans is not None:
            self.stats.plans = self._plans.stats
        self._results = (
            LRUCache(result_cache_size, self._count_result_eviction)
            if result_cache_size > 0
            else None
        )
        #: The incremental-maintenance manager (None when disabled).
        self.ivm = IvmManager() if ivm else None

    def _count_result_eviction(self) -> None:
        self.stats.result_evictions += 1

    # -- read side ----------------------------------------------------------

    @property
    def database(self) -> VersionedDatabase:
        """The service's versioned database."""
        return self._database

    @property
    def version(self) -> int:
        """Current database version."""
        return self._database.version

    def validate(self, query: ConjunctiveQuery) -> None:
        """Check the query is answerable against the current schema.

        Raises:
            QueryError: for an atom over a relation the database does
                not hold, or whose arity disagrees with the stored
                relation -- the structured error the REPL and RPC
                front ends surface instead of a downstream traceback.
        """
        snapshot = self._database.snapshot
        for atom in query.atoms:
            if atom.name not in snapshot:
                raise QueryError(
                    f"unknown relation {atom.name!r}; database holds "
                    f"{sorted(snapshot.relations)}"
                )
            stored = snapshot[atom.name].arity
            if stored != atom.arity:
                raise QueryError(
                    f"arity mismatch for {atom.name}: query uses "
                    f"{atom.arity}, database stores {stored}"
                )

    def compile(
        self, query: ConjunctiveQuery, choice: PlannerChoice
    ) -> Plan:
        """The plan :meth:`execute` would run for ``choice``.

        Shares the plan cache with :meth:`execute` (an explain never
        compiles what a later execute would recompile, and vice
        versa).
        """
        return self._plan(query, choice)[0]

    def execute(
        self,
        query: ConjunctiveQuery,
        choice: PlannerChoice,
        profiler: RoundProfiler | None = None,
        *,
        deadline: Deadline | None = None,
    ) -> Result:
        """Answer one validated query against the current version.

        Args:
            query: the statement's query (already checked by
                :meth:`validate`).
            choice: the planner's decision -- which compiler, at which
                ``eps`` (None = the query's own default), and the
                explain the result carries.
            profiler: optional external profiler; phases are recorded
                only when the request actually executes (a memoized
                result has no phases to measure).
            deadline: optional per-request latency budget.  Checked on
                entry -- *before* the result cache, so an
                already-expired budget deterministically beats any
                memoized outcome, including a cached capacity failure
                -- and cooperatively inside the execution.  A
                deadline-cancelled execution is never cached.

        Raises:
            CapacityExceeded: when enforcement is on and the execution
                (fresh or memoized) overflowed a worker.
            DeadlineExceeded: the budget ran out before or during the
                execution.
        """
        self.stats.requests += 1
        if deadline is not None and deadline.expired:
            self.stats.deadline_exceeded += 1
            deadline.check("at service entry")
        plan, rebind, plan_hit = self._plan(query, choice)
        variant = (plan.signature.cache_key, rebind.relation_map)
        version = self._database.version
        outcome: _Outcome | None = None
        ivm_status: str | None = None
        if self._results is not None:
            outcome = self._results.get((variant, version))
        cached = outcome is not None
        if outcome is None and self.ivm is not None and version > 0:
            outcome, ivm_status = self._try_ivm(
                plan, variant, version, deadline
            )
        if outcome is None:
            outcome = self._execute(
                plan, rebind, variant, version, profiler, deadline
            )
        if not cached and self._results is not None:
            self._results.put((variant, version), outcome)
        if cached:
            self.stats.result_hits += 1
        if outcome.error is not None:
            self.stats.capacity_failures += 1
            raise outcome.error
        views = outcome.answer_views(rebind)
        # In plan head order ``remap_table`` returns the table itself.
        if not (cached or self.ivm is None) and views.table is outcome.table:
            self.ivm.keep_answers(variant, version, views)
        self.stats.answers_served += len(views.table)
        explain = choice.explain
        if ivm_status is not None:
            explain = replace(explain, ivm=ivm_status)
        return Result(
            answer_views=views,
            per_server=outcome.per_server,
            report=outcome.report,
            plan=plan,
            version=version,
            plan_hit=plan_hit,
            cached=cached,
            explain=explain,
            heavy_hitters=outcome.heavy_hitters,
            view_sizes=outcome.view_sizes,
            ivm=ivm_status,
        )

    def holds(self, query: ConjunctiveQuery, choice: PlannerChoice) -> bool:
        """Whether :meth:`execute` would answer from memory, read in
        this head order; counts nothing and moves no cache entry."""
        if self._plans is None or self._results is None:
            return False
        entry = self._plans.peek(query, self._params(choice))
        if entry is None:
            return False
        variant = (entry.plan.signature.cache_key, entry.rebind.relation_map)
        outcome = self._results.peek((variant, self.version))
        return outcome is not None and (
            outcome.error is not None
            or entry.rebind.head_permutation in outcome.heads
        )

    # -- write side ---------------------------------------------------------

    def apply_delta(self, delta: DatabaseDelta) -> int:
        """Mutate the database; returns the new version.

        Plans survive (they are data-independent); memoized results of
        older versions are purged eagerly so the cache never serves
        stale data even if version comparison were skipped.  A delta
        that changes nothing *effectively* (empty, deleting absent
        rows, re-inserting present rows) still bumps the version --
        but the result cache *chains*: its version-stamped entries are
        re-keyed to the new version instead of purged, so a repeated
        query after a no-op update still hits its memoized result.
        """
        old_version = self._database.version
        version = self._database.apply_delta(delta)
        self.stats.updates += 1
        record = self._database.last_record
        if record is not None and record.is_noop:
            if self._results is not None:
                self._results.remap(
                    lambda key: (key[0], version)
                    if key[1] == old_version
                    else None
                )
            if self.ivm is not None:
                self.ivm.fast_forward(old_version, version)
        if self._results is not None:
            self._results.purge(lambda key: key[1] != version)
        return version

    def close(self) -> None:
        """Drop memoized results and retained IVM state; compiled plans
        (data-independent) survive."""
        if self._results is not None:
            self._results.purge(lambda key: True)
        if self.ivm is not None:
            self.ivm.clear()

    # -- internals ----------------------------------------------------------

    def _params(self, choice: PlannerChoice) -> tuple:
        """Every compile parameter of ``choice``: its plan-cache key."""
        capacity_c = self.capacity_c
        if capacity_c is None:
            capacity_c = get_algorithm(choice.algorithm).default_capacity_c
        return (
            choice.algorithm,
            choice.eps,
            self.p,
            self.seed,
            capacity_c,
            self.enforce_capacity,
        )

    def _plan(
        self, query: ConjunctiveQuery, choice: PlannerChoice
    ) -> tuple[Plan, CacheRebind, bool]:
        """``(plan, rebind, plan_hit)`` for ``choice``, through the
        plan cache when it is enabled."""
        params = self._params(choice)
        algorithm, eps, p, seed, capacity_c, enforce_capacity = params

        def compiler(canonical: ConjunctiveQuery) -> Plan:
            return compile_with(
                algorithm,
                canonical,
                p,
                eps=eps,
                seed=seed,
                capacity_c=capacity_c,
                enforce_capacity=enforce_capacity,
            )

        if self._plans is not None:
            return self._plans.get_or_compile(query, params, compiler)
        self.stats.plans.misses += 1
        return compiler(query), identity_rebind(query), False

    def _try_ivm(
        self,
        plan: Plan,
        variant: tuple,
        version: int,
        deadline: Deadline | None,
    ) -> tuple[_Outcome | None, str | None]:
        """Attempt the incremental path for a post-delta miss.

        Returns ``(outcome, "merged")`` when the delta merge served
        the request (possibly reproducing a capacity failure), or
        ``(None, reason)`` when the full path must run.
        """
        assert self.ivm is not None
        try:
            served = self.ivm.serve(
                variant, plan, version, self._database, deadline
            )
        except DeadlineExceeded:
            # Mirrors a full execution cancelled mid-flight: counted,
            # never cached, retained state left intact for the next
            # request (merges commit only on success).
            self.stats.executions += 1
            self.stats.deadline_exceeded += 1
            raise
        if isinstance(served, MergeSuccess):
            self.stats.executions += 1
            self.stats.ivm_hits += 1
            outcome = _Outcome(
                served.report,
                served.table,
                served.per_server,
                served.heavy_hitters,
                view_sizes=served.view_sizes,
            )
            if served.reply is not None:  # plan head order, derived
                outcome.heads[tuple(range(served.table.shape[1]))] = (
                    AnswerViews(served.table, (served.reply, *served.splice))
                )
            return outcome, "merged"
        if isinstance(served, MergeCapacity):
            self.stats.executions += 1
            self.stats.ivm_hits += 1
            return (
                _Outcome(
                    SimulationReport(input_bits=served.input_bits),
                    error=served.error,
                ),
                "merged",
            )
        self.stats.ivm_fallbacks += 1
        return None, served

    def _execute(
        self,
        plan: Plan,
        rebind: CacheRebind,
        variant: tuple,
        version: int,
        profiler: RoundProfiler | None,
        deadline: Deadline | None = None,
    ) -> _Outcome:
        if profiler is None:
            profiler = RoundProfiler()
        relation_map = (
            None if rebind.is_identity else dict(rebind.relation_map)
        )
        error: CapacityExceeded | None = None
        try:
            execution = execute_plan(
                plan,
                self._database.snapshot,
                profiler=profiler,
                relation_map=relation_map,
                chunk_rows=self.chunk_rows,
                deadline=deadline,
            )
        except CapacityExceeded as exc:
            error = exc
            execution = None
        except DeadlineExceeded:
            # Not memoizable: a later identical request with a fresh
            # budget must execute for real.
            self.stats.executions += 1
            self.stats.deadline_exceeded += 1
            raise
        self.stats.executions += 1
        self.stats.add_profile(profiler)
        if error is not None:
            # The report died with the simulator that raised; keep the
            # failure itself, which carries worker/round/bits.
            return _Outcome(
                SimulationReport(input_bits=self._database.total_bits),
                error=error,
            )
        if self.ivm is not None:
            # Retain what the run computed, by reference: its site
            # answers and deliveries ride on ``execution``.
            self.ivm.capture(
                variant,
                plan,
                execution,
                relation_map,
                version,
                self._database,
            )
        return _Outcome(
            execution.report,
            execution.table,
            execution.per_server,
            execution.heavy_hitters,
            view_sizes=execution.view_sizes or {},
        )
