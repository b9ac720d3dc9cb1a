"""The one front door: ``repro.connect(db)`` -> :class:`Session`.

The paper is about *choosing* -- one round or many, which shares,
full or partial answers -- so the public API does not ask the caller
to choose an algorithm.  A :class:`Session` wraps the serving stack
(:class:`~repro.serve.service.QueryService` over a
:class:`~repro.data.versioned.VersionedDatabase`) behind a planner:

    session = repro.connect(database, p=16)
    statement = session.query("S1(x,y), S2(y,z)")
    answers = statement.execute().answers     # planner picks the route
    print(statement.explain().format())       # ...and shows its work
    for row in statement.stream():            # lazy row iteration
        ...

Every :class:`Statement` is lazy: nothing touches the data until
``.execute()`` / ``.stream()`` (``.explain()`` reads only the cheap
statistics profile).  Results are bit-identical to compiling the
chosen algorithm with :func:`~repro.algorithms.registry.compile_with`
and running it with :func:`~repro.engine.execute_plan` -- the planner
only decides *which* compiler runs, never *how*.  The session is the
only thing in the package that constructs a
:class:`~repro.serve.service.QueryService`: the REPL, the RPC server
and the fan-out workers all serve through one.

Planner decisions and data profiles are cached per database version
in bounded LRU stores, and the same ``Statement`` semantics are the
wire protocol of the JSON-lines RPC server
(:mod:`repro.serve.rpc`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.query import ConjunctiveQuery, parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.database import Database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.engine import Plan, RoundProfiler
from repro.mpc.stats import SimulationReport
from repro.planner import (
    DataProfile,
    Explain,
    Planner,
    PlannerChoice,
    PlannerStats,
    collect_profile,
)
from repro.serve.cache import LRUCache
from repro.serve.service import QueryService, ServiceResult, ServiceStats

#: Sentinel: "the session default", distinct from an explicit None.
_UNSET = object()

#: Entry budgets of the planner-decision and data-profile LRUs.
DECISION_CACHE_SIZE = 256
PROFILE_CACHE_SIZE = 64


@dataclass(frozen=True)
class Result:
    """One executed statement's outcome.

    Everything a :class:`~repro.serve.service.ServiceResult` carries,
    plus the planner's :class:`~repro.planner.Explain` for the route
    that produced it.  Iterating a result iterates its answer rows.
    """

    raw: ServiceResult
    explain: Explain

    @property
    def answers(self) -> tuple[tuple[int, ...], ...]:
        """Sorted answer tuples in the statement's head order."""
        return self.raw.answers

    @property
    def algorithm(self) -> str:
        """The compiler that served this result."""
        return self.raw.algorithm

    @property
    def plan(self) -> Plan:
        """The compiled plan that served this result."""
        return self.raw.plan

    @property
    def report(self) -> SimulationReport:
        """Communication statistics of the (possibly cached) run."""
        return self.raw.report

    @property
    def per_server(self) -> tuple[int, ...]:
        """Per-worker answer counts, zero-padded to ``p``."""
        return self.raw.per_server

    @property
    def version(self) -> int:
        """Database version the result was computed against."""
        return self.raw.version

    @property
    def cached(self) -> bool:
        """True when the whole execution was memoized."""
        return self.raw.result_hit

    @property
    def ivm(self) -> str | None:
        """How incremental maintenance served this execution.

        ``"merged"`` when the answer came from a delta merge against
        retained state, a named fallback reason when the full path
        ran, None when IVM was not consulted (also mirrored on
        :attr:`explain`).
        """
        return self.raw.ivm

    @property
    def heavy_hitters(self) -> dict[str, frozenset[int]] | None:
        """Heavy values bound during execution (skew-aware routes)."""
        return self.raw.heavy_hitters

    @property
    def view_sizes(self) -> dict[str, int]:
        """Materialised intermediate-view sizes (multi-round routes)."""
        return self.raw.view_sizes

    def __len__(self) -> int:
        return len(self.raw.answers)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.raw.answers)


@dataclass(frozen=True)
class Statement:
    """A prepared query bound to a session -- the unit of execution.

    Statements are immutable and lazy; build them with
    :meth:`Session.query`.  The same object can be executed any number
    of times (each execution answers against the database version
    current at that moment).
    """

    session: "Session"
    query: ConjunctiveQuery
    eps: Fraction | None = None
    algorithm: str | None = None
    allow_partial: bool = False
    #: Latency budget in milliseconds, counted from the moment the
    #: statement starts executing; None = no deadline.
    deadline_ms: float | None = None

    @property
    def text(self) -> str:
        """Canonical text of the statement's query."""
        return str(self.query)

    def canonical_key(self) -> tuple:
        """Hashable identity of this statement's semantics.

        Two statements with equal keys, executed at the same database
        version, return identical responses -- the coalescing key of
        the RPC front end.  ``deadline_ms`` is part of the key: two
        requests with different budgets must not share one in-flight
        execution (the shorter budget could poison the longer one's
        answer with a DeadlineExceeded).
        """
        return (
            str(self.query),
            self.query.head,
            self.eps,
            self.algorithm,
            self.allow_partial,
            self.deadline_ms,
        )

    def plan(self) -> PlannerChoice:
        """The planner's routing decision (cached per version)."""
        return self.session._decide(self)

    def explain(self) -> Explain:
        """Why the planner routes this statement the way it does.

        Reads only the statistics profile -- no execution happens.
        """
        return self.plan().explain

    def describe_plan(self) -> dict:
        """The compiled plan's structural summary (no execution).

        Compiles through the session's plan cache (so a later
        ``.execute()`` reuses the same plan) and returns
        :meth:`repro.engine.plan.Plan.describe`.
        """
        choice = self.plan()
        with self.session._lock:
            compiled = self.session.service.compile(
                self.query, algorithm=choice.algorithm, eps=choice.eps
            )
        return compiled.describe()

    def execute(self, profiler: RoundProfiler | None = None) -> Result:
        """Execute the statement against the current version.

        Raises:
            QueryError: unknown relation / arity mismatch / no
                eligible algorithm at the pinned ``eps``.
            CapacityExceeded: when the session enforces capacity and
                a worker overflowed.
            DeadlineExceeded: when the statement carries a
                ``deadline_ms`` budget and it ran out at a cooperative
                checkpoint.
        """
        return self.session._execute(self, profiler)

    def stream(
        self, batch_size: int = 1024
    ) -> Iterator[tuple[int, ...]]:
        """Iterate answer rows lazily.

        Execution happens on the first ``next()``; rows are then
        yielded in ``batch_size`` chunks from the (already memoized)
        result, so abandoning the iterator early costs nothing extra.
        The RPC server streams results to clients in the same batch
        granularity.
        """
        if batch_size < 1:
            raise ValueError(f"need batch_size >= 1, got {batch_size}")
        result = self.execute()
        for start in range(0, len(result.answers), batch_size):
            yield from result.answers[start:start + batch_size]


class Session:
    """A long-lived connection to one (mutating) database.

    The only public way in is :func:`repro.connect`.  A session owns:

    * a :class:`~repro.serve.service.QueryService` (plan and result
      caches over a versioned database);
    * a :class:`~repro.planner.Planner` choosing the compiler for
      every statement from the registry's declared cost models;
    * bounded LRU caches of planner decisions and data profiles, keyed
      by database version.

    Thread safety: the fan-out query path (``workers >= 2``) may be
    driven from any number of threads at once -- each statement ships
    whole to a worker process owning its own state.  Every in-process
    path (planning, compiling, executing, updating) serializes on one
    internal lock, so concurrent callers -- including dispatcher
    threads degrading to local execution after the fan-out pool broke
    -- run single-file instead of corrupting the unsynchronized
    caches and pooled simulators.

    Args:
        database: initial contents (row database, columnar database,
            mapping of columnar relations, or an existing
            :class:`~repro.data.versioned.VersionedDatabase`).
        p: number of workers every statement runs on.
        backend: compute backend (``"pure"`` / ``"numpy"`` /
            ``"auto"``).
        seed: hash-family seed shared by all plans.
        eps: session-default space exponent (None = per-statement
            automatic).
        algorithm: session-default algorithm pin (None = cost-based
            planner); statements can still override per query.
        capacity_c: capacity constant override (None = each chosen
            algorithm's own default).
        enforce_capacity: raise on worker overload.
        plan_cache_size / result_cache_size: entry budgets of the
            service's two cache layers (0 disables).
        ivm: serve post-update statements by incremental view
            maintenance when possible (forwarded to the service; see
            :mod:`repro.serve.ivm`).
        workers: executor process count for statement fan-out.  1 (the
            default) keeps everything in this process.  With ``N >= 2``
            the session spawns ``N`` worker processes, each holding a
            full planner-backed session over a shared-memory snapshot
            of the database, and ``.execute()`` calls dispatch to idle
            workers -- so independent statements from concurrent
            threads genuinely run in parallel.  Results are
            bit-identical to in-process execution (same data, same
            seed, same deterministic planner); updates broadcast to
            every worker behind a barrier; if workers die the session
            falls back to in-process execution.  Requires the numpy
            backend for zero-copy snapshots (pure-backend relations
            ship by value).
        chunk_rows: streaming block size forwarded to the service (and
            replayed by fan-out workers): shardable routing steps
            stream in ``chunk_rows``-row blocks with lazy delivery
            pools, bounding peak execution memory independently of the
            delivered volume.  None ships every step whole; answers,
            loads and capacity behaviour are identical for every chunk
            size.
    """

    def __init__(
        self,
        database: Database
        | ColumnarDatabase
        | VersionedDatabase
        | Mapping[str, ColumnarRelation],
        *,
        p: int = 16,
        backend: str | None = None,
        seed: int = 0,
        eps: Fraction | float | None = None,
        algorithm: str | None = None,
        capacity_c: float | None = None,
        enforce_capacity: bool = False,
        plan_cache_size: int = 128,
        result_cache_size: int = 512,
        ivm: bool = True,
        workers: int = 1,
        chunk_rows: int | None = None,
    ) -> None:
        if p < 1:
            raise ValueError(f"need p >= 1, got {p}")
        if workers < 1:
            raise ValueError(f"need workers >= 1, got {workers}")
        # Serializes every touch of the unsynchronized underlying
        # state: the service's plan/result caches and pooled
        # simulators, the planner's decision/profile LRUs.  The
        # fan-out query path never takes it (workers own their state),
        # which is what lets N RPC dispatcher threads drive a fan-out
        # session concurrently -- but the moment any of them falls
        # back to in-process execution (pool died mid-serve), this
        # lock is what keeps the fallback single-file.  RLock because
        # the locked paths nest (_execute -> _decide -> _profile).
        self._lock = threading.RLock()
        self._service = QueryService(
            database,
            p,
            algorithm="hypercube",
            eps=None,
            backend=backend,
            seed=seed,
            capacity_c=capacity_c,
            enforce_capacity=enforce_capacity,
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
            ivm=ivm,
            chunk_rows=chunk_rows,
        )
        self.default_eps = None if eps is None else Fraction(eps)
        if algorithm is not None:
            from repro.algorithms.registry import get_algorithm

            get_algorithm(algorithm)  # raises QueryError on unknown names
        self.default_algorithm = algorithm
        self.planner_stats = PlannerStats()
        self._planner = Planner(
            p, self._service.backend, stats=self.planner_stats
        )
        self._decisions = LRUCache(DECISION_CACHE_SIZE)
        self._profiles = LRUCache(PROFILE_CACHE_SIZE)
        self.workers = workers
        self._fanout: Any = None
        if workers >= 2:
            from repro.api.fanout import SessionWorkerPool

            # The worker sessions replay these options verbatim, so
            # their planner/caches behave identically to this one.
            options = dict(
                p=p,
                backend=backend,
                seed=seed,
                eps=eps,
                algorithm=algorithm,
                capacity_c=capacity_c,
                enforce_capacity=enforce_capacity,
                plan_cache_size=plan_cache_size,
                result_cache_size=result_cache_size,
                ivm=ivm,
                chunk_rows=chunk_rows,
            )
            self._fanout = SessionWorkerPool(
                self._service.database, options, workers
            )

    # -- construction of statements -----------------------------------------

    def query(
        self,
        query: str | ConjunctiveQuery,
        *,
        eps: Any = _UNSET,
        algorithm: str | None = None,
        allow_partial: bool = False,
        deadline_ms: float | None = None,
    ) -> Statement:
        """Prepare a statement (nothing executes yet).

        Args:
            query: query text (parsed here) or a prebuilt
                :class:`~repro.core.query.ConjunctiveQuery`.
            eps: pinned space exponent for this statement; unset means
                the session default, ``None`` means automatic.
            algorithm: pinned registry algorithm (skips the cost duel;
                ``"hypercube"``, ``"skewaware"``, ``"multiround"``,
                ``"partial"``).  ``None`` falls back to the session's
                ``algorithm`` default (itself None = planner).
            allow_partial: permit the inexact below-threshold
                algorithm to win the duel (needs a pinned ``eps``
                below the query's space exponent to ever matter).
            deadline_ms: per-execution latency budget in
                milliseconds; the budget starts counting when
                ``.execute()`` is called (covering planning and
                execution) and raises
                :class:`~repro.engine.deadline.DeadlineExceeded` at
                the first cooperative checkpoint past it.  None (the
                default) means no deadline.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(
                f"need deadline_ms > 0, got {deadline_ms}"
            )
        statement_eps = (
            self.default_eps if eps is _UNSET
            else None if eps is None
            else Fraction(eps)
        )
        return Statement(
            session=self,
            query=query,
            eps=statement_eps,
            algorithm=(
                self.default_algorithm if algorithm is None else algorithm
            ),
            allow_partial=allow_partial,
            deadline_ms=(
                None if deadline_ms is None else float(deadline_ms)
            ),
        )

    def execute(self, query: str | ConjunctiveQuery, **options: Any) -> Result:
        """Shorthand for ``session.query(...).execute()``."""
        return self.query(query, **options).execute()

    def explain(self, query: str | ConjunctiveQuery, **options: Any) -> Explain:
        """Shorthand for ``session.query(...).explain()``."""
        return self.query(query, **options).explain()

    # -- write side ---------------------------------------------------------

    def update(
        self,
        inserts: Mapping[str, Iterable[Sequence[int]]] | None = None,
        deletes: Mapping[str, Iterable[Sequence[int]]] | None = None,
    ) -> int:
        """Mutate the database; returns the new version.

        Stale planner decisions and profiles are purged eagerly (they
        are version-keyed, so this is belt and braces like the
        service's own cache purge).
        """
        return self.apply_delta(DatabaseDelta.of(inserts, deletes))

    def apply_delta(self, delta: DatabaseDelta) -> int:
        """Apply a prepared delta; see :meth:`update`.

        With fan-out workers the delta broadcasts behind a full
        barrier and this session's version bumps only *after* every
        worker already applied it -- so a statement that observes the
        new version can never reach a worker still at the old one
        (the version-at-submit == version-at-execute contract the RPC
        coalescing key relies on).  A worker that dies or diverges
        mid-broadcast marks the pool broken (later queries fall back
        to in-process execution) but never loses the parent's delta.
        """
        fanout = self._fanout
        if fanout is not None and fanout.usable:
            version = fanout.apply_delta(
                delta, lambda: self._apply_local_delta(delta)
            )
        else:
            version = self._apply_local_delta(delta)
        with self._lock:
            record = self._service.database.last_record
            if (
                record is not None
                and record.new_version == version
                and record.is_noop
            ):
                # An effective no-op bump: the snapshot is unchanged,
                # so decisions and profiles stay valid -- chain their
                # keys forward instead of orphaning them.
                old_version = record.old_version

                def _rekey(key: tuple) -> tuple | None:
                    if key[-1] == old_version:
                        return key[:-1] + (version,)
                    return None

                self._decisions.remap(_rekey)
                self._profiles.remap(_rekey)
            self._decisions.purge(lambda key: key[-1] != version)
            self._profiles.purge(lambda key: key[-1] != version)
        return version

    def _apply_local_delta(self, delta: DatabaseDelta) -> int:
        with self._lock:
            return self._service.apply_delta(delta)

    # -- introspection ------------------------------------------------------

    @property
    def service(self) -> QueryService:
        """The underlying query service (caches, simulators, stats)."""
        return self._service

    @property
    def database(self) -> VersionedDatabase:
        """The session's versioned database."""
        return self._service.database

    @property
    def version(self) -> int:
        """Current database version."""
        return self._service.version

    @property
    def p(self) -> int:
        """Worker count of every statement."""
        return self._service.p

    @property
    def backend(self) -> str:
        """Resolved compute backend."""
        return self._service.backend

    @property
    def stats(self) -> ServiceStats:
        """Service-level counters (cache hits, evictions, phases)."""
        return self._service.stats

    @property
    def fanout(self) -> Any:
        """The statement fan-out pool, or None (introspection/stats)."""
        return self._fanout

    def stats_report(self) -> dict:
        """Service, fan-out and planner counters as one JSON-ready dict.

        The stats table of the serving stack: the RPC ``stats`` op
        returns these sections beside its own ``rpc`` / ``admission``
        ones, and the REPL's ``stats`` command prints them.
        """
        service = self._service.stats
        planner = self.planner_stats
        fanout = self._fanout
        return {
            "service": {
                "requests": service.requests,
                "executions": service.executions,
                "result_hits": service.result_hits,
                # Always 0: benchmarks/e2e/metrics.py indexes these keys.
                "routing_hits": 0,
                "routing_misses": 0,
                "routing_evictions": 0,
                "result_evictions": service.result_evictions,
                "plan_hits": service.plans.hits,
                "plan_isomorphic_hits": service.plans.isomorphic_hits,
                "plan_misses": service.plans.misses,
                "plan_evictions": service.plans.evictions,
                "updates": service.updates,
                "answers_served": service.answers_served,
                "capacity_failures": service.capacity_failures,
                "deadline_exceeded": service.deadline_exceeded,
                "ivm_hits": service.ivm_hits,
                "ivm_fallbacks": service.ivm_fallbacks,
                "ivm_retained_bytes": self._service.ivm_retained_bytes,
                "ivm_retained_states": self._service.ivm_retained_states,
            },
            "parallel": {
                "fanout_workers": fanout.workers if fanout else 0,
                "fanout_usable": bool(fanout and fanout.usable),
                "fanout_queries": fanout.queries if fanout else 0,
                "fanout_alive_workers": (
                    fanout.alive_workers if fanout else 0
                ),
                "fanout_killed_stragglers": (
                    fanout.killed_stragglers if fanout else 0
                ),
            },
            "planner": {
                "decisions": planner.decisions,
                "pinned": planner.pinned,
                "decision_cache_hits": planner.decision_cache_hits,
                "by_algorithm": dict(planner.by_algorithm or {}),
            },
            "version": self.version,
        }

    def close(self) -> None:
        """Release cached state, worker processes and shared segments.

        The session stays usable for in-process execution.
        """
        with self._lock:
            self._decisions.purge(lambda key: True)
            self._profiles.purge(lambda key: True)
        if self._fanout is not None:
            self._fanout.close()
            self._fanout = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _profile(self, query: ConjunctiveQuery, version: int) -> DataProfile:
        with self._lock:
            key = (str(query), version)
            profile = self._profiles.get(key)
            if profile is None:
                profile = collect_profile(
                    query,
                    self._service.database.snapshot,
                    backend=self._service.backend,
                    version=version,
                )
                self._profiles.put(key, profile)
            return profile

    def _decide(self, statement: Statement) -> PlannerChoice:
        with self._lock:
            version = self._service.version
            key = statement.canonical_key() + (version,)
            choice = self._decisions.get(key)
            if choice is not None:
                self.planner_stats.decision_cache_hits += 1
                return choice
            self._service.validate(statement.query)
            profile = self._profile(statement.query, version)
            choice = self._planner.choose(
                statement.query,
                profile,
                eps=statement.eps,
                algorithm=statement.algorithm,
                allow_partial=statement.allow_partial,
            )
            self._decisions.put(key, choice)
            return choice

    def _execute(
        self, statement: Statement, profiler: RoundProfiler | None
    ) -> Result:
        from repro.engine.deadline import Deadline

        # The budget starts here, covering planning and (for fan-out)
        # dispatch; the worker gets whatever is left of it.
        deadline = Deadline.after_ms(statement.deadline_ms)
        if (
            self._fanout is not None
            and self._fanout.usable
            and profiler is None  # profiled runs stay local: the
            # caller wants *this* process's phase timings.
        ):
            from repro.api.fanout import FanoutBroken

            try:
                raw, explain = self._fanout.execute(
                    statement.query,
                    statement.eps,
                    statement.algorithm,
                    statement.allow_partial,
                    deadline_ms=(
                        None
                        if deadline is None
                        else max(deadline.remaining_ms(), 0.001)
                    ),
                )
                return Result(raw=raw, explain=explain)
            except FanoutBroken:
                pass  # degrade to in-process execution below.
        # In-process path: serialized.  When the fan-out pool breaks
        # at runtime, several RPC dispatcher threads can land here
        # concurrently; the lock keeps them off the unsynchronized
        # plan cache and pooled simulators one at a time.
        with self._lock:
            choice = self._decide(statement)
            raw = self._service.execute(
                statement.query,
                profiler,
                algorithm=choice.algorithm,
                eps=choice.eps,
                deadline=deadline,
            )
        explain = choice.explain
        if raw.ivm is not None:
            explain = replace(explain, ivm=raw.ivm)
        return Result(raw=raw, explain=explain)


def connect(
    database: Database
    | ColumnarDatabase
    | VersionedDatabase
    | Mapping[str, ColumnarRelation],
    **options: Any,
) -> Session:
    """Open a :class:`Session` over ``database``.

    The front door of the public API::

        import repro
        session = repro.connect(db, p=16, backend="numpy")
        result = session.query("S1(x,y), S2(y,z)").execute()

    All keyword options are :class:`Session` parameters.
    """
    return Session(database, **options)
