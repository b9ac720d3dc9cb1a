"""The one front door: ``repro.connect(db)`` -> :class:`Session`.

The paper is about *choosing* -- one round or many, which shares,
full or partial answers -- so the public API does not ask the caller
to choose an algorithm.  A :class:`Session` is the one serving
object: a planner in front of plan and result caches over a
:class:`~repro.data.versioned.VersionedDatabase`:

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
only decides *which* compiler runs, never *how*.  The REPL and the
RPC server both serve through a session; its request executor,
:class:`~repro.serve.service.QueryService`, is private to it.

Planner decisions are cached per statement in a bounded LRU store: a
read at the decision's version reuses it, a read at a later version
re-evaluates its version-free bids on a fresh profile.  The same
``Statement`` semantics are the wire protocol of the JSON-lines RPC
server (:mod:`repro.serve.rpc`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.query import ConjunctiveQuery, parse_query
from repro.data.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    check_backend,
)
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.engine import RoundProfiler
from repro.engine.faults import active_faults
from repro.planner import (
    Explain,
    Planner,
    PlannerChoice,
    PlannerStats,
    collect_profile,
)
from repro.serve.cache import LRUCache
from repro.serve.ivm import IvmManager
from repro.serve.metrics import Snapshot, gauge, snapshot, stats_dict
from repro.serve.service import QueryService, Result, ServiceStats

#: Sentinel: "the session default", distinct from an explicit None.
_UNSET = object()

#: Entry budget of the planner-decision LRU.
DECISION_CACHE_SIZE = 256


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
            compiled = self.session._service.compile(self.query, choice)
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

    def held(self) -> Result | None:
        """:meth:`execute` if the planner decision is current and the
        caches hold the outcome at this version, else None.  A held
        read neither waits (a busy session lock is None) nor computes;
        its check counts nothing and moves no cache entry."""
        session = self.session
        if not session._lock.acquire(blocking=False):
            return None
        try:
            return self.execute() if session._holds(self) else None
        finally:
            session._lock.release()

    def stream(
        self, batch_size: int = 1024
    ) -> Iterator[tuple[int, ...]]:
        """Iterate answer rows lazily.

        Execution happens on the first ``next()``; rows are then
        yielded in ``batch_size`` chunks sliced from the (already
        memoized) answer table, so abandoning the iterator early costs
        nothing extra.  The RPC server streams in the same batches.
        """
        if batch_size < 1:
            raise ValueError(f"need batch_size >= 1, got {batch_size}")
        table = self.execute().table
        for start in range(0, len(table), batch_size):
            yield from map(tuple, table[start:start + batch_size].tolist())


class Session:
    """A long-lived connection to one (mutating) database.

    The only public way in is :func:`repro.connect`.  A session owns:

    * a private :class:`~repro.serve.service.QueryService` executing
      its decisions (plan and result caches and retained IVM state
      over a versioned database);
    * a :class:`~repro.planner.Planner` choosing the compiler for
      every statement from the registry's declared cost models;
    * a bounded LRU cache of planner decisions, one per statement,
      stamped with the database version each was made at.

    Thread safety: every path (planning, compiling, executing,
    updating, stats snapshots) serializes on one internal lock, so
    concurrent callers run single-file instead of corrupting the
    unsynchronized caches.

    Args:
        database: initial contents (columnar database, mapping of
            columnar relations, or an existing
            :class:`~repro.data.versioned.VersionedDatabase`).
        p: number of workers every statement runs on.
        seed: hash-family seed shared by all plans.
        eps: session-default space exponent (None = per-statement
            automatic).
        algorithm: session-default algorithm pin (None = cost-based
            planner); statements can still override per query.
        capacity_c: capacity constant override (None = each chosen
            algorithm's own default).
        enforce_capacity: raise on worker overload.
        plan_cache_size / result_cache_size: entry budgets of the
            plan and result caches (0 disables; negative sizes raise
            ``ValueError``).
        ivm: serve post-update statements by incremental view
            maintenance when possible (see :mod:`repro.serve.ivm`).
        chunk_rows: routing block size of every execution: a source
            longer than one block streams in ``chunk_rows``-row blocks
            with lazy delivery pools, bounding peak execution memory
            independently of the delivered volume.  None makes every
            source one block; answers, loads and capacity behaviour
            are identical for every chunk size.
    """

    def __init__(
        self,
        database: ColumnarDatabase
        | VersionedDatabase
        | Mapping[str, ColumnarRelation],
        *,
        p: int = 16,
        seed: int = 0,
        eps: Fraction | float | None = None,
        algorithm: str | None = None,
        capacity_c: float | None = None,
        enforce_capacity: bool = False,
        plan_cache_size: int = 128,
        result_cache_size: int = 512,
        ivm: bool = True,
        chunk_rows: int | None = None,
    ) -> None:
        for option, value, bound in (
            ("p", p, 1),
            ("plan_cache_size", plan_cache_size, 0),
            ("result_cache_size", result_cache_size, 0),
        ):
            if value < bound:
                raise ValueError(f"need {option} >= {bound}, got {value}")
        # Serializes every touch of the unsynchronized underlying
        # state -- the service's plan/result caches and retained IVM
        # state, the planner's decision LRU -- between the RPC
        # server's thread and any other caller's.  RLock because the
        # locked paths nest (_execute -> _decide).
        self._lock = threading.RLock()
        self._service = QueryService(
            database,
            p,
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
        self._planner = Planner(p, stats=self.planner_stats)
        # Statement key -> (version, choice).
        self._decisions = LRUCache(DECISION_CACHE_SIZE)

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
                ``"hypercube"``, ``"multiround"``, ``"partial"``).
                ``None`` falls back to the session's ``algorithm``
                default (itself None = planner).
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
        if deadline_ms is not None and not deadline_ms > 0:
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

        Compiled plans survive (they are data-independent).  Memoized
        results of older versions are purged eagerly; an effective
        no-op delta chains them, and planner decisions, to the new
        version instead.  A decision that a write outdated is not
        dropped: the statement's next read re-evaluates its
        version-free bids on a fresh profile (relations the write did
        not touch keep their heavy-value counts).
        """
        return self.apply_delta(DatabaseDelta.of(inserts, deletes))

    def apply_delta(self, delta: DatabaseDelta) -> int:
        """Apply a prepared delta; see :meth:`update`."""
        with self._lock:
            return self._service.apply_delta(delta)

    # -- introspection ------------------------------------------------------

    @property
    def database(self) -> VersionedDatabase:
        """The session's versioned database."""
        return self._service.database

    @gauge("database_version", "Current database version.")
    def version(self) -> int:
        """Current database version."""
        return self._service.version

    @gauge(
        "faults_active", "Whether any REPRO_FAULT_* injection knob is set."
    )
    def faults_active(self) -> bool:
        """Whether any ``REPRO_FAULT_*`` injection knob is set."""
        return active_faults().any_active

    @property
    def p(self) -> int:
        """Worker count of every statement."""
        return self._service.p

    @property
    def stats(self) -> ServiceStats:
        """The serving counters (cache hits, evictions, phases)."""
        return self._service.stats

    @property
    def ivm(self) -> IvmManager | None:
        """Retained incremental-maintenance state (None when ``ivm``
        is off): bytes, states and fallback reasons."""
        return self._service.ivm

    def stats_snapshot(self) -> Snapshot:
        """Every instrument the session declares (see
        :mod:`repro.serve.metrics`); taken under the session lock, so
        it never sees half an execution."""
        service = self._service
        with self._lock:
            return snapshot(
                service.stats,
                service.stats.plans,
                service.ivm or IvmManager,
                self.planner_stats,
                self,
            )

    def stats_report(self) -> dict:
        """The session's stats as one JSON-ready dict: the RPC
        ``stats`` op returns these sections beside the server's own,
        and the REPL's ``stats`` command prints them."""
        return stats_dict(self.stats_snapshot())

    def close(self) -> None:
        """Release cached state.

        Planner decisions, memoized results and retained IVM state all
        go; compiled plans (data-independent) stay.  The session stays
        usable.
        """
        with self._lock:
            self._decisions.purge(lambda key: True)
            self._service.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _decide(self, statement: Statement) -> PlannerChoice:
        with self._lock:
            version = self._service.version
            key = statement.canonical_key()
            made_at, previous = self._decisions.get(key) or (None, None)
            if previous is not None and made_at != version:
                # A span of no-op bumps leaves the snapshot as it was.
                span = self._service.database.delta_between(made_at, version)
                if span is not None and span.is_noop:
                    made_at = version
                    self._decisions.put(key, (version, previous))
            if made_at == version:
                self.planner_stats.decision_cache_hits += 1
                return previous
            self._service.validate(statement.query)
            profile = collect_profile(
                statement.query,
                self._service.database.snapshot,
                shares=None if previous is None else previous.profile.shares,
            )
            choice = self._planner.choose(
                statement.query,
                profile,
                eps=statement.eps,
                algorithm=statement.algorithm,
                allow_partial=statement.allow_partial,
                bids=None if previous is None else previous.bids,
            )
            self._decisions.put(key, (version, choice))
            return choice

    def _holds(self, statement: Statement) -> bool:
        entry = self._decisions.peek(statement.canonical_key())
        return entry is not None and entry[0] == self.version and (
            self._service.holds(statement.query, entry[1])
        )

    def _execute(
        self, statement: Statement, profiler: RoundProfiler | None
    ) -> Result:
        from repro.engine.deadline import Deadline

        # The budget starts here, covering planning and execution.
        deadline = Deadline.after_ms(statement.deadline_ms)
        with self._lock:
            return self._service.execute(
                statement.query,
                self._decide(statement),
                profiler,
                deadline=deadline,
            )


def connect(
    database: ColumnarDatabase
    | VersionedDatabase
    | Mapping[str, ColumnarRelation],
    *,
    backend: str | None = None,
    **options: Any,
) -> Session:
    """Open a :class:`Session` over ``database``.

    The front door of the public API::

        import repro
        session = repro.connect(db, p=16)
        result = session.query("S1(x,y), S2(y,z)").execute()

    All other keyword options are :class:`Session` parameters.
    ``backend`` is accepted for compatibility and ignored: numpy is the
    one engine, so only ``None`` and ``"numpy"`` are valid.

    Raises:
        ValueError: for any other ``backend``.
    """
    check_backend(backend)
    return Session(database, **options)
