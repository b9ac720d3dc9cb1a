"""A long-lived query service over a mutating columnar database.

:class:`QueryService` is the repeated-query serving loop the ROADMAP's
heavy-traffic item asks for: construct it once over a database, then
call :meth:`QueryService.execute` per request and
:meth:`QueryService.update` when the data changes.  Two cache layers
amortize work across requests:

1. **Plans** (:class:`~repro.serve.cache.PlanCache`): compilation --
   covers, shares, grids, step lists -- runs once per isomorphism
   class of (query, eps, p, backend); plans are data-independent and
   survive updates.
2. **Results**: whole executions are memoized per (plan, rebind,
   version) -- the database is immutable between versions, so a
   repeated query is answered without touching the simulator.  A
   cached :class:`~repro.mpc.simulator.CapacityExceeded` is re-raised
   the same way a fresh execution would raise it.

Simulators are pooled per configuration and reset between requests
(allocating ``p`` mailboxes per request is measurable at serving
rates), and each execution's
:class:`~repro.engine.profile.RoundProfiler` phases are aggregated
into the service-level :class:`ServiceStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from repro.algorithms.registry import algorithm_names, compile_with, get_algorithm
from repro.backend import resolve_backend
from repro.core.query import ConjunctiveQuery, QueryError, parse_query
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.database import Database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.engine import Plan, RoundProfiler, execute_plan, plan_config
from repro.engine.deadline import Deadline, DeadlineExceeded
from repro.engine.profile import PHASES
from repro.serve.metrics import Histogram
from repro.mpc.simulator import CapacityExceeded, MPCSimulator
from repro.mpc.stats import SimulationReport
from repro.serve.cache import (
    CacheRebind,
    LRUCache,
    PlanCache,
    PlanCacheStats,
    identity_rebind,
)
from repro.serve.ivm import (
    IvmManager,
    IvmPolicy,
    MergeCapacity,
    MergeSuccess,
)

#: Sentinel distinguishing "use the service default" from an explicit
#: per-request ``eps=None`` (which means "the query's own exponent").
_UNSET = object()


@dataclass
class ServiceStats:
    """Service-level counters, aggregated across every request.

    ``phase_seconds`` folds each execution's per-round
    route/ship/deliver/local profile into running totals -- the
    serving-time answer to "where does a request's time go".
    """

    requests: int = 0
    executions: int = 0
    result_hits: int = 0
    result_evictions: int = 0
    updates: int = 0
    answers_served: int = 0
    capacity_failures: int = 0
    #: Executions cancelled cooperatively by their request deadline.
    deadline_exceeded: int = 0
    #: Post-delta requests served by merging a routed delta into
    #: retained state instead of re-executing the plan (includes
    #: merges that reproduced a capacity failure).
    ivm_hits: int = 0
    #: Post-delta requests where the incremental path declined and a
    #: full re-execution ran; per-reason detail lives on the service's
    #: :class:`~repro.serve.ivm.IvmManager`.
    ivm_fallbacks: int = 0
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: {phase: 0.0 for phase in PHASES}
    )
    #: Per-phase distribution of each *execution's* phase total --
    #: what the /metrics endpoint exports as latency histograms.
    phase_histograms: dict[str, Histogram] = field(
        default_factory=lambda: {phase: Histogram() for phase in PHASES}
    )
    plans: PlanCacheStats = field(default_factory=PlanCacheStats)

    def add_profile(self, profiler: RoundProfiler) -> None:
        """Fold one execution's phase timings into the totals."""
        for phase in PHASES:
            seconds = profiler.phase_total(phase)
            self.phase_seconds[phase] += seconds
            self.phase_histograms[phase].observe(seconds)


@dataclass
class ServiceResult:
    """One request's outcome.

    Attributes:
        answers: sorted answer tuples in the *request* query's head
            order.
        per_server: per-worker answer counts of the canonical plan
            execution (padded to ``p``).
        report: the execution's communication statistics (shared with
            other requests that hit the same cached result).
        plan: the (possibly shared) compiled plan that served this.
        version: the database version answered against.
        plan_hit: the plan came from the cache.
        result_hit: the whole execution was memoized.
        heavy_hitters: heavy values bound during execution (skew-aware
            plans only).
        view_sizes: materialised intermediate-view sizes (multi-round
            plans only; empty otherwise).
        ivm: how incremental maintenance participated -- ``"merged"``
            when the request was served by routing only the delta, a
            fallback reason string when the incremental path was
            consulted but declined, None when it was not consulted
            (version 0, result-cache hit, or IVM disabled).
    """

    answers: tuple[tuple[int, ...], ...]
    per_server: tuple[int, ...]
    report: SimulationReport
    plan: Plan
    version: int
    plan_hit: bool
    result_hit: bool
    heavy_hitters: dict[str, frozenset[int]] | None = None
    view_sizes: dict[str, int] = field(default_factory=dict)
    ivm: str | None = None

    @property
    def algorithm(self) -> str:
        """The compiler that produced the served plan."""
        return self.plan.signature.algorithm


@dataclass
class _Outcome:
    """A memoized execution (answers in plan head order)."""

    answers: tuple[tuple[int, ...], ...]
    per_server: tuple[int, ...]
    report: SimulationReport
    heavy_hitters: dict[str, frozenset[int]] | None
    error: CapacityExceeded | None = None
    view_sizes: dict[str, int] = field(default_factory=dict)


class QueryService:
    """Serve repeated conjunctive queries over one mutating database.

    Args:
        database: initial contents; wrapped in (or used as) a
            :class:`~repro.data.versioned.VersionedDatabase`.
        p: number of workers every request runs on.
        algorithm: which compiler serves requests -- ``"hypercube"``
            (default), ``"skewaware"`` or ``"multiround"``.
        eps: space exponent; None lets each query use its own default
            (HC's space exponent; multiround requires a value and
            falls back to 0).
        backend: compute backend, resolved once for every request.
        seed: hash-family seed shared by all plans.
        capacity_c: capacity constant; None picks the algorithm's
            registered default.
        enforce_capacity: raise :class:`CapacityExceeded` on overload
            (cached failures re-raise identically).
        plan_cache_size / result_cache_size: entry budgets of the two
            cache layers; a size of 0 disables that layer.
        chunk_rows: streaming block size for every execution (numpy
            backend only).  When set, shardable routing steps stream
            in ``chunk_rows``-row blocks with lazy delivery pools, so
            peak memory per request is bounded by the block and shard
            budgets instead of the full delivery volume -- answers,
            loads and capacity behaviour stay bit-identical.  None
            (the default) ships every step whole.
        ivm: serve post-delta requests by routing only the delta and
            merging with retained state when eligible (see
            :mod:`repro.serve.ivm`); answers, loads and capacity
            behaviour stay bit-identical to full re-execution.
        ivm_max_bytes: byte budget for retained IVM state (the RSS
            ceiling; least-recently-used states are evicted beyond
            it and their variants fall back to full re-execution).
        ivm_max_delta_fraction: largest composed-delta size, as a
            fraction of the plan's base rows, the incremental path
            will merge rather than fall back.
    """

    def __init__(
        self,
        database: Database
        | ColumnarDatabase
        | VersionedDatabase
        | Mapping[str, ColumnarRelation],
        p: int,
        *,
        algorithm: str = "hypercube",
        eps: Fraction | float | None = None,
        backend: str | None = None,
        seed: int = 0,
        capacity_c: float | None = None,
        enforce_capacity: bool = False,
        plan_cache_size: int = 128,
        result_cache_size: int = 512,
        chunk_rows: int | None = None,
        ivm: bool = True,
        ivm_max_bytes: int = 64 << 20,
        ivm_max_delta_fraction: float = 0.25,
    ) -> None:
        if algorithm not in algorithm_names():
            raise ValueError(
                f"unknown serving algorithm {algorithm!r}; expected one "
                f"of {list(algorithm_names())}"
            )
        self.backend = resolve_backend(backend)
        if isinstance(database, VersionedDatabase):
            self._database = database
        else:
            self._database = VersionedDatabase(database, backend=self.backend)
        self.p = p
        self.algorithm = algorithm
        self.eps = None if eps is None else Fraction(eps)
        self.seed = seed
        # None = each algorithm's registered default (resolved per
        # request, so per-request algorithm overrides stay
        # bit-identical to a direct compile_with + execute_plan).
        self._capacity_override = capacity_c
        self.capacity_c = (
            get_algorithm(algorithm).default_capacity_c
            if capacity_c is None
            else capacity_c
        )
        self.enforce_capacity = enforce_capacity

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
        self._ivm = (
            IvmManager(
                IvmPolicy(
                    max_delta_fraction=ivm_max_delta_fraction,
                    max_bytes=ivm_max_bytes,
                )
            )
            if ivm
            else None
        )
        self._simulators: dict[tuple, MPCSimulator] = {}
        self.chunk_rows = chunk_rows

    def _count_result_eviction(self) -> None:
        self.stats.result_evictions += 1

    def _request_params(
        self,
        algorithm: str,
        eps: Fraction | None,
        capacity_c: float | None,
    ) -> tuple:
        """The compile-parameter tuple of one request."""
        if capacity_c is None:
            capacity_c = (
                get_algorithm(algorithm).default_capacity_c
                if self._capacity_override is None
                else self._capacity_override
            )
        return (
            algorithm,
            eps,
            self.p,
            self.backend,
            self.seed,
            capacity_c,
            self.enforce_capacity,
        )

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
        self,
        query: str | ConjunctiveQuery,
        *,
        algorithm: str | None = None,
        eps: Any = _UNSET,
        capacity_c: float | None = None,
    ) -> Plan:
        """The plan a request with these parameters would execute.

        Shares the plan cache with :meth:`execute` (an explain never
        compiles what a later execute would recompile, and vice
        versa).  Overrides behave exactly like :meth:`execute`'s.
        """
        if isinstance(query, str):
            query = parse_query(query)
        self.validate(query)
        algorithm = self.algorithm if algorithm is None else algorithm
        get_algorithm(algorithm)
        request_eps = (
            self.eps if eps is _UNSET
            else None if eps is None
            else Fraction(eps)
        )
        params = self._request_params(algorithm, request_eps, capacity_c)
        if self._plans is None:
            return self._compile(query, params)
        plan, _, _ = self._plans.get_or_compile(
            query, params, lambda canonical: self._compile(canonical, params)
        )
        return plan

    def execute(
        self,
        query: str | ConjunctiveQuery,
        profiler: RoundProfiler | None = None,
        *,
        algorithm: str | None = None,
        eps: Any = _UNSET,
        capacity_c: float | None = None,
        deadline: Deadline | None = None,
    ) -> ServiceResult:
        """Answer one query against the current database version.

        Args:
            query: query text (parsed here) or an already-built
                :class:`~repro.core.query.ConjunctiveQuery`.
            profiler: optional external profiler; phases are recorded
                only when the request actually executes (a memoized
                result has no phases to measure).
            algorithm: per-request compiler override (a registry name;
                the Session planner's hook).  Defaults to the
                service-wide algorithm.
            eps: per-request space exponent override; ``None`` means
                "the query's own default".  Defaults to the
                service-wide setting.
            capacity_c: per-request capacity constant override;
                defaults to the service-wide setting (itself the
                algorithm's registered default when never set).
            deadline: optional per-request latency budget.  Checked on
                entry -- *before* the result cache, so an
                already-expired budget deterministically beats any
                memoized outcome, including a cached capacity failure
                -- and cooperatively inside the execution.  A
                deadline-cancelled execution is never cached, and the
                pooled simulator it abandoned is reset by the next
                request exactly like after a capacity failure.

        Returns:
            A :class:`ServiceResult` with answers in the request's
            head order.

        Raises:
            QueryError: malformed query text, unknown relation or
                arity mismatch (see :meth:`validate`), or an unknown
                ``algorithm``.
            CapacityExceeded: when enforcement is on and the execution
                (fresh or memoized) overflowed a worker.
            DeadlineExceeded: the budget ran out before or during the
                execution.
        """
        if isinstance(query, str):
            query = parse_query(query)
        self.validate(query)
        algorithm = self.algorithm if algorithm is None else algorithm
        get_algorithm(algorithm)  # raises QueryError on unknown names
        request_eps = (
            self.eps if eps is _UNSET
            else None if eps is None
            else Fraction(eps)
        )
        params = self._request_params(algorithm, request_eps, capacity_c)
        self.stats.requests += 1
        if deadline is not None and deadline.expired:
            self.stats.deadline_exceeded += 1
            deadline.check("at service entry")

        def compiler(canonical: ConjunctiveQuery) -> Plan:
            return self._compile(canonical, params)

        if self._plans is not None:
            plan, rebind, plan_hit = self._plans.get_or_compile(
                query, params, compiler
            )
        else:
            plan = compiler(query)
            rebind = identity_rebind(query)
            plan_hit = False
            self.stats.plans.misses += 1
        variant = (plan.signature.cache_key, rebind.relation_map)
        version = self._database.version
        outcome: _Outcome | None = None
        ivm_status: str | None = None
        if self._results is not None:
            outcome = self._results.get((variant, version))
        result_hit = outcome is not None
        if outcome is None and self._ivm is not None and version > 0:
            outcome, ivm_status = self._try_ivm(
                plan, variant, version, deadline
            )
        if outcome is None:
            outcome = self._execute(
                plan, rebind, variant, version, profiler, deadline
            )
        if not result_hit and self._results is not None:
            self._results.put((variant, version), outcome)
        if result_hit:
            self.stats.result_hits += 1
        if outcome.error is not None:
            self.stats.capacity_failures += 1
            raise outcome.error
        answers = rebind.remap_answers(outcome.answers)
        self.stats.answers_served += len(answers)
        return ServiceResult(
            answers=answers,
            per_server=outcome.per_server,
            report=outcome.report,
            plan=plan,
            version=version,
            plan_hit=plan_hit,
            result_hit=result_hit,
            heavy_hitters=outcome.heavy_hitters,
            view_sizes=outcome.view_sizes,
            ivm=ivm_status,
        )

    # -- write side ---------------------------------------------------------

    def update(
        self,
        inserts: Mapping[str, Iterable[Sequence[int]]] | None = None,
        deletes: Mapping[str, Iterable[Sequence[int]]] | None = None,
    ) -> int:
        """Mutate the database; returns the new version.

        Plans survive (they are data-independent); memoized results of
        older versions are purged eagerly so the cache never serves
        stale data even if version comparison were skipped.
        """
        return self.apply_delta(DatabaseDelta.of(inserts, deletes))

    def apply_delta(self, delta: DatabaseDelta) -> int:
        """Apply a prepared delta; see :meth:`update`.

        A delta that changes nothing *effectively* (empty, deleting
        absent rows, re-inserting present rows) still bumps the
        version -- but the result cache *chains*: its version-stamped
        entries are re-keyed to the new version instead of purged, so a
        repeated query after a no-op update still hits its memoized
        result.
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
            if self._ivm is not None:
                self._ivm.fast_forward(old_version, version)
        if self._results is not None:
            self._results.purge(lambda key: key[1] != version)
        return version

    # -- internals ----------------------------------------------------------

    @property
    def ivm(self) -> IvmManager | None:
        """The incremental-maintenance manager (None when disabled)."""
        return self._ivm

    @property
    def ivm_retained_bytes(self) -> int:
        """Bytes currently held by retained IVM state."""
        return 0 if self._ivm is None else self._ivm.retained_bytes

    @property
    def ivm_retained_states(self) -> int:
        """Number of plan variants with retained IVM state."""
        return 0 if self._ivm is None else self._ivm.retained_states

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
        assert self._ivm is not None
        try:
            served = self._ivm.serve(
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
            return (
                _Outcome(
                    answers=served.answers,
                    per_server=served.per_server,
                    report=served.report,
                    heavy_hitters=None,
                    view_sizes=served.view_sizes,
                ),
                "merged",
            )
        if isinstance(served, MergeCapacity):
            self.stats.executions += 1
            self.stats.ivm_hits += 1
            return (
                _Outcome(
                    answers=(),
                    per_server=(),
                    report=SimulationReport(
                        input_bits=served.input_bits
                    ),
                    heavy_hitters=None,
                    error=served.error,
                ),
                "merged",
            )
        self.stats.ivm_fallbacks += 1
        return None, served

    def _compile(self, query: ConjunctiveQuery, params: tuple) -> Plan:
        """Compile through the algorithm registry, one call per miss."""
        algorithm, eps, p, backend, seed, capacity_c, enforce = params
        return compile_with(
            algorithm,
            query,
            p,
            eps=eps,
            seed=seed,
            capacity_c=capacity_c,
            enforce_capacity=enforce,
            backend=backend,
        )

    def _simulator_for(self, plan: Plan) -> MPCSimulator:
        """The pooled simulator for ``plan``'s MPC configuration."""
        config = plan_config(plan)
        key = (config.p, config.eps, config.c, config.backend)
        simulator = self._simulators.get(key)
        if simulator is None:
            simulator = MPCSimulator(
                config,
                input_bits=self._database.total_bits,
                enforce_capacity=plan.signature.enforce_capacity,
            )
            self._simulators[key] = simulator
        return simulator

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
                simulator=self._simulator_for(plan),
                relation_map=relation_map,
                chunk_rows=self.chunk_rows,
                deadline=deadline,
            )
        except CapacityExceeded as exc:
            error = exc
            execution = None
        except DeadlineExceeded:
            # Not memoizable: a later identical request with a fresh
            # budget must execute for real.  The abandoned simulator is
            # reset by its next user, like after a capacity failure.
            self.stats.executions += 1
            self.stats.deadline_exceeded += 1
            raise
        self.stats.executions += 1
        self.stats.add_profile(profiler)
        if error is not None:
            # The report lives on the pooled simulator that raised;
            # keep the failure itself, which carries worker/round/bits.
            return _Outcome(
                answers=(),
                per_server=(),
                report=SimulationReport(
                    input_bits=self._database.total_bits
                ),
                heavy_hitters=None,
                error=error,
            )
        if self._ivm is not None:
            # Retain what the run computed, by reference: its site
            # answers ride on ``execution``, its deliveries still sit
            # in the pooled simulator (reset happens at the start of
            # the next run).
            self._ivm.capture(
                variant,
                plan,
                execution,
                relation_map,
                version,
                self._database,
            )
        return _Outcome(
            answers=execution.answers,
            per_server=execution.per_server,
            report=execution.report,
            heavy_hitters=execution.heavy_hitters,
            view_sizes=execution.view_sizes or {},
        )
