"""Retained routed state: what a full execution leaves behind for IVM.

The MPC model routes by tuple *content* (a ``HashRoute`` destination
depends only on the row's values), so the per-worker fragments a full
execution delivered stay valid under a delta except for exactly the
routed images of the changed rows.  This module captures that state
once per full execution -- per-mailbox-key worker fragments, per-site
per-worker answer tables, and the run's round statistics -- so
:mod:`repro.serve.ivm.merge` can later patch it with a routed delta
instead of re-executing the plan.

Nothing is derived a second time.  The fragments are zero-copy views
of the pooled deliveries still sitting in the execution's simulator
(the serving layer resets simulators lazily, at the start of the next
run; pure-backend rows are copied because ``reset`` clears mailboxes
in place), and each site's per-worker answer tables, merged table and
answer tuples are the very objects local evaluation produced, taken by
reference from :attr:`PlanExecution.site_answers
<repro.engine.executor.PlanExecution.site_answers>` and
``execution.answers``.  A streamed execution records no site answers
and retains nothing.

What capture still checks costs microseconds: one report round per
plan round, a complete ``p``-worker pool behind every mailbox key a
site reads, and the recorded tables' row counts against the sizes the
execution reported (per-worker loads, view sizes, answer count).  Any
mismatch retains nothing, so the next delta falls back to full
re-execution.  Re-joining every worker's retained fragments is the
oracle ``tests/serve/test_ivm_capture.py`` holds a captured state to.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.query import ConjunctiveQuery
from repro.data.columnar import ColumnarDatabase, bits_per_value
from repro.engine.executor import PlanExecution
from repro.engine.plan import (
    CollectAnswers,
    FinalizeView,
    Plan,
    key_map_of,
)
from repro.mpc.stats import RoundStats

from .policy import FALLBACK_NO_STATE, FALLBACK_STREAMED

NUMPY = "numpy"

#: Rough per-row cost of retained pure-backend fragments (tuple header
#: plus small-int pointers); only used for the byte budget, so it must
#: be stable, not exact.
_PURE_ROW_BYTES = 60
_PURE_VALUE_BYTES = 28


@dataclass
class FragmentStore:
    """One mailbox key's per-worker fragments.

    ``fragments[w]`` is worker ``w``'s full fragment of the key:
    a tuple of int64 column arrays (numpy backend) or a list of row
    tuples (pure backend).
    """

    arity: int
    fragments: list[Any]


@dataclass
class SiteState:
    """One evaluation site: a materialised view or answer collection.

    Attributes:
        name: view name, or None for the ``CollectAnswers`` site.
        query: the site's full conjunctive query.
        keys: atom name -> mailbox key the atom reads.
        workers: number of workers evaluating the site.
        tables: per-worker answer tables (int64 arrays or row tuples).
        merged: the canonical merged table -- lex-sorted unique rows.
        answer_rows: for the site that produces the request's answers,
            a cache of those answers as row tuples in canonical order
            (kept current by every merge, so a delta-proportional
            merge never re-materialises the full table); None for
            every other site.
    """

    name: str | None
    query: ConjunctiveQuery
    keys: dict[str, str]
    workers: int
    tables: list[Any]
    merged: Any
    answer_rows: tuple | None = None


@dataclass
class RetainedState:
    """Everything IVM retains from one full plan execution."""

    version: int
    plan: Plan
    relation_map: dict[str, str]
    backend: str
    pools: dict[str, FragmentStore]
    views: dict[str, SiteState]
    view_rounds: list[list[str]]
    collect: SiteState | None
    finalize_positions: list[int] | None
    report_rounds: tuple[RoundStats, ...]
    input_bits: int
    step_bits: dict[tuple[int, int], int]
    nbytes: int = 0

    def recount_bytes(self) -> int:
        """Recompute (and store) the retained-byte estimate."""
        total = 0
        for store in self.pools.values():
            for fragment in store.fragments:
                total += _fragment_bytes(fragment, self.backend)
        for site in list(self.views.values()) + (
            [self.collect] if self.collect is not None else []
        ):
            for table in site.tables:
                total += _table_bytes(table, self.backend)
            total += _table_bytes(site.merged, self.backend)
            if site.answer_rows is not None:
                total += _table_bytes(site.answer_rows, "pure")
        self.nbytes = total
        return total


def _fragment_bytes(fragment: Any, backend: str) -> int:
    if backend == NUMPY:
        return sum(int(column.nbytes) for column in fragment)
    if not fragment:
        return 0
    width = len(fragment[0])
    return len(fragment) * (_PURE_ROW_BYTES + width * _PURE_VALUE_BYTES)


def _table_bytes(table: Any, backend: str) -> int:
    if backend == NUMPY:
        return int(table.nbytes)
    if not table:
        return 0
    width = len(table[0])
    return len(table) * (_PURE_ROW_BYTES + width * _PURE_VALUE_BYTES)


def plan_sites(plan: Plan) -> list[tuple[str | None, ConjunctiveQuery, Any]]:
    """Every evaluation site of a plan: ``(view name | None, query,
    key_map)`` -- views in round order, then the collect site."""
    sites: list[tuple[str | None, ConjunctiveQuery, Any]] = []
    for plan_round in plan.rounds:
        for view in plan_round.views:
            sites.append((view.name, view.query, view.key_map))
    finalize = plan.finalize
    if isinstance(finalize, CollectAnswers):
        sites.append((None, finalize.query, finalize.key_map))
    return sites


def _view_arities(plan: Plan) -> dict[str, int]:
    return {
        view.name: len(view.query.head)
        for plan_round in plan.rounds
        for view in plan_round.views
    }


def compute_step_bits(
    plan: Plan,
    snapshot: ColumnarDatabase,
    relation_map: Mapping[str, str],
) -> dict[tuple[int, int], int]:
    """Per ``(round, step)``: the bits-per-tuple the step's shipping
    is charged at, reconstructed exactly as ``execute_plan`` charges
    it (including the ``uniform_domain_bits`` replacement and views
    being created at the database-wide domain)."""
    view_arity = _view_arities(plan)
    domain_bits = bits_per_value(snapshot.domain_size)
    bits: dict[tuple[int, int], int] = {}
    for round_index, plan_round in enumerate(plan.rounds):
        for step_index, step in enumerate(plan_round.steps):
            source = step.relation
            if source in view_arity:
                per_tuple = view_arity[source] * domain_bits
            else:
                relation = snapshot[relation_map.get(source, source)]
                if plan.uniform_domain_bits:
                    per_tuple = relation.arity * domain_bits
                else:
                    per_tuple = relation.tuple_bits
            bits[(round_index, step_index)] = per_tuple
    return bits


def _merge_tables(tables: list[Any], arity: int, backend: str) -> Any:
    """The canonical duplicate-free union of per-worker tables --
    exactly the merge full execution performs."""
    if backend == NUMPY:
        from repro.engine.local import union_answer_tables

        return union_answer_tables(tables, arity)
    merged: set[tuple[int, ...]] = set()
    for table in tables:
        merged.update(table)
    return tuple(sorted(merged))


def table_rows(table: Any, backend: str) -> tuple[tuple[int, ...], ...]:
    """A table's rows as plain tuples (canonical order preserved)."""
    if backend == NUMPY:
        return tuple(map(tuple, table.tolist()))
    return tuple(table)


def evaluate_worker(
    query: ConjunctiveQuery,
    fragments: Mapping[str, Any],
    backend: str,
) -> Any:
    """One worker's duplicate-free answers over its fragments.

    numpy: an int64 table via the columnar evaluator with the
    duplicate-free fast path (fragments are sets by construction --
    content routing never delivers a row twice to one worker).
    pure: sorted answer row tuples from the reference evaluator.
    """
    if backend == NUMPY:
        from repro.algorithms.localjoin import evaluate_query_table

        return evaluate_query_table(query, fragments, assume_unique=True)
    from repro.algorithms.localjoin import evaluate_query

    return evaluate_query(
        query, {name: list(rows) for name, rows in fragments.items()}
    )


def capture_state(
    plan: Plan,
    execution: PlanExecution,
    relation_map: Mapping[str, str] | None,
    version: int,
    snapshot: ColumnarDatabase,
) -> RetainedState | str:
    """Retain a just-finished full execution's routed state.

    Returns the state, or the named reason nothing is retained:
    ``streamed-deliveries`` when the execution recorded no answers for
    some site (its deliveries were streamed recipes; materialising
    them here would recreate the memory cliff streaming exists to
    avoid), ``no-retained-state`` when the simulator no longer holds a
    complete pool for every needed key or a recorded size disagrees
    with the execution's -- either way the next delta simply falls
    back to full re-execution.
    """
    backend = plan.signature.backend
    simulator = execution.simulator
    p = plan.signature.p
    relation_map = dict(relation_map or {})
    if len(execution.report.rounds) != len(plan.rounds):
        return FALLBACK_NO_STATE

    sites = plan_sites(plan)
    recorded = execution.site_answers or {}
    if any(name not in recorded for name, _, _ in sites):
        return FALLBACK_STREAMED
    needed_keys = dict.fromkeys(
        key_map_of(key_map)(atom.name)
        for _, query, key_map in sites
        for atom in query.atoms
    )

    pools: dict[str, FragmentStore] = {}
    for key in needed_keys:
        if backend == NUMPY:
            pool = simulator.relation_pool(key)
            if pool is None or pool.num_workers != p:
                return FALLBACK_NO_STATE
            fragments = [pool.worker_slice(w) for w in range(p)]
            arity = len(pool.columns)
        else:
            fragments = [
                list(simulator.worker_rows(w, key)) for w in range(p)
            ]
            arity = next(
                (
                    len(rows[0])
                    for rows in fragments
                    if rows
                ),
                0,
            )
        pools[key] = FragmentStore(arity=arity, fragments=fragments)

    views: dict[str, SiteState] = {}
    collect: SiteState | None = None
    finalize_positions: list[int] | None = None
    view_rounds = [
        [view.name for view in plan_round.views]
        for plan_round in plan.rounds
    ]
    finalize = plan.finalize
    for name, query, key_map in sites:
        key_of = key_map_of(key_map)
        site = SiteState(
            name=name,
            query=query,
            keys={atom.name: key_of(atom.name) for atom in query.atoms},
            workers=finalize.workers if name is None else p,
            tables=list(recorded[name].tables),
            merged=recorded[name].merged,
        )
        if name is None:
            collect = site
        else:
            views[name] = site

    # The recorded tables must account for every size the execution
    # reported, or we retain nothing.
    view_sizes = execution.view_sizes or {}
    per_server_views = execution.per_server_views or {}
    for name, site in views.items():
        if len(site.merged) != view_sizes.get(name):
            return FALLBACK_NO_STATE
        counts = per_server_views.get(name)
        if counts is not None and tuple(
            len(table) for table in site.tables
        ) != tuple(counts):
            return FALLBACK_NO_STATE
    if isinstance(finalize, CollectAnswers):
        assert collect is not None
        per_server = tuple(
            [len(table) for table in collect.tables]
            + [0] * (p - collect.workers)
        )
        if per_server != tuple(execution.per_server):
            return FALLBACK_NO_STATE
        answers_site = collect
    elif isinstance(finalize, FinalizeView):
        answers_site = views.get(finalize.view)
        if answers_site is None:
            return FALLBACK_NO_STATE
        schema = answers_site.query.head
        finalize_positions = [
            schema.index(variable) for variable in finalize.head
        ]
    else:
        return FALLBACK_NO_STATE
    if len(answers_site.merged) != len(execution.answers):
        return FALLBACK_NO_STATE
    answers_site.answer_rows = execution.answers

    state = RetainedState(
        version=version,
        plan=plan,
        relation_map=relation_map,
        backend=backend,
        pools=pools,
        views=views,
        view_rounds=view_rounds,
        collect=collect,
        finalize_positions=finalize_positions,
        report_rounds=tuple(execution.report.rounds),
        input_bits=execution.report.input_bits,
        step_bits=compute_step_bits(plan, snapshot, relation_map),
    )
    state.recount_bytes()
    return state


class IvmStore:
    """LRU store of retained states under a byte budget.

    The budget is the subsystem's RSS ceiling: adding or growing a
    state evicts least-recently-used states until the total fits, and
    a state that alone exceeds the budget is not retained at all.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ValueError(f"need max_bytes >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._states: OrderedDict[Any, RetainedState] = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._states)

    @property
    def total_bytes(self) -> int:
        """Current retained bytes across every state."""
        return sum(state.nbytes for state in self._states.values())

    def get(self, variant: Any) -> RetainedState | None:
        state = self._states.get(variant)
        if state is not None:
            self._states.move_to_end(variant)
        return state

    def put(self, variant: Any, state: RetainedState) -> bool:
        """Retain a state; False when the budget rejected it."""
        self._states.pop(variant, None)
        if state.nbytes > self.max_bytes:
            self._shrink()
            return False
        self._states[variant] = state
        self._shrink()
        return variant in self._states

    def discard(self, variant: Any) -> None:
        self._states.pop(variant, None)

    def clear(self) -> None:
        self._states.clear()

    def resized(self, variant: Any) -> bool:
        """Re-apply the budget after a state grew in place."""
        state = self._states.get(variant)
        if state is None:
            return False
        self._states.move_to_end(variant)
        if state.nbytes > self.max_bytes:
            del self._states[variant]
            self.evictions += 1
            return False
        self._shrink()
        return variant in self._states

    def _shrink(self) -> None:
        while self.total_bytes > self.max_bytes and self._states:
            self._states.popitem(last=False)
            self.evictions += 1
