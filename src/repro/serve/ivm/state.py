"""Retained routed state: what a full execution leaves behind for IVM.

The MPC model routes by tuple *content* (a ``HashRoute`` destination
depends only on the row's values), so the per-worker fragments a full
execution delivered stay valid under a delta except for exactly the
routed images of the changed rows.  This module captures that state
once per full execution -- each mailbox key's delivery pool, each
site's per-worker answer counts and merged table, and the run's round
statistics -- so :mod:`repro.serve.ivm.merge` can later patch it with
a routed delta instead of re-executing the plan.

Nothing is derived a second time.  A pool is the very
:class:`~repro.mpc.simulator.ColumnPool` still sitting in the
execution's simulator (each execution builds its own); a merge that
patches a worker's fragment lays the patched columns over that
worker's slice (:attr:`RetainedState.patched`) and leaves the pool as
it is.  Each site's counts and merged table -- and a permuted
``FinalizeView``'s answer table -- are what local evaluation produced,
taken by reference from :attr:`PlanExecution.site_answers
<repro.engine.executor.PlanExecution.site_answers>` and
``execution.table``.  An execution with a multi-block (recipe)
delivery records no site answers and retains nothing; a chunked one
whose sources each fit in one block is captured like any other.

What capture checks costs microseconds: one report round per plan
round, a complete ``p``-worker pool behind every mailbox key a site
reads, and that every site's answers are disjoint across workers (its
counts sum to its merged table's length) -- the property the merge's
per-worker delta rule rests on.  Any failure retains nothing, so the
next delta falls back to full re-execution.  Re-joining every worker's
retained fragments is the oracle ``tests/serve/test_ivm_capture.py``
holds a captured state to.
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
from repro.mpc.simulator import ColumnPool
from repro.mpc.stats import RoundStats

from .policy import (
    FALLBACK_HEAVY_BINDING,
    FALLBACK_NO_STATE,
    FALLBACK_OVERLAP,
    FALLBACK_STREAMED,
)


def columns_nbytes(columns: tuple) -> int:
    """Bytes of a fragment's column arrays."""
    return sum(int(column.nbytes) for column in columns)


@dataclass
class SiteState:
    """One evaluation site: a materialised view or answer collection.

    Attributes:
        name: view name, or None for the ``CollectAnswers`` site.
        query: the site's full conjunctive query.
        keys: atom name -> mailbox key the atom reads.
        counts: answer counts of the workers evaluating the site.
            They sum to ``len(merged)``: no answer sits on two workers.
        merged: the canonical merged table -- lex-sorted unique rows.
    """

    name: str | None
    query: ConjunctiveQuery
    keys: dict[str, str]
    counts: list[int]
    merged: Any


@dataclass
class RetainedState:
    """Everything IVM retains from one full plan execution.

    The answers are the answer site's merged table, except that a
    ``FinalizeView`` permuting its view's columns keeps them, in head
    order, as ``projected``.
    """

    version: int
    plan: Plan
    relation_map: dict[str, str]
    #: mailbox key -> the execution's delivery pool, ``p`` workers.
    pools: dict[str, ColumnPool]
    views: dict[str, SiteState]
    collect: SiteState | None
    report_rounds: tuple[RoundStats, ...]
    step_bits: dict[tuple[int, int], int]
    projected: Any = None
    #: The execution's bound heavy sets (all empty, or None when the
    #: plan binds none); a merge serves them as a full run would.
    heavy_hitters: dict[str, frozenset[int]] | None = None
    #: ``(mailbox key, worker)`` -> the fragment merges patched, as
    #: int64 columns; it replaces that worker's slice of the pool.
    patched: dict[tuple[str, int], tuple] = field(default_factory=dict)
    #: The ``AnswerViews`` a run at ``version`` served in plan head order.
    answers: Any = None
    #: Bytes of the fragments served and the tables kept
    #: (:meth:`recount_bytes`); merges keep it current.
    table_bytes: int = 0
    #: Bytes of the reply counted last: built when counted, or the one
    #: the last merge derives its reply from.
    reply_bytes: int = 0

    @property
    def nbytes(self) -> int:
        """The retained-byte estimate the store budgets."""
        return self.table_bytes + self.reply_bytes

    def fragment(self, key: str, worker: int) -> tuple:
        """One worker's fragment of a mailbox key, as int64 columns."""
        fragment = self.patched.get((key, worker))
        if fragment is None:
            return self.pools[key].worker_slice(worker)
        return fragment

    def sites(self) -> list[SiteState]:
        """Every retained site: views, then the collect site."""
        return list(self.views.values()) + (
            [self.collect] if self.collect is not None else []
        )

    def recount_bytes(self) -> int:
        """Recompute (and store) the retained-byte estimate.

        A patched fragment counts instead of the pool slice it
        replaces, though the pool keeps that slice allocated.  A reply
        counts once built.
        """
        total = sum(
            columns_nbytes(pool.columns) for pool in self.pools.values()
        )
        for (key, worker), fragment in self.patched.items():
            total += columns_nbytes(fragment) - columns_nbytes(
                self.pools[key].worker_slice(worker)
            )
        total += sum(int(site.merged.nbytes) for site in self.sites())
        if self.projected is not None:
            total += int(self.projected.nbytes)
        self.table_bytes = total
        self.reply_bytes = (
            0 if self.answers is None else self.answers.nbytes
        )
        return self.nbytes


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
    some site (some delivery was a multi-block recipe; materialising
    recipes here would recreate the memory cliff streaming exists to
    avoid), ``overlapping-answers`` when some site's worker answers
    are not disjoint, ``heavy-binding`` when the execution bound a
    heavy value (its routing read data statistics, so a delta's routed
    image is not the delta's own), ``no-retained-state`` when the
    simulator no longer holds a complete pool for every needed key --
    either way the next delta simply falls back to full re-execution.
    """
    simulator = execution.simulator
    p = plan.signature.p
    relation_map = dict(relation_map or {})
    if len(execution.report.rounds) != len(plan.rounds):
        return FALLBACK_NO_STATE
    if any((execution.heavy_hitters or {}).values()):
        return FALLBACK_HEAVY_BINDING

    sites = plan_sites(plan)
    recorded = execution.site_answers or {}
    if any(name not in recorded for name, _, _ in sites):
        return FALLBACK_STREAMED
    needed_keys = dict.fromkeys(
        key_map_of(key_map)(atom.name)
        for _, query, key_map in sites
        for atom in query.atoms
    )

    pools: dict[str, ColumnPool] = {}
    for key in needed_keys:
        pool = simulator.relation_pool(key)
        if pool is None or pool.num_workers != p:
            return FALLBACK_NO_STATE
        pools[key] = pool

    views: dict[str, SiteState] = {}
    collect: SiteState | None = None
    for name, query, key_map in sites:
        key_of = key_map_of(key_map)
        site = SiteState(
            name=name,
            query=query,
            keys={atom.name: key_of(atom.name) for atom in query.atoms},
            counts=list(recorded[name].counts),
            merged=recorded[name].merged,
        )
        if sum(site.counts) != len(site.merged):
            return FALLBACK_OVERLAP
        if name is None:
            collect = site
        else:
            views[name] = site

    finalize = plan.finalize
    projected = None
    if isinstance(finalize, FinalizeView):
        if finalize.head != views[finalize.view].query.head:
            projected = execution.table
    elif not isinstance(finalize, CollectAnswers):
        return FALLBACK_NO_STATE

    state = RetainedState(
        version=version,
        plan=plan,
        relation_map=relation_map,
        pools=pools,
        views=views,
        collect=collect,
        report_rounds=tuple(execution.report.rounds),
        step_bits=compute_step_bits(plan, snapshot, relation_map),
        projected=projected,
        heavy_hitters=execution.heavy_hitters,
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
