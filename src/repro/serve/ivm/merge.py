"""Semi-naive delta merging against retained routed state.

The merge replays a plan's rounds over *only the changed rows*:

1. Each round's steps route the delta of their source -- base-relation
   deltas from the database's provenance records, view deltas computed
   by the previous rounds of this same merge (the semi-naive cascade
   ``delta(R join S) = dR join S + R join dS + dR join dS``, realised
   here as "patch the fragments, re-join only the affected workers").
2. Round loads are patched arithmetically: a worker's received bits
   move by exactly ``(inserted - deleted) * bits_per_tuple`` per step,
   so the synthesised :class:`~repro.mpc.stats.RoundStats` are
   bit-identical to what a full re-execution would report, and the
   capacity check (against the *new* input size) raises the identical
   :class:`~repro.mpc.simulator.CapacityExceeded` a full run would.
3. Workers whose fragments changed re-join locally; only their old
   and new answer tables are diffed, for inserts and deletes alike.
   Gained rows are spliced into the merged table, and a lost row
   leaves it unless an untouched worker still holds it: the same
   duplicate-free union full execution performs, bit-identical by
   construction.  Rows stay int64 tables throughout; a view's delta
   reaches the next round's routing as lists of ints.
4. The answer table's splice leaves with the previous reply's JSON,
   if built: the new reply is derived from those bytes
   (:func:`~repro.serve.service.splice_answers`), not re-encoded.

All patches accumulate in temporaries and commit only on success: a
deadline expiring mid-merge (or a synthesised capacity error) leaves
the retained state exactly as it was, reusable by the next request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy

from repro.algorithms.localjoin import evaluate_query_table
from repro.data.columnar import (
    ColumnarDatabase,
    absent_rows,
    insert_rows,
    locate_rows,
    remove_rows,
    sorted_unique_rows,
)
from repro.data.versioned import DeltaRecord
from repro.engine.deadline import Deadline
from repro.engine.executor import plan_config
from repro.engine.local import union_answer_tables
from repro.engine.plan import CollectAnswers, FinalizeView
from repro.mpc.simulator import CapacityExceeded
from repro.mpc.stats import RoundStats, SimulationReport

from .state import RetainedState, SiteState

Rows = Sequence[Sequence[int]]


@dataclass(frozen=True)
class MergeSuccess:
    """A committed merge: the full-recompute-identical outcome
    (``table`` as a full execution's ``PlanExecution.table``)."""

    table: Any
    per_server: tuple[int, ...]
    report: SimulationReport
    view_sizes: dict[str, int]
    #: ``(removed, inserted_at, rows)``: ``numpy.insert(numpy.delete(
    #: old, removed, 0), inserted_at, rows, 0)`` of the previous
    #: answer table ``old`` is ``table``; ``reply`` is ``old``'s JSON.
    splice: tuple[Any, Any, Any]
    reply: bytes | None


@dataclass(frozen=True)
class MergeCapacity:
    """The post-delta load exceeds capacity; nothing was committed.

    ``error`` is bit-identical (message and fields) to the
    :class:`CapacityExceeded` a full re-execution would raise.
    """

    error: CapacityExceeded
    input_bits: int


def _route_delta(step, rows: Rows, p: int) -> dict[int, list]:
    """Route delta rows through a step's own destination function.

    Shardable steps route by tuple content alone (the eligibility
    gate), so routing the delta in isolation lands every copy on
    exactly the workers the full input's routing would.
    """
    by_worker: dict[int, list] = {}
    for index, row in enumerate(rows):
        for worker in step.destinations(row, index, p):
            by_worker.setdefault(worker, []).append(row)
    return by_worker


def _patch_fragment(columns: tuple, removed: Rows, added: Rows) -> tuple:
    """``(fragment - removed) + added`` over a fragment's columns.

    Routed images of effective deltas make both sides exact: every
    removed row is present, no added row is (content routing is a
    function, and the relation-level delta is effective).
    """
    table = numpy.column_stack(columns)
    if removed:
        gone = sorted_unique_rows(numpy.array(removed, dtype=numpy.int64))
        table = absent_rows(table, gone)
    if added:
        table = numpy.concatenate(
            [table, numpy.array(added, dtype=numpy.int64)]
        )
    return tuple(numpy.ascontiguousarray(column) for column in table.T)


def merge_state(
    state: RetainedState,
    composed: DeltaRecord,
    snapshot: ColumnarDatabase,
    deadline: Deadline | None = None,
) -> MergeSuccess | MergeCapacity:
    """Merge a composed delta into retained state.

    On success the state is committed forward to
    ``composed.new_version`` and the outcome returned; on a capacity
    overflow nothing is committed and the synthesised error returned.
    A :class:`~repro.engine.deadline.DeadlineExceeded` propagates with
    the state untouched.

    Eligibility (plan shape, history coverage, unchanged bit widths,
    delta size) must have been established by
    :class:`~repro.serve.ivm.policy.IvmPolicy` beforehand.
    """
    plan = state.plan
    p = plan.signature.p
    config = plan_config(plan)
    new_input_bits = snapshot.total_bits
    capacity = config.capacity_bits(new_input_bits)

    # Source deltas in plan-name space; view deltas join as rounds
    # complete (the semi-naive cascade).
    pending: dict[str, tuple[Rows, Rows]] = {}
    for name in plan.relations():
        db_name = state.relation_map.get(name, name)
        added = tuple(sorted(composed.added.get(db_name, ())))
        removed = tuple(sorted(composed.removed.get(db_name, ())))
        if added or removed:
            pending[name] = (added, removed)

    # Temporaries; committed only on success.
    patched_fragments: dict[tuple[str, int], object] = {}
    patched_tables: dict[tuple[str | None, int], object] = {}
    patched_merged: dict[str | None, object] = {}
    affected: dict[str, set[int]] = {}
    #: Refreshed site -> its merged table's lost rows and splice.
    spliced: dict[str | None, tuple[Any, Any, Any, Any]] = {}
    new_rounds: list[RoundStats] = []

    def fragment_of(key: str, worker: int):
        fragment = patched_fragments.get((key, worker))
        if fragment is None:
            fragment = state.pools[key][worker]
        return fragment

    def refresh_site(site: SiteState) -> tuple[Rows, Rows] | None:
        """Re-join the site's affected workers.

        Returns the ``(added, removed)`` delta of the site's merged
        table, or None when no worker was affected.  Only the touched
        workers' old and new tables are diffed: a row they gained
        joins the merged table (if no worker held it already), and a
        row they lost leaves it unless an untouched worker still holds
        it.  Nothing guarantees worker tables are disjoint, so the
        untouched workers' rows are probed into the lost rows (those
        are sorted; worker tables need not be).
        """
        arity = len(site.query.head)
        touched = set()
        for key in site.keys.values():
            touched |= affected.get(key, set())
        touched = sorted(w for w in touched if w < site.workers)
        if not touched:
            return None
        for worker in touched:
            fragments = {
                atom_name: fragment_of(key, worker)
                for atom_name, key in site.keys.items()
            }
            # Fragments are sets by construction (content routing
            # never delivers a row twice to one worker).
            patched_tables[(site.name, worker)] = evaluate_query_table(
                site.query, fragments, assume_unique=True
            )
        old = [site.tables[worker] for worker in touched]
        new = [patched_tables[(site.name, worker)] for worker in touched]
        before = union_answer_tables(old, arity)
        after = union_answer_tables(new, arity)
        # One probe diffs both ways: the rows of ``after`` found in
        # ``before`` are the rows both hold.
        positions, kept = locate_rows(before, after)
        gained = after[~kept]
        lost = numpy.delete(before, positions[kept], axis=0)
        if len(lost):
            others = [t for w, t in enumerate(site.tables) if w not in touched]
            positions, held = locate_rows(
                lost, numpy.concatenate([lost[:0]] + others)
            )
            lost = numpy.delete(lost, positions[held], axis=0)
        kept, removed = remove_rows(site.merged, lost)
        merged, fresh, inserted_at = insert_rows(kept, [gained])
        patched_merged[site.name] = merged
        spliced[site.name] = (lost, removed, inserted_at, fresh)
        return fresh.tolist(), lost.tolist()

    for round_index, plan_round in enumerate(plan.rounds):
        if deadline is not None:
            deadline.check("ivm merge")
        old_stats = state.report_rounds[round_index]
        bits_delta = [0] * p
        tuples_delta = [0] * p
        for step_index, step in enumerate(plan_round.steps):
            added, removed = pending.get(step.relation, ((), ()))
            if not added and not removed:
                continue
            per_tuple = state.step_bits[(round_index, step_index)]
            key = step.mailbox_key
            routed_added = _route_delta(step, added, p)
            routed_removed = _route_delta(step, removed, p)
            for worker, rows in routed_added.items():
                bits_delta[worker] += len(rows) * per_tuple
                tuples_delta[worker] += len(rows)
            for worker, rows in routed_removed.items():
                bits_delta[worker] -= len(rows) * per_tuple
                tuples_delta[worker] -= len(rows)
            if key in state.pools:
                workers = set(routed_added) | set(routed_removed)
                affected.setdefault(key, set()).update(workers)
                for worker in sorted(workers):
                    patched_fragments[(key, worker)] = _patch_fragment(
                        fragment_of(key, worker),
                        routed_removed.get(worker, []),
                        routed_added.get(worker, []),
                    )
        new_bits = tuple(
            old + delta
            for old, delta in zip(old_stats.received_bits, bits_delta)
        )
        new_tuples = tuple(
            old + delta
            for old, delta in zip(
                old_stats.received_tuples, tuples_delta
            )
        )
        if plan.signature.enforce_capacity:
            # Identical scan order to MPCSimulator.end_round: workers
            # ascending, first overflow wins, round stats not closed.
            for worker, bits in enumerate(new_bits):
                if bits > capacity:
                    return MergeCapacity(
                        error=CapacityExceeded(
                            worker, bits, capacity, round_index + 1
                        ),
                        input_bits=new_input_bits,
                    )
        new_rounds.append(
            RoundStats(
                round_index=round_index + 1,
                received_bits=new_bits,
                received_tuples=new_tuples,
                capacity_bits=capacity,
            )
        )
        for view_name in state.view_rounds[round_index]:
            site = state.views[view_name]
            moved = refresh_site(site)
            if moved is None:
                pending.pop(view_name, None)
                continue
            added_v, removed_v = moved
            if added_v or removed_v:
                pending[view_name] = (added_v, removed_v)
            else:
                pending.pop(view_name, None)

    if deadline is not None:
        deadline.check("ivm finalize")

    finalize = plan.finalize
    if isinstance(finalize, CollectAnswers):
        site = state.collect
        assert site is not None
        refresh_site(site)
    else:
        assert isinstance(finalize, FinalizeView)
        site = state.views[finalize.view]
    table = patched_merged.get(site.name, site.merged)
    unmoved = numpy.zeros(0, dtype=numpy.intp)
    lost, *splice = spliced.get(
        site.name, (table[:0], unmoved, unmoved, table[:0])
    )
    per_server = ()
    if isinstance(finalize, CollectAnswers):
        per_server = tuple(
            len(patched_tables.get((site.name, worker), table))
            for worker, table in enumerate(site.tables)
        ) + (0,) * (p - site.workers)
    elif state.projected is not None:
        # A permuted finalize keeps its head-order table current.
        # The head permutes the view's columns, so projecting is a
        # bijection and the view's delta is the table's.
        positions = [site.query.head.index(v) for v in finalize.head]
        kept, removed = remove_rows(state.projected, lost[:, positions])
        table, fresh, inserted_at = insert_rows(
            kept, [splice[2][:, positions]]
        )
        splice = [removed, inserted_at, fresh]

    view_sizes = {
        name: len(patched_merged.get(name, view.merged))
        for name, view in state.views.items()
    }

    # Commit: the merge succeeded end to end.
    for (key, worker), fragment in patched_fragments.items():
        state.pools[key][worker] = fragment
    for (name, worker), worker_table in patched_tables.items():
        target = state.collect if name is None else state.views[name]
        target.tables[worker] = worker_table
    for name, merged_table in patched_merged.items():
        target = state.collect if name is None else state.views[name]
        target.merged = merged_table
    if state.projected is not None:
        state.projected = table
    state.report_rounds = tuple(new_rounds)
    state.input_bits = new_input_bits
    state.version = composed.new_version
    state.recount_bytes()  # with the reply the next one derives from
    previous, state.answers = state.answers, None

    return MergeSuccess(
        table=table,
        per_server=per_server,
        report=SimulationReport(
            input_bits=new_input_bits, rounds=list(new_rounds)
        ),
        view_sizes=view_sizes,
        splice=tuple(splice),
        reply=None if previous is None else previous.encoded,
    )
