"""Semi-naive delta merging against retained routed state.

The merge replays a plan's rounds over *only the changed rows*:

1. Each round's steps route the delta of their source -- base-relation
   deltas from the database's provenance records, view deltas computed
   by the previous rounds of this same merge -- and patch the touched
   workers' fragments.
2. Round loads are patched arithmetically: a worker's received bits
   move by exactly ``(inserted - deleted) * bits_per_tuple`` per step,
   so the synthesised :class:`~repro.mpc.stats.RoundStats` are
   bit-identical to what a full re-execution would report, and the
   capacity check (against the *new* input size) raises the identical
   :class:`~repro.mpc.simulator.CapacityExceeded` a full run would.
3. Each site applies the delta rule at every touched worker ``w``::

       lost_w   = U_i Q(old_1 .. removed_i,w .. old_n)
       gained_w = U_i Q(new_1 .. added_i,w  .. new_n)

   one join per atom ``i`` with a delta at ``w``
   (:func:`delta_answers`).  Site queries are full, so an answer fixes
   the tuple it takes from each atom, and effective deltas make the
   rule exact.  Routing is a function of content, so every worker
   holding a lost answer is touched; each answer sits on one worker
   (checked at capture and after every refresh: the counts sum to the
   merged table's length), so the workers' deltas are disjoint.  They
   are spliced straight into the merged table, and a worker's count
   moves by ``len(gained_w) - len(lost_w)``.  A view's delta reaches
   the next round's routing as lists of ints.
4. The answer table's splice leaves with the previous reply's JSON,
   if built: the new reply is derived from those bytes
   (:func:`~repro.serve.service.splice_answers`), not re-encoded.

All patches accumulate in temporaries and commit only on success: a
deadline expiring mid-merge (or a synthesised capacity error) leaves
the retained state exactly as it was, reusable by the next request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

import numpy

from repro.algorithms.localjoin import evaluate_query_table
from repro.core.query import ConjunctiveQuery
from repro.data.columnar import (
    ColumnarDatabase,
    absent_rows,
    insert_rows,
    remove_rows,
    sorted_unique_rows,
)
from repro.data.versioned import DeltaRecord
from repro.engine.deadline import Deadline
from repro.engine.executor import plan_config
from repro.engine.plan import CollectAnswers, FinalizeView
from repro.mpc.simulator import CapacityExceeded
from repro.mpc.stats import RoundStats, SimulationReport

from .policy import FALLBACK_OVERLAP
from .state import RetainedState, SiteState, columns_nbytes

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
    #: answer table ``old`` is ``table``; ``reply`` is ``old``'s JSON
    #: and its row edges (None when not kept), if the JSON was built.
    splice: tuple[Any, Any, Any]
    reply: tuple[bytes, Any] | None
    heavy_hitters: dict[str, frozenset[int]] | None = None


@dataclass(frozen=True)
class MergeCapacity:
    """The post-delta load exceeds capacity; nothing was committed.

    ``error`` is bit-identical (message and fields) to the
    :class:`CapacityExceeded` a full re-execution would raise.
    """

    error: CapacityExceeded
    input_bits: int


def _route_delta(step, rows: Rows, p: int) -> dict[int, Any]:
    """Route delta rows through a step's own destination function.

    Steps of an eligible plan route by tuple content alone (the
    one index-routed step, the round-robin grid, belongs to the
    cartesian plan, which has no finalize and never merges), so
    routing the delta in isolation lands every copy on exactly the
    workers the full input's routing would.  Returns each
    receiving worker's rows as one int64 table.
    """
    by_worker: dict[int, list] = {}
    for index, row in enumerate(rows):
        for worker in step.destinations(row, index, p):
            by_worker.setdefault(worker, []).append(row)
    return {
        worker: numpy.array(routed, dtype=numpy.int64)
        for worker, routed in by_worker.items()
    }


def _patch_fragment(columns: tuple, removed: Any, added: Any) -> tuple:
    """``(fragment - removed) + added`` over a fragment's columns.

    Routed images of effective deltas make both sides exact: every
    removed row is present, no added row is (content routing is a
    function, and the relation-level delta is effective).
    """
    if removed is not None:
        kept = absent_rows(
            numpy.column_stack(columns), sorted_unique_rows(removed)
        )
        columns = tuple(kept.T)
    if added is not None:
        columns = tuple(
            numpy.concatenate([column, added[:, position]])
            for position, column in enumerate(columns)
        )
    return tuple(numpy.ascontiguousarray(column) for column in columns)


def delta_answers(
    query: ConjunctiveQuery,
    fragments: Mapping[str, tuple],
    deltas: Mapping[str, Any],
) -> Any:
    """``U_i Q(fragments with atom i's replaced by deltas[i])``.

    The answers of a full query that take at least one of their tuples
    from a delta: one join per atom with a delta (``deltas`` maps atom
    name to an int64 row table), deduplicated only when more than one
    join contributes.  With the pre-delta fragments and the removed
    rows these are the answers lost; with the post-delta fragments
    and the added rows, the answers gained.
    """
    terms = []
    for atom, rows in deltas.items():
        answers = evaluate_query_table(
            query,
            {**fragments, atom: tuple(rows.T.copy())},
            assume_unique=True,
        )
        if len(answers):
            terms.append(answers)
    if not terms:
        return numpy.zeros((0, len(query.head)), dtype=numpy.int64)
    if len(terms) == 1:
        return terms[0]
    return sorted_unique_rows(numpy.concatenate(terms))


class _Refreshed(NamedTuple):
    """A site after the delta rule: its new counts and merged table,
    the rows that table lost, and its splice (as :class:`MergeSuccess`
    states it, ``fresh`` the rows gained)."""

    counts: list[int]
    merged: Any
    lost: Any
    removed_at: Any
    inserted_at: Any
    fresh: Any


def merge_state(
    state: RetainedState,
    composed: DeltaRecord,
    snapshot: ColumnarDatabase,
    deadline: Deadline | None = None,
) -> MergeSuccess | MergeCapacity | str:
    """Merge a composed delta into retained state.

    On success the state is committed forward to
    ``composed.new_version`` and the outcome returned; on a capacity
    overflow nothing is committed and the synthesised error returned.
    When a site's worker answers turn out to overlap, nothing is
    committed and ``overlapping-answers`` is returned: the state can
    no longer be merged into.  A
    :class:`~repro.engine.deadline.DeadlineExceeded` propagates with
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
    patched_fragments: dict[tuple[str, int], tuple] = {}
    #: mailbox key -> worker -> its routed ``(removed, added)`` rows,
    #: each an int64 table or None.
    routed: dict[str, dict[int, tuple[Any, Any]]] = {}
    refreshed: dict[str | None, _Refreshed] = {}
    new_rounds: list[RoundStats] = []

    def refresh_site(site: SiteState) -> bool:
        """Apply the delta rule at the site's touched workers (if any)
        into ``refreshed``; False when the counts stop summing to the
        merged table's length."""
        touched: set[int] = set()
        for key in site.keys.values():
            touched.update(routed.get(key, ()))
        touched = sorted(w for w in touched if w < len(site.counts))
        if not touched:
            return True
        counts = list(site.counts)
        lost_parts, gained_parts = [], []
        for worker in touched:
            old, new, removed, added = {}, {}, {}, {}
            for atom, key in site.keys.items():
                old[atom] = state.fragment(key, worker)
                new[atom] = patched_fragments.get((key, worker), old[atom])
                gone, came = routed.get(key, {}).get(worker, (None, None))
                if gone is not None:
                    removed[atom] = gone
                if came is not None:
                    added[atom] = came
            lost_parts.append(delta_answers(site.query, old, removed))
            gained_parts.append(delta_answers(site.query, new, added))
            counts[worker] += len(gained_parts[-1]) - len(lost_parts[-1])
        lost = numpy.concatenate(lost_parts)
        kept, removed_at = remove_rows(site.merged, lost)
        merged, fresh, inserted_at = insert_rows(
            kept, [numpy.concatenate(gained_parts)]
        )
        refreshed[site.name] = _Refreshed(
            counts, merged, lost, removed_at, inserted_at, fresh
        )
        return sum(counts) == len(merged)

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
                by_worker = routed.setdefault(key, {})
                for worker in set(routed_added) | set(routed_removed):
                    gone = routed_removed.get(worker)
                    came = routed_added.get(worker)
                    by_worker[worker] = (gone, came)
                    patched_fragments[(key, worker)] = _patch_fragment(
                        state.fragment(key, worker), gone, came
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
        for view in plan_round.views:
            if not refresh_site(state.views[view.name]):
                return FALLBACK_OVERLAP
            done = refreshed.get(view.name)
            if done is not None and (len(done.fresh) or len(done.lost)):
                pending[view.name] = (
                    done.fresh.tolist(), done.lost.tolist()
                )

    if deadline is not None:
        deadline.check("ivm finalize")

    finalize = plan.finalize
    if isinstance(finalize, CollectAnswers):
        site = state.collect
        assert site is not None
        if not refresh_site(site):
            return FALLBACK_OVERLAP
    else:
        assert isinstance(finalize, FinalizeView)
        site = state.views[finalize.view]
    done = refreshed.get(site.name)
    if done is None:  # the delta never reached the answers
        unmoved = numpy.zeros(0, dtype=numpy.intp)
        none = site.merged[:0]
        done = _Refreshed(
            site.counts, site.merged, none, unmoved, unmoved, none
        )
    table = done.merged
    splice = (done.removed_at, done.inserted_at, done.fresh)
    per_server = ()
    if isinstance(finalize, CollectAnswers):
        per_server = tuple(done.counts) + (0,) * (p - len(done.counts))
    elif state.projected is not None:
        # A permuted finalize keeps its head-order table current.
        # The head permutes the view's columns, so projecting is a
        # bijection and the view's delta is the table's.
        positions = [site.query.head.index(v) for v in finalize.head]
        kept, removed = remove_rows(state.projected, done.lost[:, positions])
        table, fresh, inserted_at = insert_rows(
            kept, [done.fresh[:, positions]]
        )
        splice = (removed, inserted_at, fresh)

    view_sizes = {
        name: len(refreshed[name].merged if name in refreshed else view.merged)
        for name, view in state.views.items()
    }

    # Commit: the merge succeeded end to end.
    moved_bytes = 0
    for (key, worker), fragment in patched_fragments.items():
        moved_bytes += columns_nbytes(fragment) - columns_nbytes(
            state.fragment(key, worker)
        )
        state.patched[(key, worker)] = fragment
    for name, done in refreshed.items():
        target = state.collect if name is None else state.views[name]
        moved_bytes += int(done.merged.nbytes) - int(target.merged.nbytes)
        target.counts = done.counts
        target.merged = done.merged
    if state.projected is not None:
        moved_bytes += int(table.nbytes) - int(state.projected.nbytes)
        state.projected = table
    state.report_rounds = tuple(new_rounds)
    state.version = composed.new_version
    previous, state.answers = state.answers, None
    reply = None
    if previous is not None and previous.encoded is not None:
        reply = (previous.encoded, previous.row_edges)
    # Counted with the reply the next one derives from.
    state.table_bytes += moved_bytes
    state.reply_bytes = 0 if previous is None else previous.nbytes

    return MergeSuccess(
        table=table,
        per_server=per_server,
        report=SimulationReport(
            input_bits=new_input_bits, rounds=list(new_rounds)
        ),
        view_sizes=view_sizes,
        splice=splice,
        reply=reply,
        heavy_hitters=state.heavy_hitters,
    )
