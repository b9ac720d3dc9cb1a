"""The IVM cost gate: when to merge a delta, when to fall back.

Incremental maintenance is only correct for plans whose routing is a
pure function of tuple content (the property the source paper's model
guarantees for HyperCube-style hash routing) and only *profitable*
when the delta is small relative to the base.  ``IvmPolicy`` encodes
both as named fallback reasons, surfaced verbatim through
``ServiceStats``, ``explain()`` and ``/metrics`` so an operator can
see why a workload is not incrementalising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.data.columnar import ColumnarDatabase
from repro.data.versioned import ComposedDelta
from repro.engine.plan import CollectAnswers, FinalizeView, Plan
from repro.engine.faults import worker_death_after

if TYPE_CHECKING:
    from .state import RetainedState

# Plan-shape reasons (decided once per plan).
FALLBACK_NO_FINALIZE = "no-finalize"
FALLBACK_HEAVY_BINDING = "heavy-binding"
FALLBACK_NON_SHARDABLE = "non-shardable-step"
FALLBACK_MULTI_WRITER = "multi-writer-mailbox"

# No state to merge into: never captured, evicted, over budget -- or
# the capture declined, for the named reason where there is one.
FALLBACK_NO_STATE = "no-retained-state"
FALLBACK_STREAMED = "streamed-deliveries"

# Per-merge reasons (decided per delta).
FALLBACK_HISTORY_GAP = "history-gap"
FALLBACK_BITS_CHANGED = "bits-changed"
FALLBACK_DELTA_TOO_LARGE = "delta-too-large"
FALLBACK_FAULTS_ACTIVE = "faults-active"


def step_writers(plan: Plan) -> dict[str, list[tuple[int, int]]]:
    """mailbox key -> every ``(round, step)`` that delivers into it."""
    writers: dict[str, list[tuple[int, int]]] = {}
    for round_index, plan_round in enumerate(plan.rounds):
        for step_index, step in enumerate(plan_round.steps):
            writers.setdefault(step.mailbox_key, []).append(
                (round_index, step_index)
            )
    return writers


@dataclass(frozen=True)
class IvmPolicy:
    """Tunable gates of the incremental path.

    Attributes:
        max_delta_fraction: merge only when the composed delta's
            changed-row count is at most this fraction of the plan's
            base rows; beyond it, routing the delta approaches the
            cost of routing the base and full re-execution wins.
        max_bytes: byte budget for all retained state (the RSS
            ceiling enforced by :class:`~repro.serve.ivm.state.
            IvmStore`).
    """

    max_delta_fraction: float = 0.25
    max_bytes: int = 64 << 20

    def plan_fallback_reason(self, plan: Plan) -> str | None:
        """Why this plan can never be incrementally maintained
        (None when it can)."""
        if not isinstance(plan.finalize, (CollectAnswers, FinalizeView)):
            return FALLBACK_NO_FINALIZE
        for plan_round in plan.rounds:
            if plan_round.bind_heavy is not None:
                # Heavy-hitter binding makes routing depend on data
                # statistics, not just tuple content.
                return FALLBACK_HEAVY_BINDING
            for step in plan_round.steps:
                if not step.shardable:
                    return FALLBACK_NON_SHARDABLE
        for key, writers in step_writers(plan).items():
            if len(writers) > 1:
                # A fragment fed by several steps cannot be patched
                # per step without multiplicity tracking.
                return FALLBACK_MULTI_WRITER
        return None

    def merge_fallback_reason(
        self,
        state: RetainedState,
        composed: ComposedDelta | None,
        snapshot: ColumnarDatabase,
    ) -> str | None:
        """Why this particular delta should not be merged
        (None when the merge may proceed)."""
        if worker_death_after() is not None:
            # Under the worker-death fault drill the serving layer is
            # already degrading; take the well-trodden full path.
            return FALLBACK_FAULTS_ACTIVE
        if composed is None:
            return FALLBACK_HISTORY_GAP
        if composed.bits_changed:
            # Per-tuple bit accounting moved; every retained round
            # statistic would need re-derivation from scratch.
            return FALLBACK_BITS_CHANGED
        base_names = {
            state.relation_map.get(name, name)
            for name in state.plan.relations()
        }
        changed = sum(
            len(composed.added.get(name, ())) +
            len(composed.removed.get(name, ()))
            for name in base_names
        )
        base_rows = sum(
            len(snapshot[name]) for name in base_names if name in snapshot
        )
        if changed > self.max_delta_fraction * max(base_rows, 1):
            return FALLBACK_DELTA_TOO_LARGE
        return None
