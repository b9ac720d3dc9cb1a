"""Incremental view maintenance for the serving layer.

After an ``apply_delta``, the service normally cold-starts: every
per-version cache misses and the next request re-routes and re-joins
the whole database.  This package serves that request by routing
**only the delta** through the plan's own routing steps and merging
with retained per-worker state -- exploiting the source paper's core
structural property that MPC routing is a pure function of tuple
content, so a delta's routed image is independent of the rest of the
input.

Components:

- :mod:`~repro.serve.ivm.state` -- retention of the routed state a
  full execution already computed (per-worker fragments, per-site
  answer tables, round stats), taken by reference, under an LRU byte
  budget.
- :mod:`~repro.serve.ivm.merge` -- the semi-naive delta merge that
  produces bit-identical answers, loads and ``CapacityExceeded``
  versus full re-execution.
- :mod:`~repro.serve.ivm.policy` -- the cost gate with named fallback
  reasons.

:class:`IvmManager` is the facade :class:`~repro.serve.service.
QueryService` drives: ``capture`` after every full execution,
``serve`` on a result-cache miss after a delta.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.data.versioned import VersionedDatabase
from repro.engine.deadline import Deadline
from repro.engine.executor import PlanExecution
from repro.engine.plan import Plan

from .merge import MergeCapacity, MergeSuccess, merge_state
from .policy import FALLBACK_HISTORY_GAP, FALLBACK_NO_STATE, IvmPolicy
from .state import IvmStore, RetainedState, capture_state

__all__ = [
    "IvmManager",
    "IvmPolicy",
    "IvmStore",
    "MergeCapacity",
    "MergeSuccess",
    "RetainedState",
    "capture_state",
    "merge_state",
]


class IvmManager:
    """Drives capture, gating and merging for one service.

    Not thread-safe on its own; the owning service already serialises
    execution per request under its lock.
    """

    def __init__(self, policy: IvmPolicy | None = None) -> None:
        self.policy = policy or IvmPolicy()
        self.store = IvmStore(max_bytes=self.policy.max_bytes)
        #: fallback reason -> occurrences, for observability surfaces.
        self.fallback_reasons: Counter[str] = Counter()
        self._plan_reasons: dict[Any, str | None] = {}
        #: variant -> why its last capture retained nothing.
        self._declined: dict[Any, str] = {}

    @property
    def retained_bytes(self) -> int:
        """Bytes currently held by retained state."""
        return self.store.total_bytes

    @property
    def retained_states(self) -> int:
        """Number of retained (plan variant) states."""
        return len(self.store)

    def _plan_reason(self, plan: Plan) -> str | None:
        key = plan.signature.cache_key
        if key not in self._plan_reasons:
            self._plan_reasons[key] = self.policy.plan_fallback_reason(
                plan
            )
            if len(self._plan_reasons) > 4096:
                self._plan_reasons.clear()
        return self._plan_reasons[key]

    def capture(
        self,
        variant: Any,
        plan: Plan,
        execution: PlanExecution,
        relation_map: dict[str, str] | None,
        version: int,
        database: VersionedDatabase,
    ) -> bool:
        """Retain a full execution's routed state (best effort)."""
        if self._plan_reason(plan) is not None:
            return False
        state = capture_state(
            plan, execution, relation_map, version, database.snapshot
        )
        if isinstance(state, str):
            if len(self._declined) >= 4096:
                self._declined.clear()
            self._declined[variant] = state
            return False
        self._declined.pop(variant, None)
        return self.store.put(variant, state)

    def serve(
        self,
        variant: Any,
        plan: Plan,
        version: int,
        database: VersionedDatabase,
        deadline: Deadline | None = None,
    ) -> MergeSuccess | MergeCapacity | str:
        """Try to serve a post-delta request incrementally.

        Returns a :class:`MergeSuccess`, a :class:`MergeCapacity`
        (both bit-identical to full re-execution), or the fallback
        reason string when the full path must run instead.  A
        ``DeadlineExceeded`` propagates with retained state intact.
        """
        reason = self._plan_reason(plan)
        if reason is not None:
            self.fallback_reasons[reason] += 1
            return reason
        state = self.store.get(variant)
        if state is None or state.version > version:
            reason = self._declined.get(variant, FALLBACK_NO_STATE)
            self.fallback_reasons[reason] += 1
            return reason
        composed = database.delta_between(state.version, version)
        if composed is None:
            # The gap never heals (history is bounded); free the bytes.
            self.store.discard(variant)
            self.fallback_reasons[FALLBACK_HISTORY_GAP] += 1
            return FALLBACK_HISTORY_GAP
        reason = self.policy.merge_fallback_reason(
            state, composed, database.snapshot
        )
        if reason is not None:
            self.fallback_reasons[reason] += 1
            return reason
        result = merge_state(
            state, composed, database.snapshot, deadline=deadline
        )
        if isinstance(result, MergeSuccess):
            # The state may have grown past the budget; re-check.
            self.store.resized(variant)
        return result

    def fast_forward(self, old_version: int, new_version: int) -> None:
        """Advance every state pinned at ``old_version`` across a
        no-op version bump (contents identical by definition)."""
        for state in list(self.store._states.values()):
            if state.version == old_version:
                state.version = new_version

    def clear(self) -> None:
        """Drop all retained state (e.g. service close)."""
        self.store.clear()
        self._plan_reasons.clear()
        self._declined.clear()
