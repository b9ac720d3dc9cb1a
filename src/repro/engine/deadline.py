"""Per-request deadlines with cooperative cancellation.

The paper's model bounds per-round *load*; a serving layer must also
bound per-request *latency*.  A :class:`Deadline` is a monotonic-clock
budget created when a request starts executing and threaded through
:func:`~repro.engine.executor.execute_plan` into the round engines.
Execution checks it cooperatively at the natural safe points --
between rounds, before every routed block, between local-evaluation
shards -- and raises a structured :class:`DeadlineExceeded` carrying
where the budget ran out.

Cancellation is cooperative on purpose: the engine is never interrupted
mid-primitive, so an abandoned execution leaves its simulator in the
same "mid-run" state a :class:`~repro.mpc.simulator.CapacityExceeded`
does.  Every execution builds its own simulator, so the abandoned one
is simply dropped and the next request starts clean.

Error precedence is deterministic: capacity is evaluated when a round
closes, the deadline between rounds/blocks/shards.  A round that both
overflows a worker and overruns the budget therefore always raises
``CapacityExceeded`` (the round-close check runs first); a budget that
is already spent when a request enters the service raises
``DeadlineExceeded`` before any cached outcome -- including a memoized
``CapacityExceeded`` -- is consulted.
"""

from __future__ import annotations

import time
from typing import Callable


class DeadlineExceeded(Exception):
    """A request's latency budget ran out at a cooperative checkpoint.

    Attributes:
        where: the checkpoint that observed the overrun (e.g.
            ``"between rounds"``, ``"streamed block"``).
        elapsed_ms: milliseconds elapsed when the check fired.
        budget_ms: the request's total budget in milliseconds.
    """

    def __init__(
        self, where: str, elapsed_ms: float, budget_ms: float
    ) -> None:
        super().__init__(
            f"deadline of {budget_ms:.0f} ms exceeded after "
            f"{elapsed_ms:.1f} ms ({where})"
        )
        self.where = where
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms


class Deadline:
    """A monotonic latency budget checked at cooperative points.

    Args:
        budget_ms: total budget in milliseconds, counted from
            construction.
        clock: seconds-returning monotonic clock (tests inject a fake
            one to make expiry deterministic).
    """

    __slots__ = ("budget_ms", "_clock", "_started")

    def __init__(
        self,
        budget_ms: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not budget_ms > 0:  # NaN too: it would never expire
            raise ValueError(f"need budget_ms > 0, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self._started = clock()

    @classmethod
    def after_ms(cls, budget_ms: float | None) -> "Deadline | None":
        """A deadline from an optional wire/API budget (None passes)."""
        if budget_ms is None:
            return None
        return cls(budget_ms)

    def elapsed_ms(self) -> float:
        """Milliseconds since the budget started."""
        return (self._clock() - self._started) * 1000.0

    @property
    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.elapsed_ms() >= self.budget_ms

    def check(self, where: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed_ms()
        if elapsed >= self.budget_ms:
            raise DeadlineExceeded(where, elapsed, self.budget_ms)
