"""Admission control for the RPC front end: shed load, don't queue it.

The source paper bounds what one *round* may deliver to a worker; a
production front end must additionally bound what one *server* may
hold in flight.  Without a bound, an open-loop overload (clients
sending faster than the service drains) grows the asyncio task set
and its pending result payloads without limit -- latency of every
admitted request climbs, then memory goes.  The fix is the classic
one: a small bounded queue in front of the executor, everything
beyond it rejected *immediately* with a structured
:class:`ServerOverloaded` the client can back off on.

Two mechanisms, composed by :class:`~repro.serve.rpc.RpcServer`:

* :class:`AdmissionQueue` -- at most ``max_inflight`` requests
  executing plus ``max_queue`` waiting; the next one is shed.
  Waiters are granted slots FIFO, and a waiter whose client
  disconnects leaves the queue without consuming one.
* :class:`TokenBucket` -- per-client request quotas (sustained
  rate + burst), keyed by connection or by the optional wire-level
  ``client_id``, so one chatty client cannot starve the rest of the
  admission queue.

Both are plain asyncio-single-threaded state: every write happens on
the server's event loop, so no locks are needed (the stats views only
read the counters, from the server's control thread).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.serve.metrics import counter, gauge


class ServerOverloaded(Exception):
    """The server shed this request instead of queueing it.

    Attributes:
        reason: ``"queue_full"`` (admission queue at capacity) or
            ``"quota"`` (the client's token bucket is empty).
        retry_after_ms: a client backoff hint -- how long until a
            retry has a chance (best effort; 0 means "immediately
            after an inflight request finishes").
    """

    def __init__(self, reason: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(
            f"server overloaded ({reason}); retry after "
            f"{retry_after_ms:.0f} ms"
        )
        self.reason = reason
        self.retry_after_ms = retry_after_ms


@dataclass
class AdmissionStats:
    """Lifetime counters of one admission queue."""

    stats_section = "admission"

    admitted: int = counter(
        "admission_admitted_total", "Queries granted an execution slot."
    ).field()
    shed: int = counter(
        "admission_shed_total", "Queries shed because the queue was full."
    ).field()
    peak_inflight: int = gauge(
        "admission_peak_inflight", "Most queries ever executing at once."
    ).field()
    peak_queued: int = gauge(
        "admission_peak_queued", "Most queries ever waiting at once."
    ).field()


class AdmissionQueue:
    """A bounded FIFO admission gate for one event loop.

    Args:
        max_inflight: requests allowed to execute concurrently.
        max_queue: requests allowed to wait for a slot; the
            ``max_queue + 1``-th waiter is shed with
            :class:`ServerOverloaded` instead of queued.
    """

    stats_section = "admission"
    max_inflight = gauge(
        "admission_limit_inflight",
        "Configured max_inflight (0 = admission control off).",
    )
    max_queue = gauge("admission_limit_queue", "Configured max_queue.")

    def __init__(self, max_inflight: int, max_queue: int = 0) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"need max_inflight >= 1, got {max_inflight}"
            )
        if max_queue < 0:
            raise ValueError(f"need max_queue >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.stats = AdmissionStats()
        self._inflight = 0
        self._waiters: deque[asyncio.Future] = deque()

    @gauge(
        "admission_enabled",
        "Whether admission control is on (1 = yes).",
        zero=False,
    )
    def enabled(self) -> bool:
        """True: a server without admission control has no queue."""
        return True

    @gauge(
        "admission_inflight", "Queries currently holding an execution slot."
    )
    def inflight(self) -> int:
        """Requests currently holding an execution slot."""
        return self._inflight

    @gauge(
        "admission_queued", "Queries currently waiting for an execution slot."
    )
    def queued(self) -> int:
        """Requests currently waiting for a slot."""
        return len(self._waiters)

    async def acquire(self) -> None:
        """Take an execution slot, waiting in the bounded queue.

        Raises:
            ServerOverloaded: the queue is full; nothing was consumed.
        """
        if self._inflight < self.max_inflight:
            self._inflight += 1
            self.stats.admitted += 1
            self.stats.peak_inflight = max(
                self.stats.peak_inflight, self._inflight
            )
            return
        if len(self._waiters) >= self.max_queue:
            self.stats.shed += 1
            raise ServerOverloaded("queue_full")
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        self._waiters.append(future)
        self.stats.peak_queued = max(
            self.stats.peak_queued, len(self._waiters)
        )
        try:
            await future
        except asyncio.CancelledError:
            if future.done() and not future.cancelled():
                # The slot was granted concurrently with the
                # cancellation (client vanished as its turn came up):
                # hand it straight to the next waiter.
                self.release()
            else:
                try:
                    self._waiters.remove(future)
                except ValueError:
                    pass
            raise
        # A granted waiter inherits the releaser's slot: inflight was
        # never decremented on that hand-off.
        self.stats.admitted += 1

    def release(self) -> None:
        """Return a slot; the oldest live waiter (if any) inherits it."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self._inflight -= 1


class TokenBucket:
    """A per-client request-rate quota (sustained rate plus burst).

    Args:
        rate: tokens replenished per second (the sustained
            requests/second allowance).
        burst: bucket capacity (back-to-back requests allowed after
            idling).
        clock: monotonic seconds source (tests inject a fake).
    """

    __slots__ = ("rate", "burst", "_clock", "_tokens", "_updated")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"need rate > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"need burst >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._updated) * self.rate
        )
        self._updated = now

    def try_acquire(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available; False means shed."""
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    def retry_after_ms(self, cost: float = 1.0) -> float:
        """Milliseconds until ``cost`` tokens will be available."""
        self._refill()
        missing = cost - self._tokens
        if missing <= 0:
            return 0.0
        return missing / self.rate * 1000.0
