"""Admission control: the bounded queue and per-client token buckets."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.admission import (
    AdmissionQueue,
    ServerOverloaded,
    TokenBucket,
)


def run(coroutine):
    return asyncio.run(coroutine)


class TestAdmissionQueue:
    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)
        with pytest.raises(ValueError):
            AdmissionQueue(1, max_queue=-1)

    def test_admits_up_to_max_inflight(self):
        async def body():
            queue = AdmissionQueue(2, max_queue=0)
            await queue.acquire()
            await queue.acquire()
            assert queue.inflight == 2
            with pytest.raises(ServerOverloaded) as excinfo:
                await queue.acquire()
            assert excinfo.value.reason == "queue_full"
            assert queue.stats.admitted == 2
            assert queue.stats.shed == 1
            queue.release()
            await queue.acquire()  # a freed slot admits again
            assert queue.stats.admitted == 3

        run(body())

    def test_waiters_are_granted_fifo(self):
        async def body():
            queue = AdmissionQueue(1, max_queue=2)
            await queue.acquire()
            order = []

            async def waiter(tag):
                await queue.acquire()
                order.append(tag)

            first = asyncio.create_task(waiter("first"))
            await asyncio.sleep(0)
            second = asyncio.create_task(waiter("second"))
            await asyncio.sleep(0)
            assert queue.queued == 2
            with pytest.raises(ServerOverloaded):
                await queue.acquire()  # queue full: third waiter shed
            queue.release()
            await first
            assert order == ["first"]
            queue.release()
            await second
            assert order == ["first", "second"]
            assert queue.inflight == 1  # hand-offs never double-count
            assert queue.stats.peak_queued == 2

        run(body())

    def test_cancelled_waiter_leaves_without_a_slot(self):
        async def body():
            queue = AdmissionQueue(1, max_queue=2)
            await queue.acquire()

            doomed = asyncio.create_task(queue.acquire())
            survivor_done = asyncio.Event()

            async def survivor():
                await queue.acquire()
                survivor_done.set()

            await asyncio.sleep(0)
            alive = asyncio.create_task(survivor())
            await asyncio.sleep(0)
            assert queue.queued == 2
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            assert queue.queued == 1
            # The freed slot goes to the survivor, not the ghost.
            queue.release()
            await asyncio.wait_for(survivor_done.wait(), timeout=5)
            await alive
            assert queue.inflight == 1

        run(body())

    def test_cancellation_racing_a_grant_passes_the_slot_on(self):
        async def body():
            queue = AdmissionQueue(1, max_queue=2)
            await queue.acquire()

            doomed = asyncio.create_task(queue.acquire())
            granted = asyncio.Event()

            async def survivor():
                await queue.acquire()
                granted.set()

            await asyncio.sleep(0)
            alive = asyncio.create_task(survivor())
            await asyncio.sleep(0)
            # Grant the doomed waiter's future, then cancel it before
            # its coroutine resumes: the slot must pass to the
            # survivor instead of leaking.
            queue.release()
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            await asyncio.wait_for(granted.wait(), timeout=5)
            await alive
            assert queue.inflight == 1
            assert queue.queued == 0

        run(body())

    def test_release_with_no_waiters_frees_the_slot(self):
        async def body():
            queue = AdmissionQueue(1, max_queue=0)
            await queue.acquire()
            queue.release()
            assert queue.inflight == 0

        run(body())


class TestTokenBucket:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 1)
        with pytest.raises(ValueError):
            TokenBucket(1, 0.5)

    def test_burst_then_refill_on_a_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # burst spent
        # Half a second refills one token at 2/s.
        now[0] = 0.5
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_reports_the_refill_time(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=lambda: now[0])
        assert bucket.retry_after_ms() == 0.0
        assert bucket.try_acquire()
        # One token at 2/s is 500 ms away.
        assert bucket.retry_after_ms() == pytest.approx(500.0)
        now[0] = 0.25
        assert bucket.retry_after_ms() == pytest.approx(250.0)

    def test_bucket_never_exceeds_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: now[0])
        now[0] = 100.0  # a long idle must not bank extra tokens
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_overloaded_error_carries_the_hint(self):
        error = ServerOverloaded("quota", 125.0)
        assert error.reason == "quota"
        assert error.retry_after_ms == 125.0
        assert "125 ms" in str(error)
