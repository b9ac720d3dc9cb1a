"""Per-request deadlines: cooperative cancellation, precedence, reuse.

The hardening contract (ISSUE 8): a ``deadline_ms`` budget is checked
only at cooperative points (between rounds, between streamed blocks,
at service entry), raises a structured
:class:`~repro.engine.deadline.DeadlineExceeded`, loses to capacity
when a round does both, beats every cached outcome when already spent
at entry -- and never corrupts the pooled simulators: the request
after a deadline overrun answers bit-identically to a fresh session.
"""

from __future__ import annotations

import pytest

from repro import connect
from repro.core.query import parse_query
from repro.data.matching import matching_database
from repro.engine.deadline import Deadline, DeadlineExceeded
from repro.engine.faults import BLOCK_DELAY_ENV, ROUND_DELAY_ENV
from repro.serve.service import QueryService

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")
TRIANGLE = "S1(x,y), S2(y,z), S3(z,x)"
# 60 answers on the n=60 matching database (the triangle has 1).
PATH = "S1(x,y), S2(y,z)"


def _database(n=60):
    return matching_database(VOCAB, n=n, rng=7)


class _FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadlineObject:
    def test_budget_accounting_on_a_fake_clock(self):
        clock = _FakeClock()
        deadline = Deadline(250.0, clock=clock)
        assert deadline.remaining_ms() == 250.0
        assert not deadline.expired
        clock.advance(0.1)
        assert deadline.elapsed_ms() == pytest.approx(100.0)
        assert deadline.remaining_ms() == pytest.approx(150.0)
        deadline.check("early")  # plenty left: no raise
        clock.advance(0.2)
        assert deadline.expired
        assert deadline.remaining_ms() == 0.0  # clamped, never negative
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("late")
        assert excinfo.value.where == "late"
        assert excinfo.value.budget_ms == 250.0
        assert excinfo.value.elapsed_ms == pytest.approx(300.0)

    def test_exact_boundary_counts_as_expired(self):
        clock = _FakeClock()
        clock.now = 0.0
        deadline = Deadline(125.0, clock=clock)
        clock.advance(0.125)  # binary-exact: elapsed is exactly 125 ms
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.check("boundary")

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5)

    def test_after_ms_passes_none_through(self):
        assert Deadline.after_ms(None) is None
        deadline = Deadline.after_ms(50)
        assert deadline is not None and deadline.budget_ms == 50.0

    def test_pickle_roundtrip_preserves_fields(self):
        import pickle

        error = DeadlineExceeded("between rounds", 123.4, 100.0)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.where == "between rounds"
        assert clone.elapsed_ms == 123.4
        assert clone.budget_ms == 100.0


class TestCooperativeCancellation:
    def test_deadline_fires_between_rounds(self, monkeypatch):
        # The injected per-round delay makes the fast triangle query
        # reliably slower than a 10 ms budget; the first between-round
        # checkpoint (after the injected sleep) observes the overrun.
        monkeypatch.setenv(ROUND_DELAY_ENV, "50")
        session = connect(_database(), p=8)
        try:
            with pytest.raises(DeadlineExceeded) as excinfo:
                session.execute(TRIANGLE, deadline_ms=10)
            assert excinfo.value.where == "between rounds"
            assert excinfo.value.budget_ms == 10.0
        finally:
            session.close()

    def test_deadline_fires_mid_round_between_streamed_blocks(
        self, monkeypatch
    ):
        pytest.importorskip("numpy")
        # Small blocks + an injected per-block delay: the budget runs
        # out *inside* an open round's block loop -- the mid-round
        # half of cooperative cancellation.
        monkeypatch.setenv(BLOCK_DELAY_ENV, "30")
        session = connect(
            _database(), p=8, backend="numpy", chunk_rows=16
        )
        try:
            with pytest.raises(DeadlineExceeded) as excinfo:
                session.execute(TRIANGLE, deadline_ms=20)
            assert excinfo.value.where == "streamed block"
        finally:
            session.close()

    def test_no_deadline_is_unaffected_by_checks(self):
        session = connect(_database(), p=8)
        try:
            result = session.execute(PATH)
            assert len(result.answers) == 60
        finally:
            session.close()

    def test_rejects_non_positive_deadline(self):
        session = connect(_database(), p=8)
        try:
            with pytest.raises(ValueError):
                session.query(TRIANGLE, deadline_ms=0)
            with pytest.raises(ValueError):
                session.query(TRIANGLE, deadline_ms=-10)
        finally:
            session.close()

    def test_deadline_ms_is_part_of_the_coalescing_key(self):
        session = connect(_database(), p=8)
        try:
            plain = session.query(TRIANGLE)
            bounded = session.query(TRIANGLE, deadline_ms=100)
            assert plain.canonical_key() != bounded.canonical_key()
            assert (
                session.query(TRIANGLE, deadline_ms=100).canonical_key()
                == bounded.canonical_key()
            )
        finally:
            session.close()


class TestPrecedence:
    def test_capacity_beats_deadline_when_a_round_does_both(self):
        from repro.mpc.simulator import CapacityExceeded

        # A stepped clock makes the budget expire *during* the round
        # that overflows: construction (call 1), the service-entry
        # check (2) and the between-rounds check before the round (3)
        # all see 0 elapsed; any later look would see 10 s.  The
        # deadline is never consulted at round close, so the capacity
        # failure wins deterministically.
        times = iter([0.0, 0.0, 0.0])
        clock = lambda: next(times, 10.0)  # noqa: E731
        service = QueryService(
            _database(), p=8, capacity_c=0.001, enforce_capacity=True
        )
        deadline = Deadline(5.0, clock=clock)
        with pytest.raises(CapacityExceeded):
            service.execute(TRIANGLE, deadline=deadline)
        assert deadline.expired  # both conditions really held

    def test_expired_budget_at_entry_beats_cached_capacity_failure(
        self,
    ):
        from repro.mpc.simulator import CapacityExceeded

        clock = _FakeClock()
        service = QueryService(
            _database(), p=8, capacity_c=0.001, enforce_capacity=True
        )
        # Memoize the capacity failure in the result cache.
        with pytest.raises(CapacityExceeded):
            service.execute(TRIANGLE)
        # An already-expired budget must win over the cached
        # outcome -- checked before the result cache is consulted.
        expired = Deadline(10.0, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            service.execute(TRIANGLE, deadline=expired)
        assert excinfo.value.where == "at service entry"
        assert service.stats.deadline_exceeded == 1

    def test_deadline_outcome_is_never_cached(self, monkeypatch):
        monkeypatch.setenv(ROUND_DELAY_ENV, "30")
        service = QueryService(_database(), p=8)
        with pytest.raises(DeadlineExceeded):
            service.execute(PATH, deadline=Deadline(1.0))
        executions = service.stats.executions
        monkeypatch.delenv(ROUND_DELAY_ENV)
        # The same statement with a fresh budget executes for real
        # (no memoized DeadlineExceeded) and succeeds.
        result = service.execute(PATH, deadline=Deadline(60000))
        assert len(result.answers) == 60
        assert service.stats.executions == executions + 1


class TestSimulatorReuseParity:
    def test_answers_bit_identical_after_a_deadline_overrun(
        self, monkeypatch
    ):
        """The parity gate: an abandoned execution corrupts nothing.

        After a DeadlineExceeded mid-plan, the same session answers
        the identical query exactly like a session that never saw the
        overrun -- same answers, same per-server loads.
        """
        reference = connect(_database(), p=8)
        try:
            expected = reference.execute(PATH)
        finally:
            reference.close()

        session = connect(_database(), p=8, result_cache_size=0)
        try:
            monkeypatch.setenv(ROUND_DELAY_ENV, "30")
            with pytest.raises(DeadlineExceeded):
                session.execute(PATH, deadline_ms=1)
            monkeypatch.delenv(ROUND_DELAY_ENV)
            after = session.execute(PATH)
            assert after.answers == expected.answers
            assert after.raw.per_server == expected.raw.per_server
            # And again, to prove the pooled simulator stays healthy.
            assert session.execute(PATH).answers == expected.answers
        finally:
            session.close()

    def test_streamed_overrun_leaves_the_pool_reusable(
        self, monkeypatch
    ):
        pytest.importorskip("numpy")
        reference = connect(_database(), p=8, backend="numpy")
        try:
            expected = reference.execute(PATH)
        finally:
            reference.close()

        session = connect(
            _database(),
            p=8,
            backend="numpy",
            chunk_rows=16,
            result_cache_size=0,
        )
        try:
            monkeypatch.setenv(BLOCK_DELAY_ENV, "30")
            with pytest.raises(DeadlineExceeded):
                session.execute(PATH, deadline_ms=20)
            monkeypatch.delenv(BLOCK_DELAY_ENV)
            after = session.execute(PATH)
            assert after.answers == expected.answers
        finally:
            session.close()
