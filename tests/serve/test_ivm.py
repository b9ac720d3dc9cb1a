"""Incremental view maintenance: parity, fallbacks, failure modes.

The acceptance bar of the subsystem: a request served by a delta
merge is *bit-identical* to the full re-execution it replaced --
answers, per-server loads, per-round statistics, view sizes, and
``CapacityExceeded`` behaviour -- across algorithms, backends and
delta shapes.  Everything the merge cannot guarantee that for falls
back to the full path, for a named reason.
"""

from __future__ import annotations

import pytest

from repro.backend import numpy_available
from repro.core.query import parse_query
from repro.data.columnar import ColumnarRelation
from repro.data.matching import matching_database
from repro.data.versioned import (
    DELTA_HISTORY_LIMIT,
    DatabaseDelta,
    VersionedDatabase,
)
from repro.engine.deadline import Deadline, DeadlineExceeded
from repro.mpc.simulator import CapacityExceeded
from repro.serve import QueryService
from repro.engine.faults import WORKER_DEATH_ENV

BACKENDS = ["pure"] + (["numpy"] if numpy_available() else [])

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")

TRIANGLE = "S1(x,y), S2(y,z), S3(z,x)"
TWO_HOP = "S1(x,y), S2(y,z)"


def _database(n=40, rng=7):
    return matching_database(VOCAB, n=n, rng=rng)


def _pair(backend, algorithm="hypercube", n=40, rng=7, **kwargs):
    """Two services over identical data: IVM on, IVM off (control)."""
    served = QueryService(
        _database(n=n, rng=rng),
        p=8,
        backend=backend,
        algorithm=algorithm,
        **kwargs,
    )
    control = QueryService(
        _database(n=n, rng=rng),
        p=8,
        backend=backend,
        algorithm=algorithm,
        ivm=False,
        **kwargs,
    )
    return served, control


def _fresh_rows(service, relation, count, avoid=()):
    """``count`` absent rows of ``relation`` within the domain."""
    present = set(service.database[relation].rows()) | set(avoid)
    domain = service.database.domain_size
    rows = []
    for a in range(1, domain + 1):
        for b in range(1, domain + 1):
            if (a, b) not in present:
                rows.append((a, b))
                if len(rows) == count:
                    return rows
    raise AssertionError("domain exhausted")


def _assert_parity(served, control):
    assert served.answers == control.answers
    assert served.per_server == control.per_server
    assert served.report.input_bits == control.report.input_bits
    assert len(served.report.rounds) == len(control.report.rounds)
    for mine, theirs in zip(served.report.rounds, control.report.rounds):
        assert mine.round_index == theirs.round_index
        assert mine.received_bits == theirs.received_bits
        assert mine.received_tuples == theirs.received_tuples
        assert mine.capacity_bits == theirs.capacity_bits
    assert served.view_sizes == control.view_sizes


def _apply_both(served, control, **delta):
    version = served.update(**delta)
    assert control.update(**delta) == version
    return version


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ["hypercube", "multiround"])
class TestMergeParity:
    """Merged answers are bit-identical to full re-execution."""

    def _prime(self, backend, algorithm, query=TRIANGLE):
        served, control = _pair(backend, algorithm)
        _assert_parity(
            served.execute(query), control.execute(query)
        )
        return served, control

    def test_insert_only_delta(self, backend, algorithm):
        served, control = self._prime(backend, algorithm)
        rows = _fresh_rows(served, "S1", 3)
        _apply_both(served, control, inserts={"S1": rows})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_delete_only_delta(self, backend, algorithm):
        served, control = self._prime(backend, algorithm)
        victims = list(served.database["S2"].rows())[:4]
        _apply_both(served, control, deletes={"S2": victims})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_mixed_delta_across_relations(self, backend, algorithm):
        served, control = self._prime(backend, algorithm)
        rows = _fresh_rows(served, "S1", 2)
        victims = list(served.database["S3"].rows())[:2]
        _apply_both(
            served,
            control,
            inserts={"S1": rows},
            deletes={"S3": victims},
        )
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_consecutive_deltas_merge_cumulatively(
        self, backend, algorithm
    ):
        served, control = self._prime(backend, algorithm)
        for step in range(3):
            rows = _fresh_rows(served, "S1", 1)
            _apply_both(served, control, inserts={"S1": rows})
            mine = served.execute(TRIANGLE)
            assert mine.ivm == "merged"
            _assert_parity(mine, control.execute(TRIANGLE))
        assert served.stats.ivm_hits == 3
        assert served.stats.ivm_fallbacks == 0

    def test_merge_skipping_versions(self, backend, algorithm):
        # Two deltas, no execution in between: one composed merge.
        served, control = self._prime(backend, algorithm)
        rows = _fresh_rows(served, "S1", 2)
        _apply_both(served, control, inserts={"S1": rows})
        _apply_both(served, control, deletes={"S1": rows[:1]})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_merged_result_is_cached(self, backend, algorithm):
        served, control = self._prime(backend, algorithm)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        first = served.execute(TRIANGLE)
        repeat = served.execute(TRIANGLE)
        assert first.ivm == "merged" and not first.result_hit
        assert repeat.result_hit and repeat.ivm is None
        assert repeat.answers == first.answers


@pytest.mark.parametrize("backend", BACKENDS)
class TestFallbacks:
    """Named reasons; the full path still answers correctly."""

    def test_skew_aware_plans_fall_back(self, backend):
        served, control = _pair(backend, algorithm="skewaware")
        served.execute(TWO_HOP)
        control.execute(TWO_HOP)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        mine = served.execute(TWO_HOP)
        assert mine.ivm == "heavy-binding"
        assert served.stats.ivm_fallbacks == 1
        _assert_parity(mine, control.execute(TWO_HOP))

    def test_delta_fraction_gate(self, backend):
        served, control = _pair(
            backend, ivm_max_delta_fraction=0.0
        )
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "delta-too-large"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_domain_growth_falls_back(self, backend):
        served, control = _pair(backend)
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        grown = served.database.domain_size + 50
        _apply_both(served, control, inserts={"S1": [(grown, 1)]})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "bits-changed"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_history_gap_discards_state(self, backend):
        served, _ = _pair(backend)
        served.execute(TRIANGLE)
        assert served.ivm_retained_states == 1
        for _ in range(DELTA_HISTORY_LIMIT + 2):
            served.apply_delta(DatabaseDelta.of())
        # Empty deltas fast-forward instead of gapping; force a gap
        # with effective deltas beyond the history window.
        for step in range(DELTA_HISTORY_LIMIT + 2):
            served.update(inserts={"S1": _fresh_rows(served, "S1", 1)})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "history-gap"
        assert served.ivm.fallback_reasons["history-gap"] == 1
        # The gapped state was freed, and the full execution that
        # answered re-captured fresh state at the current version.
        served.update(inserts={"S1": _fresh_rows(served, "S1", 1)})
        assert served.execute(TRIANGLE).ivm == "merged"

    def test_worker_death_drill_degrades_cleanly(
        self, backend, monkeypatch
    ):
        served, control = _pair(backend)
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 2)},
        )
        monkeypatch.setenv(WORKER_DEATH_ENV, "1")
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "faults-active"
        _assert_parity(mine, control.execute(TRIANGLE))
        # Drill over: the next delta merges again.
        monkeypatch.delenv(WORKER_DEATH_ENV)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_byte_budget_rejects_capture(self, backend):
        served, control = _pair(backend, ivm_max_bytes=1)
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        assert served.ivm_retained_states == 0
        assert served.ivm_retained_bytes == 0
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "no-retained-state"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_ivm_disabled_reports_nothing(self, backend):
        service = QueryService(_database(), p=8, backend=backend, ivm=False)
        service.execute(TRIANGLE)
        service.update(inserts={"S1": _fresh_rows(service, "S1", 1)})
        result = service.execute(TRIANGLE)
        assert result.ivm is None
        assert service.ivm is None
        assert service.ivm_retained_bytes == 0
        assert service.stats.ivm_hits == 0

    @pytest.mark.skipif(
        not numpy_available(), reason="chunked routing is numpy-only"
    )
    def test_chunked_execution_is_not_captured(self, backend):
        if backend != "numpy":
            pytest.skip("chunked routing is numpy-only")
        served, control = _pair(backend, chunk_rows=8)
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        assert served.ivm_retained_states == 0
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "streamed-deliveries"
        assert served.ivm.fallback_reasons == {"streamed-deliveries": 1}
        _assert_parity(mine, control.execute(TRIANGLE))
        # The remembered reason goes when the store is cleared; the
        # fallback execution that then answers declines afresh.
        served.ivm.clear()
        for expected in ("no-retained-state", "streamed-deliveries"):
            _apply_both(
                served,
                control,
                inserts={"S1": _fresh_rows(served, "S1", 1)},
            )
            mine = served.execute(TRIANGLE)
            assert mine.ivm == expected
            _assert_parity(mine, control.execute(TRIANGLE))


def _skewed_database(backend, extra=()):
    # All the join traffic concentrates on y=1's worker; the ballast
    # rows (y in 2..4, joining nothing) land elsewhere, so capacity
    # (a function of *total* input) sits above the hot worker's load
    # until a skewed insert pushes it over.
    ballast = [(5 + j % 3, 30 + j) for j in range(16)]
    rows_s1 = [(i, 1) for i in range(1, 17)] + list(extra)
    rows_s2 = [(1, i) for i in range(1, 17)] + ballast
    return VersionedDatabase(
        {
            "S1": ColumnarRelation.from_rows(
                "S1", rows_s1, domain_size=64, backend=backend
            ),
            "S2": ColumnarRelation.from_rows(
                "S2", rows_s2, domain_size=64, backend=backend
            ),
        },
        backend=backend,
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestCapacityParity:
    """A merged overflow is the identical CapacityExceeded."""

    def _pair(self, backend, capacity_c):
        common = dict(
            p=4,
            backend=backend,
            capacity_c=capacity_c,
            enforce_capacity=True,
        )
        served = QueryService(_skewed_database(backend), **common)
        control = QueryService(
            _skewed_database(backend), ivm=False, **common
        )
        return served, control

    SKEW = tuple((20 + i, 1) for i in range(4))

    def _calibrate(self, backend):
        """A capacity constant the base data fits under but the skew
        insert overflows: probe both datasets unenforced and place
        the ceiling between their peak-load-to-capacity ratios."""
        ratios = []
        for extra in ((), self.SKEW):
            probe = QueryService(
                _skewed_database(backend, extra=extra),
                p=4,
                backend=backend,
                enforce_capacity=False,
            )
            stats = probe.execute(TWO_HOP).report.rounds[0]
            ratios.append(max(stats.received_bits) / stats.capacity_bits)
        base_ratio, skew_ratio = ratios
        assert skew_ratio > base_ratio, "skew must concentrate load"
        return probe.capacity_c * (base_ratio + skew_ratio) / 2

    def test_identical_capacity_exceeded(self, backend):
        capacity_c = self._calibrate(backend)
        served, control = self._pair(backend, capacity_c)
        assert served.execute(TWO_HOP).answers == control.execute(
            TWO_HOP
        ).answers
        skew = list(self.SKEW)  # all onto one worker
        _apply_both(served, control, inserts={"S1": skew})
        with pytest.raises(CapacityExceeded) as control_error:
            control.execute(TWO_HOP)
        with pytest.raises(CapacityExceeded) as served_error:
            served.execute(TWO_HOP)
        assert served.stats.ivm_hits == 1  # the merge *did* serve
        for attr in (
            "worker",
            "received_bits",
            "capacity_bits",
            "round_index",
        ):
            assert getattr(served_error.value, attr) == getattr(
                control_error.value, attr
            )
        assert str(served_error.value) == str(control_error.value)

    def test_capacity_failure_is_cached_and_state_survives(
        self, backend
    ):
        capacity_c = self._calibrate(backend)
        served, control = self._pair(backend, capacity_c)
        served.execute(TWO_HOP)
        control.execute(TWO_HOP)
        skew = list(self.SKEW)
        _apply_both(served, control, inserts={"S1": skew})
        with pytest.raises(CapacityExceeded) as first:
            served.execute(TWO_HOP)
        with pytest.raises(CapacityExceeded) as cached:
            served.execute(TWO_HOP)
        assert str(cached.value) == str(first.value)
        assert served.stats.executions == 2  # base run + one merge
        # Nothing was committed: deleting the skew heals the worker
        # and the same retained state serves the recovery merge.
        _apply_both(served, control, deletes={"S1": skew})
        mine = served.execute(TWO_HOP)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TWO_HOP))


class _SteppingClock:
    """A fake monotonic clock advancing a fixed step per reading."""

    def __init__(self, step_s):
        self.now = 0.0
        self.step_s = step_s

    def __call__(self):
        reading = self.now
        self.now += self.step_s
        return reading


@pytest.mark.parametrize("backend", BACKENDS)
class TestDeadlineMidMerge:
    def test_expiry_mid_merge_leaves_state_reusable(self, backend):
        served, control = _pair(backend)
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 2)},
        )
        # Clock readings: construction (0s), entry check (1s), then
        # the merge's cooperative checks at 2s, 3s, ...  A 2.5s budget
        # passes entry and the first round, then trips inside the
        # merge -- after fragments were patched in temporaries.
        deadline = Deadline(2500.0, clock=_SteppingClock(1.0))
        exhausted = served.stats.deadline_exceeded
        with pytest.raises(DeadlineExceeded) as error:
            served.execute(TRIANGLE, deadline=deadline)
        assert "ivm" in error.value.where
        assert served.stats.deadline_exceeded == exhausted + 1
        # Nothing committed: the same retained state serves the next
        # (unbudgeted) request, bit-identically.
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))


@pytest.mark.parametrize("backend", BACKENDS)
class TestNoopChaining:
    """Empty deltas chain caches instead of orphaning them."""

    def test_result_cache_survives_empty_update(self, backend):
        service = QueryService(_database(), p=8, backend=backend)
        first = service.execute(TRIANGLE)
        version = service.apply_delta(DatabaseDelta.of())
        repeat = service.execute(TRIANGLE)
        assert repeat.result_hit
        assert repeat.version == version
        assert repeat.answers == first.answers
        assert service.stats.executions == 1

    def test_ineffective_delta_also_chains(self, backend):
        service = QueryService(_database(), p=8, backend=backend)
        service.execute(TRIANGLE)
        existing = next(iter(service.database["S1"].rows()))
        service.update(
            inserts={"S1": [existing]},
            deletes={"S1": [(9999, 9999)]},
        )
        assert service.execute(TRIANGLE).result_hit
        assert service.stats.executions == 1

    def test_retained_state_fast_forwards(self, backend):
        served, control = _pair(backend)
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        served.apply_delta(DatabaseDelta.of())
        control.apply_delta(DatabaseDelta.of())
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))


L4 = "S1(a,b), S2(b,c), S3(c,d), S4(d,e)"


def _count_calls(monkeypatch, target):
    """Spy on the dotted ``module.attribute``; returns its call log."""
    from importlib import import_module

    module_name, attribute = target.rsplit(".", 1)
    module = import_module(module_name)
    original = getattr(module, attribute)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attribute, spy)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "algorithm,query",
    [("hypercube", TRIANGLE), ("multiround", L4)],
    ids=["hypercube-C3", "multiround-L4"],
)
def test_cold_execution_joins_and_unions_once(
    backend, algorithm, query, monkeypatch
):
    """One path: capture takes the engine's tables, it derives none.

    A cold execution calls the per-worker evaluator zero times and the
    table union once per site (the engine's own); the post-delta read
    that follows re-joins exactly the workers the delta reached.
    """
    from repro.serve.ivm.state import plan_sites

    captures = _count_calls(monkeypatch, "repro.serve.ivm.capture_state")
    capture_joins = _count_calls(
        monkeypatch, "repro.serve.ivm.state.evaluate_worker"
    )
    merge_joins = _count_calls(
        monkeypatch, "repro.serve.ivm.merge.evaluate_worker"
    )
    unions = _count_calls(
        monkeypatch, "repro.engine.local.union_answer_tables"
    )
    database = matching_database(parse_query(L4), n=60, rng=7)
    service = QueryService(
        database, p=8, backend=backend, algorithm=algorithm
    )
    service.execute(query)

    (state,) = service.ivm.store._states.values()
    sites = plan_sites(state.plan)
    assert len(sites) == (1 if algorithm == "hypercube" else 3)
    assert len(captures) == 1  # ... through the traced module attribute
    assert not capture_joins and not merge_joins
    assert len(unions) == (len(sites) if backend == "numpy" else 0)

    def site_tables():
        return [
            table
            for site in [*state.views.values(), state.collect]
            if site is not None
            for table in site.tables
        ]

    before = site_tables()
    service.update(inserts={"S1": _fresh_rows(service, "S1", 1)})
    assert service.execute(query).ivm == "merged"
    assert not capture_joins and len(captures) == 1
    assert 0 < len(merge_joins) < len(before)
    if backend == "numpy":  # (a re-joined empty tuple is the same ())
        assert len(merge_joins) == sum(
            old is not new for old, new in zip(before, site_tables())
        )


class TestSessionSurface:
    """IVM status flows through Session results and explains."""

    def test_result_and_explain_carry_ivm(self):
        import repro

        session = repro.connect(_database(), p=8)
        try:
            statement = session.query(TRIANGLE)
            before = statement.execute()
            assert before.ivm is None
            assert statement.explain().ivm is None
            session.update(
                inserts={
                    "S1": _fresh_rows(session.service, "S1", 1)
                }
            )
            after = statement.execute()
            assert after.ivm == "merged"
            assert after.explain.ivm == "merged"
            assert after.explain.to_dict()["ivm"] == "merged"
            assert "merged" in after.explain.format()
        finally:
            session.close()

    def test_noop_update_keeps_planner_decisions(self):
        import repro

        session = repro.connect(_database(), p=8)
        try:
            statement = session.query(TRIANGLE)
            statement.execute()
            hits = session.planner_stats.decision_cache_hits
            session.update()  # empty: an effective no-op
            statement.execute()
            assert (
                session.planner_stats.decision_cache_hits == hits + 1
            )
        finally:
            session.close()
