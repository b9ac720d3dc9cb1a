"""Incremental view maintenance: parity, fallbacks, failure modes.

The acceptance bar of the subsystem: a request served by a delta
merge is *bit-identical* to the full re-execution it replaced --
answers, per-server loads, per-round statistics, view sizes, and
``CapacityExceeded`` behaviour -- across algorithms and delta
shapes.  Everything the merge cannot guarantee that for falls
back to the full path, for a named reason.
"""

from __future__ import annotations

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.serve.ivm.merge as merge
from repro import oracle
from repro.algorithms.localjoin import evaluate_query_table
from repro.core.query import parse_query
from repro.data.columnar import ColumnarRelation
from repro.data.generators import matching_database
from repro.data.versioned import (
    DELTA_HISTORY_LIMIT,
    DatabaseDelta,
    VersionedDatabase,
)
from repro import connect
from repro.engine import local
from repro.engine.deadline import Deadline, DeadlineExceeded
from repro.mpc.simulator import CapacityExceeded
from repro.serve.ivm.policy import FALLBACK_OVERLAP
from tests.conftest import ivm_policy, statement_deadline

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")

TRIANGLE = "S1(x,y), S2(y,z), S3(z,x)"
TWO_HOP = "S1(x,y), S2(y,z)"


def _database(n=40, rng=7):
    return matching_database(VOCAB, n=n, rng=rng)


def _pair(algorithm="hypercube", n=40, rng=7, p=8, **kwargs):
    """Two pinned sessions over identical data: IVM on, IVM off
    (control)."""
    served = connect(
        _database(n=n, rng=rng),
        p=p,
        algorithm=algorithm,
        **kwargs,
    )
    control = connect(
        _database(n=n, rng=rng),
        p=p,
        algorithm=algorithm,
        ivm=False,
        **kwargs,
    )
    return served, control


def _fresh_rows(session, relation, count, avoid=()):
    """``count`` absent rows of ``relation`` within the domain."""
    present = set(session.database[relation].rows()) | set(avoid)
    domain = session.database.domain_size
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
    # Built on every read, so the next merge derives its reply.
    assert served.answer_views.json == control.answer_views.json
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


@pytest.mark.parametrize("algorithm", ["hypercube", "multiround"])
class TestMergeParity:
    """Merged answers are bit-identical to full re-execution."""

    def _prime(self, algorithm, query=TRIANGLE):
        served, control = _pair(algorithm)
        _assert_parity(
            served.execute(query), control.execute(query)
        )
        return served, control

    def test_insert_only_delta(self, algorithm):
        served, control = self._prime(algorithm)
        rows = _fresh_rows(served, "S1", 3)
        _apply_both(served, control, inserts={"S1": rows})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_delete_only_delta(self, algorithm):
        served, control = self._prime(algorithm)
        victims = list(served.database["S2"].rows())[:4]
        _apply_both(served, control, deletes={"S2": victims})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_mixed_delta_across_relations(self, algorithm):
        served, control = self._prime(algorithm)
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
        self, algorithm
    ):
        served, control = self._prime(algorithm)
        for step in range(3):
            rows = _fresh_rows(served, "S1", 1)
            _apply_both(served, control, inserts={"S1": rows})
            mine = served.execute(TRIANGLE)
            assert mine.ivm == "merged"
            _assert_parity(mine, control.execute(TRIANGLE))
        assert served.stats.ivm_hits == 3
        assert served.stats.ivm_fallbacks == 0

    def test_merge_skipping_versions(self, algorithm):
        # Two deltas, no execution in between: one composed merge.
        served, control = self._prime(algorithm)
        rows = _fresh_rows(served, "S1", 2)
        _apply_both(served, control, inserts={"S1": rows})
        _apply_both(served, control, deletes={"S1": rows[:1]})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_merged_result_is_cached(self, algorithm):
        served, control = self._prime(algorithm)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        first = served.execute(TRIANGLE)
        repeat = served.execute(TRIANGLE)
        assert first.ivm == "merged" and not first.cached
        assert repeat.cached and repeat.ivm is None
        assert repeat.answers == first.answers


class TestHeavyBinding:
    """Every HyperCube plan carries a HeavyBind.  IVM merges while the
    bound heavy sets are empty and falls back, by name, while some
    value is heavy."""

    def test_matching_hypercube_merges(self):
        served, control = _pair()
        assert served.execute(TWO_HOP).plan.rounds[0].bind_heavy
        control.execute(TWO_HOP)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        mine = served.execute(TWO_HOP)
        assert mine.ivm == "merged"
        assert served.stats.ivm_fallbacks == 0
        _assert_parity(mine, control.execute(TWO_HOP))

    def test_merged_read_reports_the_bound_sets(self):
        served, control = _pair()
        served.execute(TWO_HOP)
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        merged = served.execute(TWO_HOP)
        full = control.execute(TWO_HOP)
        assert merged.ivm == "merged" and full.ivm is None
        assert merged.version == full.version
        assert merged.heavy_hitters == full.heavy_hitters
        assert set(merged.heavy_hitters) == {"x", "y", "z"}
        assert not any(merged.heavy_hitters.values())

    def test_a_heavy_value_falls_back_until_it_is_gone(self):
        served, control = _pair()
        served.execute(TWO_HOP)
        control.execute(TWO_HOP)
        present = set(served.database["S1"].rows())
        burst = [(x, 7) for x in range(1, 41) if (x, 7) not in present]
        burst = burst[:10]
        _apply_both(served, control, inserts={"S1": burst})
        mine = served.execute(TWO_HOP)
        assert mine.ivm == "heavy-values"
        assert mine.heavy_hitters["y"] == {7}
        _assert_parity(mine, control.execute(TWO_HOP))
        reference = oracle.execute_plan(
            mine.plan, served.database.snapshot
        )
        assert mine.answers == reference.answers
        assert mine.per_server == reference.per_server
        assert mine.heavy_hitters == reference.heavy_hitters
        assert served.ivm.fallback_reasons["heavy-values"] == 1

        _apply_both(served, control, deletes={"S1": burst})
        mine = served.execute(TWO_HOP)
        assert mine.ivm == "merged"
        assert not any(mine.heavy_hitters.values())
        _assert_parity(mine, control.execute(TWO_HOP))


class TestFallbacks:
    """Named reasons; the full path still answers correctly."""

    def test_delta_fraction_gate(self):
        with ivm_policy(max_delta_fraction=0.0):
            served, control = _pair()
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

    def test_domain_growth_falls_back(self):
        served, control = _pair()
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        grown = served.database.domain_size + 50
        _apply_both(served, control, inserts={"S1": [(grown, 1)]})
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "bits-changed"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_history_gap_discards_state(self):
        served, _ = _pair()
        served.execute(TRIANGLE)
        assert served.ivm.retained_states == 1
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

    def test_byte_budget_rejects_capture(self):
        with ivm_policy(max_bytes=1):
            served, control = _pair()
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        assert served.ivm.retained_states == 0
        assert served.ivm.retained_bytes == 0
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
        )
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "no-retained-state"
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_ivm_disabled_reports_nothing(self):
        session = connect(_database(), p=8, ivm=False)
        session.execute(TRIANGLE)
        session.update(inserts={"S1": _fresh_rows(session, "S1", 1)})
        result = session.execute(TRIANGLE)
        assert result.ivm is None
        assert session.ivm is None
        assert session.stats_report()["service"]["ivm_retained_bytes"] == 0
        assert session.stats.ivm_hits == 0

    @pytest.mark.parametrize("algorithm", ["hypercube", "multiround"])
    def test_chunked_one_block_execution_is_captured_and_merges(
        self, algorithm
    ):
        # Each 40-row source fits in one 64-row block, so every
        # delivery keeps its routed arrays and is pooled at round close.
        served, control = _pair(algorithm, chunk_rows=64)
        _assert_parity(served.execute(TRIANGLE), control.execute(TRIANGLE))
        assert served.ivm.retained_states == 1
        _apply_both(
            served,
            control,
            inserts={"S1": _fresh_rows(served, "S1", 1)},
            deletes={"S2": list(served.database["S2"].rows())[:2]},
        )
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        assert served.stats.ivm_hits == 1
        _assert_parity(mine, control.execute(TRIANGLE))

    def test_chunked_execution_is_not_captured(self):
        served, control = _pair(chunk_rows=8)
        served.execute(TRIANGLE)
        control.execute(TRIANGLE)
        assert served.ivm.retained_states == 0
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


#: y values that share one hash bucket at p_y = 4 (seed 0).
HOT = (1, 2, 3, 4, 8)


def _skewed_database(extra=()):
    # All the join traffic concentrates on one worker: the hot y
    # values share its hash bucket, and none occurs more than
    # |S| / p_y times, so HyperCube binds no heavy value and IVM
    # merges.  The ballast rows (y in 5..7, joining nothing) land
    # elsewhere, so capacity (a function of *total* input) sits above
    # the hot worker's load until a skewed insert pushes it over.
    ballast = [(5 + j % 3, 30 + j) for j in range(16)]
    rows_s1 = [(i, HOT[i % 4]) for i in range(1, 17)] + list(extra)
    rows_s2 = [(HOT[i % 4], i) for i in range(1, 17)] + ballast
    return VersionedDatabase(
        {
            "S1": ColumnarRelation.from_rows(
                "S1", rows_s1, domain_size=64
            ),
            "S2": ColumnarRelation.from_rows(
                "S2", rows_s2, domain_size=64
            ),
        },
    )


class TestCapacityParity:
    """A merged overflow is the identical CapacityExceeded."""

    def _pair(self, capacity_c):
        common = dict(
            p=4,
            algorithm="hypercube",
            capacity_c=capacity_c,
            enforce_capacity=True,
        )
        served = connect(_skewed_database(), **common)
        control = connect(_skewed_database(), ivm=False, **common)
        return served, control

    SKEW = tuple((20 + i, HOT[4]) for i in range(4))

    def _calibrate(self):
        """A capacity constant the base data fits under but the skew
        insert overflows: probe both datasets unenforced and place
        the ceiling between their peak-load-to-capacity ratios."""
        ratios = []
        for extra in ((), self.SKEW):
            probe = connect(
                _skewed_database(extra=extra), p=4, algorithm="hypercube"
            ).execute(TWO_HOP)
            stats = probe.report.rounds[0]
            ratios.append(max(stats.received_bits) / stats.capacity_bits)
        base_ratio, skew_ratio = ratios
        assert skew_ratio > base_ratio, "skew must concentrate load"
        default_c = probe.plan.signature.capacity_c
        return default_c * (base_ratio + skew_ratio) / 2

    def test_identical_capacity_exceeded(self):
        capacity_c = self._calibrate()
        served, control = self._pair(capacity_c)
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
        self
    ):
        capacity_c = self._calibrate()
        served, control = self._pair(capacity_c)
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


class TestDeadlineMidMerge:
    def test_expiry_mid_merge_leaves_state_reusable(self):
        served, control = _pair()
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
        with statement_deadline(deadline), pytest.raises(
            DeadlineExceeded
        ) as error:
            served.execute(TRIANGLE, deadline_ms=deadline.budget_ms)
        assert "ivm" in error.value.where
        assert served.stats.deadline_exceeded == exhausted + 1
        # Nothing committed: the same retained state serves the next
        # (unbudgeted) request, bit-identically.
        mine = served.execute(TRIANGLE)
        assert mine.ivm == "merged"
        _assert_parity(mine, control.execute(TRIANGLE))


class TestNoopChaining:
    """Empty deltas chain caches instead of orphaning them."""

    def test_result_cache_survives_empty_update(self):
        session = connect(_database(), p=8)
        first = session.execute(TRIANGLE)
        version = session.apply_delta(DatabaseDelta.of())
        repeat = session.execute(TRIANGLE)
        assert repeat.cached
        assert repeat.version == version
        assert repeat.answers == first.answers
        assert session.stats.executions == 1

    def test_ineffective_delta_also_chains(self):
        session = connect(_database(), p=8)
        session.execute(TRIANGLE)
        existing = next(iter(session.database["S1"].rows()))
        session.update(
            inserts={"S1": [existing]},
            deletes={"S1": [(9999, 9999)]},
        )
        assert session.execute(TRIANGLE).cached
        assert session.stats.executions == 1

    def test_retained_state_fast_forwards(self):
        served, control = _pair()
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


@pytest.mark.parametrize(
    "algorithm,query",
    [("hypercube", TRIANGLE), ("multiround", L4)],
    ids=["hypercube-C3", "multiround-L4"],
)
def test_cold_execution_joins_and_unions_once(algorithm, query, monkeypatch):
    """One path: capture takes the engine's tables, it derives none.

    A cold execution calls the per-worker evaluator zero times and the
    table union once per site (the engine's own).  The post-delta read
    that follows unions nothing and joins once per delta term: per
    site, per worker the delta reached, per atom whose fragment there
    it patched.
    """
    from repro.serve.ivm.state import plan_sites

    captures = _count_calls(monkeypatch, "repro.serve.ivm.capture_state")
    merge_joins = _count_calls(
        monkeypatch, "repro.serve.ivm.merge.evaluate_query_table"
    )
    unions = _count_calls(
        monkeypatch, "repro.engine.local.union_answer_tables"
    )
    database = matching_database(parse_query(L4), n=60, rng=7)
    session = connect(database, p=8, algorithm=algorithm)
    session.execute(query)

    (state,) = session.ivm.store._states.values()
    sites = plan_sites(state.plan)
    assert len(sites) == (1 if algorithm == "hypercube" else 3)
    assert len(captures) == 1  # ... through the traced module attribute
    assert not merge_joins
    assert len(unions) == len(sites)

    before = dict(state.patched)
    session.update(inserts={"S1": _fresh_rows(session, "S1", 1)})
    assert session.execute(query).ivm == "merged"
    assert len(captures) == 1
    assert len(unions) == len(sites)
    patched = {
        slot for slot, fragment in state.patched.items()
        if before.get(slot) is not fragment
    }
    terms = sum(
        (key, worker) in patched
        for site in state.sites()
        for worker in range(len(site.counts))
        for key in site.keys.values()
    )
    assert 0 < len(merge_joins) == terms


def _retained_version(session):
    """The version the one retained state is current at."""
    (state,) = session.ivm.store._states.values()
    return state.version


def _answer_site(session):
    """The retained site whose merged table holds the answers."""
    (state,) = session.ivm.store._states.values()
    if state.collect is not None:
        return state.collect
    return state.views[state.plan.finalize.view]


def _worker_answers(session, site, worker):
    """One worker's answers at a site, joined from its fragments."""
    (state,) = session.ivm.store._states.values()
    return evaluate_query_table(
        site.query,
        {atom: state.fragment(key, worker) for atom, key in site.keys.items()},
    )


CHAIN = "S1(x,y), S2(y,z), S3(z,w)"
#: The answer sites a merge maintains: a hypercube collect, a
#: multiround finalize-view, and a finalize head permuting that view.
SITE_SHAPES = [
    ("hypercube", TWO_HOP),
    ("multiround", CHAIN),
    ("multiround", "q(z,x,y,w) = " + CHAIN),
]
#: ``(kind, which relation of the query, which row)``; a reinsert or
#: undo with nothing to re-insert or undo inserts a fresh row instead.
WRITES = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "reinsert", "undo", "drain"]),
        st.integers(0, 2),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize(
    "algorithm,text",
    SITE_SHAPES,
    ids=["collect", "finalize-view", "permuted-finalize-view"],
)
@settings(max_examples=40, deadline=None)
@given(writes=WRITES)
@example(writes=[("drain", 0, 0)] * 3)
def test_interleaved_writes_merge_like_full_execution(algorithm, text, writes):
    """A read after every single-row write is served by a merge, and
    is bit-identical to full re-execution: deletes that remove answers,
    re-inserts of deleted rows, deleting the row just inserted, and
    deletes that drain the smallest worker answer table (``drain``
    deletes the first query atom's row under one of its answers).  At
    n=16 two rows make a value heavy for HyperCube: while one is, the
    read falls back under ``heavy-values`` (and a drain deletes as
    ``delete`` does, the retained state lagging the database)."""
    query = parse_query(text)
    names = [atom.name for atom in query.atoms]
    with ivm_policy(max_delta_fraction=1.0):
        served, control = _pair(algorithm, n=16)
    _assert_parity(served.execute(text), control.execute(text))
    deleted = {name: [] for name in names}
    last_insert = None
    for kind, which, pick in writes:
        name = names[which % len(names)]
        drained = None
        if kind == "drain" and _retained_version(served) == served.version:
            site = _answer_site(served)
            size, worker = min(
                (count, worker)
                for worker, count in enumerate(site.counts)
                if count
            )
            answer = _worker_answers(served, site, worker)[0]
            atom = query.atoms[0]
            name, drained = atom.name, (worker, size)
            row = tuple(
                int(answer[site.query.head.index(v)]) for v in atom.variables
            )
            op = "deletes"
        elif kind in ("delete", "drain"):
            rows = sorted(served.database[name].rows())
            row, op = rows[pick % len(rows)], "deletes"
        elif kind == "undo" and last_insert is not None:
            (name, row), op = last_insert, "deletes"
        elif kind == "reinsert" and deleted[name]:
            row, op = deleted[name].pop(pick % len(deleted[name])), "inserts"
        else:
            domain = served.database.domain_size
            absent = _fresh_rows(
                served, name, domain**2 - len(served.database[name])
            )
            row, op = absent[pick % len(absent)], "inserts"
        if op == "deletes":
            deleted[name].append(row)
            last_insert = None
        else:
            if row in deleted[name]:  # a fresh insert may re-insert
                deleted[name].remove(row)
            last_insert = (name, row)
        _apply_both(served, control, **{op: {name: [row]}})
        hits = served.stats.ivm_hits
        mine = served.execute(text)
        full = control.execute(text)
        heavy = any((full.heavy_hitters or {}).values())
        assert mine.ivm == ("heavy-values" if heavy else "merged")
        assert served.stats.ivm_hits == hits + (not heavy)
        _assert_parity(mine, full)
        assert mine.heavy_hitters == full.heavy_hitters
        if drained is not None and not heavy:
            worker, size = drained
            assert _answer_site(served).counts[worker] < size


def test_a_delete_costs_what_changed(monkeypatch):
    """A single-row delete costs its delta terms and two splices.

    Every join inside the merge has the routed delta (one row) as one
    of its fragments; every row probe has at most a handful of rows on
    one side -- the delta probed into a fragment or the lost rows into
    the merged table -- and no table union runs at all: no untouched
    worker is probed, no whole fragment re-joined.
    """
    joins = _count_calls(
        monkeypatch, "repro.serve.ivm.merge.evaluate_query_table"
    )
    probes = _count_calls(monkeypatch, "repro.data.columnar.locate_rows")
    unions = _count_calls(
        monkeypatch, "repro.engine.local.union_answer_tables"
    )
    served, control = _pair(n=2000, p=16)
    served.execute(TWO_HOP)
    victim = next(served.database["S1"].rows())
    _apply_both(served, control, deletes={"S1": [victim]})
    del joins[:], probes[:], unions[:]
    mine = served.execute(TWO_HOP)
    assert mine.ivm == "merged"
    assert joins and not unions
    for _, fragments in joins:
        assert min(len(columns[0]) for columns in fragments.values()) == 1
    assert probes
    for reference, table in probes:
        assert min(len(reference), len(table)) <= 10
    _assert_parity(mine, control.execute(TWO_HOP))


def test_overlapping_worker_answers_are_a_named_fallback(monkeypatch):
    """A site whose worker answers overlap is not retained.

    The delta rule counts each worker's answers on its own, so it
    needs every answer on exactly one worker.  Content routing
    guarantees that, so an overlap is planted here: worker 0 of every
    shard reports its first answer twice.  Capture declines, and the
    post-delta read re-executes under the named reason.
    """
    evaluate = local.evaluate_shard_pools

    def overlapping(query, pools, width):
        answers, counts = evaluate(query, pools, width)
        if counts[0]:
            answers = numpy.concatenate([answers[:1], answers])
            counts[0] += 1
        return answers, counts

    monkeypatch.setattr(local, "evaluate_shard_pools", overlapping)
    session = connect(_database(), p=8, algorithm="hypercube")
    session.execute(TWO_HOP)
    assert session.ivm.retained_states == 0
    session.update(inserts={"S1": _fresh_rows(session, "S1", 1)})
    assert session.execute(TWO_HOP).ivm == FALLBACK_OVERLAP
    assert session.ivm.fallback_reasons[FALLBACK_OVERLAP] == 1


def test_counts_that_drift_from_the_merged_table_stop_merging():
    """The check holds after every merge too: counts that no longer
    sum to the merged table's length commit nothing, drop the state
    and fall back; the re-execution retains afresh."""
    served, control = _pair()
    _assert_parity(served.execute(TWO_HOP), control.execute(TWO_HOP))
    _answer_site(served).counts[0] += 1
    _apply_both(
        served, control, inserts={"S1": _fresh_rows(served, "S1", 1)}
    )
    mine = served.execute(TWO_HOP)
    assert mine.ivm == FALLBACK_OVERLAP
    _assert_parity(mine, control.execute(TWO_HOP))
    assert served.ivm.fallback_reasons[FALLBACK_OVERLAP] == 1
    _apply_both(
        served, control, inserts={"S2": _fresh_rows(served, "S2", 1)}
    )
    mine = served.execute(TWO_HOP)
    assert mine.ivm == "merged"
    _assert_parity(mine, control.execute(TWO_HOP))


#: ``(query, relation each atom reads)``: a chain, a cycle, an atom
#: with a repeated variable, and a self-join -- both atoms read one
#: relation, so one delta reaches both.
DELTA_RULE_SHAPES = [
    ("S1(x,y), S2(y,z)", ("S1", "S2")),
    ("S1(x,y), S2(y,z), S3(z,x)", ("S1", "S2", "S3")),
    ("S1(x,x), S2(x,z)", ("S1", "S2")),
    ("S1(x,y), S2(y,z)", ("R", "R")),
]
DOMAIN_ROWS = st.tuples(st.integers(1, 4), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(DELTA_RULE_SHAPES),
    base=st.lists(st.lists(DOMAIN_ROWS, max_size=10), min_size=3, max_size=3),
    versions=st.lists(
        st.tuples(
            st.integers(0, 2),  # which relation
            st.lists(DOMAIN_ROWS, max_size=3),  # inserted
            st.lists(DOMAIN_ROWS, max_size=3),  # deleted
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_the_delta_rule_equals_a_full_rejoin(shape, base, versions):
    """``delta_answers`` over the removed (added) rows is exactly what
    a full re-join loses (gains), for deltas composed over several
    versions of inserts and deletes, several rows at a time."""
    text, reads = shape
    query = parse_query(text)
    names = sorted(set(reads))
    old = {name: set(rows) for name, rows in zip(names, base)}
    new = {name: set(rows) for name, rows in old.items()}
    for which, inserted, deleted in versions:
        name = names[which % len(names)]
        new[name] = (new[name] | set(inserted)) - set(deleted)

    def tables(contents):
        """Atom name -> its relation's rows as an int64 table."""
        return {
            atom.name: numpy.array(
                sorted(contents[relation]), dtype=numpy.int64
            ).reshape(-1, 2)
            for atom, relation in zip(query.atoms, reads)
        }

    def fragments(contents):
        return {
            atom: tuple(table.T.copy())
            for atom, table in tables(contents).items()
        }

    def deltas(contents):
        return {
            atom: table for atom, table in tables(contents).items()
            if len(table)
        }

    def answers(contents):
        table = evaluate_query_table(query, fragments(contents))
        return set(map(tuple, table.tolist()))

    removed = {name: old[name] - new[name] for name in names}
    added = {name: new[name] - old[name] for name in names}
    lost = merge.delta_answers(query, fragments(old), deltas(removed))
    gained = merge.delta_answers(query, fragments(new), deltas(added))
    for table, expected in (
        (lost, answers(old) - answers(new)),
        (gained, answers(new) - answers(old)),
    ):
        assert table.dtype == numpy.int64
        assert table.shape[1] == len(query.head)
        found = list(map(tuple, table.tolist()))
        assert len(found) == len(set(found))  # duplicate-free
        assert set(found) == expected


class TestSessionSurface:
    """IVM status flows through Session results and explains."""

    def test_result_and_explain_carry_ivm(self):
        session = connect(_database(), p=8)
        try:
            statement = session.query(TRIANGLE)
            before = statement.execute()
            assert before.ivm is None
            assert statement.explain().ivm is None
            session.update(inserts={"S1": _fresh_rows(session, "S1", 1)})
            after = statement.execute()
            assert after.ivm == "merged"
            assert after.explain.ivm == "merged"
            assert after.explain.to_dict()["ivm"] == "merged"
            assert "merged" in after.explain.format()
        finally:
            session.close()

    def test_noop_update_keeps_planner_decisions(self):
        session = connect(_database(), p=8)
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
