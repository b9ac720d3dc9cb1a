"""Statement fan-out: multi-process sessions vs in-process, bit for bit."""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest

from repro import connect
from repro.core.families import cycle_query
from repro.data.matching import matching_database
from repro.api.fanout import FanoutBroken, SessionWorkerPool
from repro.api.shm import segment_exists
from repro.mpc.simulator import CapacityExceeded

VOCAB = cycle_query(3)

#: Pairwise non-isomorphic statements: parity must not depend on the
#: plan cache's isomorphic-rebind order (see the fanout module
#: docstring), so each shape compiles its own plan.
STATEMENTS = (
    "S1(x,y), S2(y,z), S3(z,x)",
    "S1(x,y), S2(y,z)",
    "S1(x,y)",
    "S1(x,x)",
)

ROUTES = (
    ("hypercube", {}),
    ("skewaware", {}),
    ("multiround", {}),
    ("partial", {"eps": Fraction(1, 4), "allow_partial": True}),
)


def _database(n=60, rng=11):
    return matching_database(VOCAB, n=n, rng=rng)


class TestParity:
    @pytest.mark.parametrize(
        "algorithm,overrides", ROUTES, ids=[a for a, _ in ROUTES]
    )
    def test_every_planner_route(self, algorithm, overrides):
        database = _database()
        with connect(database, p=8) as serial, connect(
            database, p=8, workers=2
        ) as fanned:
            assert fanned.fanout is not None and fanned.fanout.usable
            expected = serial.execute(
                STATEMENTS[0], algorithm=algorithm, **overrides
            )
            actual = fanned.execute(
                STATEMENTS[0], algorithm=algorithm, **overrides
            )
            assert actual.answers == expected.answers
            assert actual.per_server == expected.per_server
            assert actual.algorithm == expected.algorithm
            assert actual.version == expected.version
            assert fanned.fanout.queries == 1  # it really fanned out

    def test_statement_sequence(self):
        database = _database()
        with connect(database, p=8) as serial, connect(
            database, p=8, workers=2
        ) as fanned:
            for text in STATEMENTS:
                expected = serial.execute(text)
                actual = fanned.execute(text)
                assert actual.answers == expected.answers, text
            assert fanned.fanout.queries == len(STATEMENTS)


class TestUpdates:
    def test_update_broadcast_keeps_parity(self):
        database = _database()
        with connect(database, p=8) as serial, connect(
            database, p=8, workers=2
        ) as fanned:
            rows = [(1, 2), (3, 4), (5, 6)]
            assert serial.update(inserts={"S1": rows}) == fanned.update(
                inserts={"S1": rows}
            )
            assert fanned.fanout.usable  # barrier update succeeded
            for text in STATEMENTS:
                expected = serial.execute(text)
                actual = fanned.execute(text)
                assert actual.answers == expected.answers, text
                assert actual.version == expected.version == 1

    def test_update_on_a_dead_pool_never_loses_the_parent_delta(self):
        database = _database()
        with connect(database, p=8, workers=2) as session:
            for process in session.fanout._processes:
                process.kill()
                process.join(timeout=30)
            # The barrier cannot run, but the parent still applies.
            assert session.update(inserts={"S1": [(1, 2)]}) == 1
            assert session.version == 1
            assert not session.fanout.usable

    def test_broken_pool_apply_delta_runs_apply_parent_exactly_once(self):
        from repro.data.versioned import DatabaseDelta

        database = _database()
        with connect(database, p=8, workers=2) as session:
            pool = session.fanout
            for process in pool._processes:
                process.kill()
                process.join(timeout=30)
            calls = []

            def apply_parent():
                calls.append(1)
                return 7

            delta = DatabaseDelta.of({"S1": [(1, 2)]}, None)
            assert pool.apply_delta(delta, apply_parent) == 7
            assert calls == [1]

    def test_update_divergence_marks_the_pool_broken(self):
        # apply_parent reporting a version the workers did not reach is
        # divergence: the parent keeps its delta, the pool stops
        # serving (and the barrier released every worker regardless).
        from repro.data.versioned import DatabaseDelta

        database = _database()
        with connect(database, p=8, workers=2) as session:
            pool = session.fanout
            delta = DatabaseDelta.of({"S1": [(1, 2)]}, None)
            assert pool.apply_delta(delta, lambda: 999) == 999
            assert pool.broken and not pool.usable

    def test_a_rejected_delta_keeps_the_pool(self):
        # Every side rejects the same bad delete and commits nothing,
        # so the fleet stays at one version and keeps serving.
        from repro.data.database import DataError

        with connect(_database(), p=8, workers=2) as session:
            with pytest.raises(DataError, match="arity 3, expected 2"):
                session.update(deletes={"S1": [(1, 2, 3)]})
            assert session.version == 0 and session.fanout.usable
            session.update(inserts={"S1": [(1, 2)]})
            result = session.execute(STATEMENTS[1])
            assert session.fanout.usable and result.version == 1

    def test_capacity_exceeded_crosses_the_boundary(self):
        database = _database()
        options = dict(
            p=8,
            enforce_capacity=True,
            capacity_c=1e-6,
            algorithm="hypercube",
        )
        with connect(database, **options) as serial, connect(
            database, workers=2, **options
        ) as fanned:
            with pytest.raises(CapacityExceeded) as local:
                serial.execute(STATEMENTS[0])
            with pytest.raises(CapacityExceeded) as remote:
                fanned.execute(STATEMENTS[0])
            assert remote.value.worker == local.value.worker
            assert remote.value.received_bits == local.value.received_bits
            assert remote.value.capacity_bits == local.value.capacity_bits
            assert remote.value.round_index == local.value.round_index
            # A capacity failure is an answer, not a worker death.
            assert fanned.fanout.usable


class TestFailure:
    def test_dead_worker_degrades_to_in_process(self):
        database = _database()
        with connect(database, p=8) as serial, connect(
            database, p=8, workers=2
        ) as fanned:
            expected = serial.execute(STATEMENTS[0])
            for process in fanned.fanout._processes:
                process.kill()
                process.join(timeout=30)
            # The session survives: the broken pool raises internally,
            # execution falls back, and the answer is still exact.
            actual = fanned.execute(STATEMENTS[0])
            assert actual.answers == expected.answers
            assert fanned.fanout is None or not fanned.fanout.usable

    def test_dead_pool_fallback_is_safe_from_many_threads(self):
        # The RPC server's dispatcher threads can all land in the
        # in-process fallback at once when the pool dies mid-serve;
        # the session's execution lock must keep them single-file.
        database = _database()
        with connect(database, p=8) as serial, connect(
            database, p=8, workers=2
        ) as fanned:
            expected = {
                text: serial.execute(text).answers for text in STATEMENTS
            }
            for process in fanned.fanout._processes:
                process.kill()
                process.join(timeout=30)
            results: dict[str, tuple] = {}
            errors: list[Exception] = []

            def run(text: str) -> None:
                try:
                    results[text] = fanned.execute(text).answers
                except Exception as error:  # noqa: BLE001 - asserted
                    errors.append(error)

            threads = [
                threading.Thread(target=run, args=(text,))
                for text in STATEMENTS * 2
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert results == expected

    def test_broken_pool_refuses_direct_use(self):
        database = _database()
        session = connect(database, p=8, workers=2)
        try:
            pool = session.fanout
            for process in pool._processes:
                process.kill()
                process.join(timeout=30)
            with pytest.raises(FanoutBroken):
                pool.execute(VOCAB, None, None, False)
            with pytest.raises(FanoutBroken):
                pool.execute(VOCAB, None, None, False)  # stays broken
        finally:
            session.close()

    def test_query_errors_propagate_with_their_type(self):
        from repro.core.query import QueryError

        database = _database()
        with connect(database, p=8, workers=2) as session:
            with pytest.raises(QueryError):
                session.execute("Nope(x,y)")
            assert session.fanout.usable  # a bad query is not a crash


class TestLifecycle:
    def test_close_unlinks_all_segments(self):
        database = _database()
        session = connect(database, p=8, workers=2)
        names = list(session.fanout.segment_names)
        assert names  # the snapshot went through shared memory
        session.execute(STATEMENTS[0])
        session.close()
        assert session.fanout is None
        assert not any(segment_exists(name) for name in names)

    def test_pool_requires_two_workers(self):
        database = _database()
        with connect(database, p=8) as session:
            with pytest.raises(ValueError):
                SessionWorkerPool(session.database, {}, workers=1)

    def test_worker_stats_report_per_worker_sessions(self):
        database = _database()
        with connect(database, p=8, workers=2) as session:
            session.execute(STATEMENTS[0])
            session.execute(STATEMENTS[1])
            stats = session.fanout.worker_stats()
            assert len(stats) == 2
            assert sum(s[("service", "executions")] for s in stats) == 2
