"""The REPRO_FAULT_* injection knobs: parsing and end-to-end effect."""

from __future__ import annotations

import time

import pytest

from repro import connect
from repro.core.query import parse_query
from repro.data.matching import matching_database
from repro.engine import faults

VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")
PATH = "S1(x,y), S2(y,z)"


def _database(n=60):
    return matching_database(VOCAB, n=n, rng=7)


class TestKnobParsing:
    def test_everything_off_when_unset(self, monkeypatch):
        for name in faults.FAULT_ENVS:
            monkeypatch.delenv(name, raising=False)
        assert faults.round_delay_seconds() == 0.0
        assert faults.block_delay_seconds() == 0.0
        assert faults.worker_death_after() is None
        assert faults.disconnect_after_batches() is None
        config = faults.active_faults()
        assert not config.any_active

    def test_blank_values_count_as_unset(self, monkeypatch):
        monkeypatch.setenv(faults.ROUND_DELAY_ENV, "  ")
        monkeypatch.setenv(faults.WORKER_DEATH_ENV, "")
        assert faults.round_delay_seconds() == 0.0
        assert faults.worker_death_after() is None

    def test_delays_convert_ms_to_seconds(self, monkeypatch):
        monkeypatch.setenv(faults.ROUND_DELAY_ENV, "250")
        monkeypatch.setenv(faults.BLOCK_DELAY_ENV, "1.5")
        assert faults.round_delay_seconds() == 0.25
        assert faults.block_delay_seconds() == 0.0015
        config = faults.active_faults()
        assert config.any_active
        assert config.round_delay_ms == 250.0

    def test_malformed_values_raise_instead_of_disabling(
        self, monkeypatch
    ):
        monkeypatch.setenv(faults.ROUND_DELAY_ENV, "soon")
        with pytest.raises(ValueError):
            faults.round_delay_seconds()
        monkeypatch.setenv(faults.ROUND_DELAY_ENV, "-5")
        with pytest.raises(ValueError):
            faults.round_delay_seconds()
        monkeypatch.setenv(faults.WORKER_DEATH_ENV, "0")
        with pytest.raises(ValueError):
            faults.worker_death_after()
        monkeypatch.setenv(faults.WORKER_DEATH_ENV, "two")
        with pytest.raises(ValueError):
            faults.worker_death_after()

    def test_inject_round_delay_sleeps_only_when_set(self):
        start = time.perf_counter()
        faults.inject_round_delay(0.0)
        assert time.perf_counter() - start < 0.05
        start = time.perf_counter()
        faults.inject_round_delay(0.02)
        assert time.perf_counter() - start >= 0.02


class TestInjectedDelays:
    def test_round_delay_slows_every_execution(self, monkeypatch):
        session = connect(_database(), p=8, result_cache_size=0)
        try:
            start = time.perf_counter()
            baseline = session.execute(PATH)
            unloaded = time.perf_counter() - start

            monkeypatch.setenv(faults.ROUND_DELAY_ENV, "80")
            start = time.perf_counter()
            delayed = session.execute(PATH)
            slowed = time.perf_counter() - start
            assert slowed >= 0.08
            assert slowed > unloaded
            # The fault only injects latency; answers are untouched.
            assert delayed.answers == baseline.answers
        finally:
            session.close()

    def test_block_delay_applies_per_streamed_block(self, monkeypatch):
        pytest.importorskip("numpy")
        # n=60 rows in blocks of 15 is >= 4 blocks per step; at 20 ms
        # each the execution visibly slows while staying correct.
        session = connect(
            _database(),
            p=8,
            backend="numpy",
            chunk_rows=15,
            result_cache_size=0,
        )
        try:
            baseline = session.execute(PATH)
            monkeypatch.setenv(faults.BLOCK_DELAY_ENV, "20")
            start = time.perf_counter()
            delayed = session.execute(PATH)
            assert time.perf_counter() - start >= 0.08
            assert delayed.answers == baseline.answers
        finally:
            session.close()


class TestWorkerDeath:
    def test_worker_death_degrades_to_in_process(self, monkeypatch):
        # The fan-out worker kills itself (os._exit, as an OOM killer
        # would) before answering its first query.  The parent must
        # mark the pool broken, fall back in-process, and still answer
        # correctly -- and stay degraded for later statements.
        monkeypatch.setenv(faults.WORKER_DEATH_ENV, "1")
        database = _database()
        with connect(database, p=8) as serial:
            expected = serial.execute(PATH)
        with connect(database, p=8, workers=2) as fanned:
            if fanned.fanout is None or not fanned.fanout.usable:
                pytest.skip("no usable fan-out pool on this platform")
            result = fanned.execute(PATH)
            assert result.answers == expected.answers
            assert not fanned.fanout.usable  # pool marked broken
            assert fanned.fanout.alive_workers < fanned.fanout.workers
            # Still serving (in-process) after the death.
            again = fanned.execute(PATH)
            assert again.answers == expected.answers

    def test_worker_survives_until_the_nth_query(self, monkeypatch):
        monkeypatch.setenv(faults.WORKER_DEATH_ENV, "3")
        database = _database()
        with connect(database, p=8) as serial:
            expected = serial.execute(PATH)
        with connect(database, p=8, workers=2) as fanned:
            if fanned.fanout is None or not fanned.fanout.usable:
                pytest.skip("no usable fan-out pool on this platform")
            # Each worker dies on *its own* third query; serial
            # statements keep the pool alive until some worker has
            # handled three.
            survived = 0
            while fanned.fanout.usable and survived < 10:
                assert fanned.execute(PATH).answers == expected.answers
                survived += 1
            assert not fanned.fanout.usable
            assert 3 <= survived <= 6  # died on a worker's 3rd query


class TestPoolShutdown:
    def test_join_timeout_is_validated(self):
        from repro.api.fanout import SessionWorkerPool

        with pytest.raises(ValueError):
            SessionWorkerPool(
                _database(), {"p": 8}, workers=1, join_timeout=0
            )

    def test_clean_close_kills_no_stragglers(self):
        session = connect(_database(), p=8, workers=2)
        try:
            if session.fanout is None or not session.fanout.usable:
                pytest.skip("no usable fan-out pool on this platform")
            fanout = session.fanout
        finally:
            session.close()
        assert fanout.killed_stragglers == 0
