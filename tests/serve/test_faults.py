"""The REPRO_FAULT_* injection knobs: parsing and end-to-end effect."""

from __future__ import annotations

import time

import pytest

from repro import connect
from repro.core.query import parse_query
from repro.data.generators import matching_database
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
        assert faults.disconnect_after_batches() is None
        config = faults.active_faults()
        assert not config.any_active

    def test_other_repro_fault_variables_inject_nothing(self, monkeypatch):
        # Only the declared knobs are read; a stale one from an older
        # release (the deleted worker-death drill) leaves faults off.
        for name in faults.FAULT_ENVS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_FAULT_WORKER_DEATH", "1")
        assert not faults.active_faults().any_active
        assert faults.FAULT_ENVS == (
            faults.ROUND_DELAY_ENV,
            faults.BLOCK_DELAY_ENV,
            faults.DISCONNECT_ENV,
        )

    def test_blank_values_count_as_unset(self, monkeypatch):
        monkeypatch.setenv(faults.ROUND_DELAY_ENV, "  ")
        monkeypatch.setenv(faults.DISCONNECT_ENV, "")
        assert faults.round_delay_seconds() == 0.0
        assert faults.disconnect_after_batches() is None

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
        monkeypatch.setenv(faults.DISCONNECT_ENV, "0")
        with pytest.raises(ValueError):
            faults.disconnect_after_batches()
        monkeypatch.setenv(faults.DISCONNECT_ENV, "two")
        with pytest.raises(ValueError):
            faults.disconnect_after_batches()

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
        # n=60 rows in blocks of 15 is >= 4 blocks per step; at 20 ms
        # each the execution visibly slows while staying correct.
        session = connect(
            _database(),
            p=8,
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
