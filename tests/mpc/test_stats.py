"""Unit tests for per-round and whole-run communication statistics."""

from __future__ import annotations

import pytest

from repro.mpc.stats import RoundStats, SimulationReport


class TestRoundStats:
    def make(self):
        return RoundStats(
            round_index=1,
            received_bits=(10, 30, 0, 20),
            received_tuples=(1, 3, 0, 2),
            capacity_bits=100.0,
        )

    def test_aggregates(self):
        stats = self.make()
        assert stats.max_received_bits == 30
        assert stats.max_received_tuples == 3
        assert stats.total_bits == 60
        assert stats.total_tuples == 6

    def test_imbalance(self):
        stats = self.make()
        assert stats.load_imbalance == pytest.approx(30 / 15)

    def test_imbalance_of_silence_is_one(self):
        stats = RoundStats(1, (0, 0), (0, 0), 10.0)
        assert stats.load_imbalance == 1.0


class TestSimulationReport:
    def test_aggregates_over_rounds(self):
        report = SimulationReport(input_bits=100)
        report.rounds.append(RoundStats(1, (50, 10), (5, 1), 60.0))
        report.rounds.append(RoundStats(2, (20, 40), (2, 4), 60.0))
        assert report.num_rounds == 2
        assert report.max_load_bits == 50
        assert report.max_load_tuples == 5
        assert report.total_bits == 120
        assert report.replication_rate == pytest.approx(1.2)

    def test_empty_report(self):
        report = SimulationReport(input_bits=0)
        assert report.max_load_bits == 0
        assert report.replication_rate == 0.0
