"""Tests for the benchmark trend gate (benchmarks/trend.py)."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_TREND_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "trend.py"
)


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location("trend", _TREND_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, name, payload):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


class TestSpeedupFields:
    def test_only_speedup_numerics_collected(self, trend):
        fields = trend.speedup_fields(
            {
                "speedup": 5.0,
                "segmented_speedup": 2,
                "seconds": 1.0,
                "speedup_note": "text",
            }
        )
        assert fields == {"speedup": 5.0, "segmented_speedup": 2.0}


def _entry(fields, cores=None):
    return {"fields": fields, "cores": cores}


class TestCompare:
    def test_within_tolerance_passes(self, trend):
        regressions, notes = trend.compare(
            {"BENCH_a.json": _entry({"speedup": 5.0})},
            {"BENCH_a.json": _entry({"speedup": 4.5})},
            tolerance=0.2,
        )
        assert regressions == []
        assert any("BENCH_a.json:speedup" in note for note in notes)

    def test_regression_beyond_tolerance_fails(self, trend):
        regressions, _ = trend.compare(
            {"BENCH_a.json": _entry({"speedup": 5.0})},
            {"BENCH_a.json": _entry({"speedup": 3.9})},
            tolerance=0.2,
        )
        assert len(regressions) == 1
        assert "BENCH_a.json:speedup" in regressions[0]

    def test_new_and_dropped_benchmarks_are_notes(self, trend):
        regressions, notes = trend.compare(
            {"BENCH_old.json": _entry({"speedup": 2.0})},
            {"BENCH_new.json": _entry({"speedup": 9.0})},
            tolerance=0.2,
        )
        assert regressions == []
        assert any("previous run only" in note for note in notes)
        assert any("new benchmark" in note for note in notes)

    def test_core_count_change_skips_the_comparison(self, trend):
        # A 4-core baseline against a 1-core rerun would be a fake
        # regression; the file is skipped wholesale with a note.
        regressions, notes = trend.compare(
            {"BENCH_a.json": _entry({"speedup": 4.0}, cores=4)},
            {"BENCH_a.json": _entry({"speedup": 0.9}, cores=1)},
            tolerance=0.2,
        )
        assert regressions == []
        assert any("cores changed (4 -> 1)" in note for note in notes)

    def test_missing_core_metadata_still_compares(self, trend):
        # Pre-cores artifacts keep trending: nothing proves the runs
        # differ, and dropping coverage silently would be worse.
        regressions, _ = trend.compare(
            {"BENCH_a.json": _entry({"speedup": 5.0})},
            {"BENCH_a.json": _entry({"speedup": 1.0}, cores=4)},
            tolerance=0.2,
        )
        assert len(regressions) == 1


class TestCollect:
    def test_collect_reads_cores(self, trend, tmp_path):
        _write(tmp_path, "BENCH_x.json", {"speedup": 3.0, "cores": 2})
        _write(tmp_path, "BENCH_y.json", {"seconds": 1.0})  # no claim
        collected = trend.collect(str(tmp_path))
        assert collected == {
            "BENCH_x.json": {
                "fields": {"speedup": 3.0},
                "cores": 2,
            }
        }


class TestMain:
    def test_missing_previous_directory_passes(self, trend, tmp_path, capsys):
        current = tmp_path / "current"
        _write(current, "BENCH_x.json", {"speedup": 4.0})
        code = trend.main(
            ["--previous", str(tmp_path / "missing"), "--current", str(current)]
        )
        assert code == 0
        assert "baseline" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, trend, tmp_path, capsys):
        previous = tmp_path / "previous"
        current = tmp_path / "current"
        _write(previous, "BENCH_x.json", {"speedup": 10.0})
        _write(current, "BENCH_x.json", {"speedup": 5.0})
        code = trend.main(
            ["--previous", str(previous), "--current", str(current)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_healthy_run_exits_zero(self, trend, tmp_path):
        previous = tmp_path / "previous"
        current = tmp_path / "current"
        _write(previous, "BENCH_x.json", {"speedup": 10.0})
        _write(current, "BENCH_x.json", {"speedup": 9.5})
        assert (
            trend.main(
                ["--previous", str(previous), "--current", str(current)]
            )
            == 0
        )

    def test_a_retired_benchmark_is_a_note(self, trend, tmp_path, capsys):
        # A deleted benchmark's artifact is a note, never a failure.
        previous = tmp_path / "previous"
        current = tmp_path / "current"
        _write(previous, "BENCH_x.json", {"speedup": 10.0})
        _write(current, "BENCH_x.json", {"speedup": 10.0})
        _write(previous, "BENCH_retired.json", {"overlap_speedup": 1.4})
        assert (
            trend.main(
                ["--previous", str(previous), "--current", str(current)]
            )
            == 0
        )
        assert (
            "BENCH_retired.json: present in previous run only"
            in capsys.readouterr().out
        )

    def test_unreadable_json_is_skipped(self, trend, tmp_path, capsys):
        previous = tmp_path / "previous"
        current = tmp_path / "current"
        _write(previous, "BENCH_x.json", {"speedup": 1.0})
        _write(current, "BENCH_x.json", {"speedup": 1.0})
        (current / "BENCH_broken.json").write_text("{", encoding="utf-8")
        assert (
            trend.main(
                ["--previous", str(previous), "--current", str(current)]
            )
            == 0
        )
        assert "skipping unreadable" in capsys.readouterr().out
