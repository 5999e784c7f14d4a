"""Tests for the sweep bench and the ``repro bench`` artefact."""

import json

import pytest

from repro.analysis.perf import (
    BenchReport,
    EngineTiming,
    bench_points,
    bench_table,
    compare_to_baseline,
    report_payload,
    run_bench,
)
from repro.bench import environment_info, load, write
from repro.cli import main
from repro.errors import ConfigurationError


def tiny_bench(**overrides):
    """A fast bench: small grid, one repeat."""
    defaults = dict(n_points=24, repeats=1)
    defaults.update(overrides)
    return run_bench(**defaults)


class TestBenchPoints:
    def test_meets_requested_floor(self):
        for floor in (24, 500, 600):
            assert len(bench_points(floor)) >= floor

    def test_deterministic_and_distinct(self):
        grid = bench_points(600)
        assert grid == bench_points(600)
        assert len(set(grid)) == len(grid)

    def test_covers_both_motion_branches(self):
        from repro.core.physics import motion_profile

        grid = bench_points(600)
        cruise = [motion_profile(point).cruise_time for point in grid]
        assert min(cruise) == 0.0 and max(cruise) > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            bench_points(0)


class TestRunBench:
    def test_engines_timed_and_identical(self):
        report = tiny_bench()
        assert report.identical_results
        assert {entry.engine for entry in report.timings} == {"serial", "vector"}
        assert all(run > 0 for entry in report.timings for run in entry.runs_s)
        assert report.speedup("serial") == 1.0

    def test_rejects_bad_repeats(self):
        with pytest.raises(ConfigurationError):
            run_bench(repeats=0)

    def test_unknown_engine_lookup_rejected(self):
        report = tiny_bench()
        with pytest.raises(ConfigurationError):
            report.timing("gpu")


class TestPayloadAndBaseline:
    def test_payload_round_trips_through_json(self, tmp_path):
        report = tiny_bench()
        path = write(report_payload(report), str(tmp_path / "BENCH_sweep.json"))
        loaded = load(path)
        assert loaded == report_payload(report)
        assert loaded["schema"] == "repro-bench-sweep/1"
        assert loaded["n_points"] == report.n_points
        assert set(loaded["engines"]) == {"serial", "vector"}
        assert loaded["speedup"]["best_engine"] == "vector"

    def test_environment_recorded(self):
        info = environment_info()
        assert info["python"] and info["numpy"]
        assert info["cpu_count"] >= 1

    def test_regression_detection(self):
        healthy = {
            "identical_results": True,
            "speedup": {"best": 5.0},
        }
        baseline = {"speedup": {"best": 5.0}}
        assert compare_to_baseline(healthy, baseline) == []

        broken = {"identical_results": False, "speedup": {"best": 5.0}}
        assert any(
            "identical" in message
            for message in compare_to_baseline(broken, baseline)
        )

        slow = {"identical_results": True, "speedup": {"best": 2.0}}
        messages = compare_to_baseline(slow, baseline)
        assert any("regressed" in message for message in messages)

        weak_baseline = {"speedup": {"best": 3.0}}
        messages = compare_to_baseline(healthy, weak_baseline)
        assert any("floor" in message for message in messages)

    def test_committed_baseline_is_valid(self):
        """The repo's committed BENCH_sweep.json parses and passes its
        own regression gate."""
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "BENCH_sweep.json"
        )
        baseline = load(path)
        assert compare_to_baseline(baseline, baseline) == []
        assert baseline["n_points"] >= 500


class TestBenchTable:
    def test_rows_per_engine(self):
        report = BenchReport(
            n_points=10,
            dataset="d",
            repeats=2,
            timings=(
                EngineTiming(engine="serial", runs_s=(0.4, 0.5)),
                EngineTiming(engine="vector", runs_s=(0.1, 0.2)),
            ),
            identical_results=True,
        )
        headers, rows = bench_table(report)
        assert headers[0] == "Engine"
        assert [row[0] for row in rows] == ["serial", "vector"]
        assert rows[1][-1] == "4.00x"
        assert report.best_engine == "vector"
        assert report.best_speedup == pytest.approx(4.0)


class TestBenchCli:
    def test_bench_artefact_writes_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sweep.json"
        code = main([
            "bench",
            "--points", "24",
            "--repeats", "1",
            "--bench-out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Sweep-engine bench" in printed
        payload = json.loads(out.read_text())
        assert payload["identical_results"] is True

    def test_bench_parser_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "bench", "--points", "500", "--repeats", "2",
            "--workers", "4", "--check", "BENCH_sweep.json",
        ])
        assert args.points == 500
        assert args.repeats == 2
        assert args.workers == 4
        assert args.check == "BENCH_sweep.json"
        # Default resolves per --mode to BENCH_<mode>.json.
        assert args.bench_out is None
