"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_accepts_known_artefacts(self):
        parser = build_parser()
        for artefact in ("table6", "fig2", "table7a", "breakeven", "all", "fig6"):
            assert parser.parse_args([artefact]).artefact == artefact

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_max_tracks_option(self):
        args = build_parser().parse_args(["fig6", "--max-tracks", "2"])
        assert args.max_tracks == 2

    def test_fleet_options(self):
        args = build_parser().parse_args(
            ["fleet", "--horizon", "900", "--bench-out", "out.json",
             "--capacity"]
        )
        assert args.artefact == "fleet"
        assert args.horizon == 900.0
        assert args.bench_out == "out.json"
        assert args.capacity is True


class TestMain:
    def test_capacity_plan_reports_what_it_simulated(self, capsys):
        from argparse import Namespace

        from repro.cli import _capacity_plan

        status = _capacity_plan(Namespace(seed=0, horizon=600.0, workers=None))
        assert status == 0
        out = capsys.readouterr().out
        assert "<- plan" in out
        assert "simulated 12 of 18 candidates" in out

    def test_table6_output(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "Table VI" in out
        assert "295.8x" in out

    def test_fig2_output(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "13.92" in out
        assert "A0" in out

    def test_table8c_output(self, capsys):
        assert main(["table8c"]) == 0
        assert "$14,569" in capsys.readouterr().out

    def test_breakeven_output(self, capsys):
        assert main(["breakeven"]) == 0
        assert "Minimum size" in capsys.readouterr().out

    def test_intro_output(self, capsys):
        assert main(["intro"]) == 0
        assert "580000 s" in capsys.readouterr().out

    def test_fig6_output(self, capsys):
        assert main(["fig6", "--max-tracks", "1"]) == 0
        out = capsys.readouterr().out
        assert "DHL-200-500-256" in out
        assert "time/iter" in out

    def test_fleet_output(self, capsys, tmp_path):
        out_path = str(tmp_path / "fleet.json")
        assert main(["fleet", "--horizon", "900",
                     "--bench-out", out_path]) == 0
        out = capsys.readouterr().out
        assert "Fleet policy comparison" in out
        assert "Per-class SLA (edf+lru)" in out
        assert "interactive" in out
        assert f"wrote fleet KPI baseline to {out_path}" in out


class TestCheckNeverWrites:
    """``--check`` reads its baseline and never overwrites it."""

    def test_drifted_baseline_fails_and_is_left_untouched(
        self, monkeypatch, tmp_path, capsys
    ):
        committed = Path(__file__).resolve().parents[2] / "BENCH_fleet.json"
        baseline = json.loads(committed.read_text(encoding="utf-8"))
        baseline["combos"]["edf+lru"]["p99_s"] += 100.0
        monkeypatch.chdir(tmp_path)
        drifted = tmp_path / "BENCH_fleet.json"
        drifted.write_text(json.dumps(baseline, indent=2, sort_keys=True))
        before = drifted.read_bytes()
        assert main(["fleet", "--check", "BENCH_fleet.json"]) == 1
        assert "REGRESSION: combos.edf+lru.p99_s" in capsys.readouterr().out
        assert drifted.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_fleet.json"
        ]

    def test_bench_out_onto_the_checked_file_is_refused(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_fleet.json").write_text("{}")
        assert main(["fleet", "--check", "BENCH_fleet.json",
                     "--bench-out", "./BENCH_fleet.json"]) == 2
        assert "never overwrites" in capsys.readouterr().err
        assert (tmp_path / "BENCH_fleet.json").read_text() == "{}"


class TestEngineBenchCli:
    def test_mode_and_scale_options(self):
        args = build_parser().parse_args(
            ["bench", "--mode", "engine", "--scale", "0.5",
             "--bench-out", "out.json", "--check", "BENCH_engine.json"]
        )
        assert args.mode == "engine"
        assert args.scale == 0.5
        assert args.bench_out == "out.json"
        assert args.check == "BENCH_engine.json"

    def test_mode_defaults_to_sweep(self):
        assert build_parser().parse_args(["bench"]).mode == "sweep"

    def test_every_registered_bench_is_a_mode(self):
        from repro.bench import BENCHES

        for name in BENCHES:
            assert build_parser().parse_args(
                ["bench", "--mode", name]
            ).mode == name

    def test_engine_bench_output(self, capsys, tmp_path):
        # The bench's defaults, as the committed baseline runs it: the
        # 2.0x gate is the best of five interleaved full-size rounds.
        # Shorter runs read well under 2x on a loaded 2-vCPU host.
        out_path = str(tmp_path / "engine.json")
        assert main(["bench", "--mode", "engine",
                     "--bench-out", out_path]) == 0
        out = capsys.readouterr().out
        assert "DES engine bench" in out
        assert "microbench (gate)" in out
        assert "dhlsim scenario" in out
        assert f"wrote engine perf baseline to {out_path}" in out


class TestReplicateCli:
    def test_replicate_options(self):
        args = build_parser().parse_args(
            ["replicate", "--replications", "4", "--engine", "serial",
             "--policy", "fcfs", "--cache", "none",
             "--replicate-out", "rep.json"]
        )
        assert args.artefact == "replicate"
        assert args.replications == 4
        assert args.engine == "serial"
        assert args.policy == "fcfs"
        assert args.cache == "none"
        assert args.replicate_out == "rep.json"

    def test_replicate_defaults_to_both_engines(self):
        args = build_parser().parse_args(["replicate"])
        assert args.engine == "both"
        assert args.replications == 8

    def test_replicate_output_serial(self, capsys, tmp_path):
        out_path = str(tmp_path / "rep.json")
        assert main(["replicate", "--horizon", "600", "--replications", "2",
                     "--engine", "serial", "--replicate-out", out_path]) == 0
        out = capsys.readouterr().out
        assert "Fleet Monte-Carlo" in out
        assert "p99_s" in out
        assert f"wrote replication report to {out_path}" in out

    def test_replicate_both_engines_byte_identical(self, capsys, tmp_path):
        out_path = str(tmp_path / "rep.json")
        assert main(["replicate", "--horizon", "600", "--replications", "2",
                     "--replicate-out", out_path]) == 0
        out = capsys.readouterr().out
        assert "serial and process reports are byte-identical" in out
