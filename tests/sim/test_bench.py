"""Tests for the engine bench harness (structure and gate logic).

Timing ratios are asserted by the committed ``BENCH_engine.json`` and
the benchmark harness, not here: these tests run tiny workloads and
check the machinery — payload shape, baseline round-trip, and the
regression-gate comparison over synthetic payloads.
"""

import pytest

from repro.bench import load, write
from repro.errors import ConfigurationError
from repro.sim.bench import (
    GATE_FLOOR,
    GATE_WORKLOAD,
    SCHEMA,
    SPEEDUP_FLOORS,
    WORKLOADS,
    _best_of,
    compare_to_baseline,
    report_payload,
    run_engine_bench,
)


def tiny_bench():
    return run_engine_bench(repeats=1, scale=0.02, include_scenario=False)


def synthetic_payload(**overrides):
    """A healthy payload: every workload at 1.5x its floor."""
    payload = {
        "schema": SCHEMA,
        "gate": {"workload": GATE_WORKLOAD, "floor": GATE_FLOOR,
                 "speedup": GATE_FLOOR * 1.5, "passed": True},
        "events_identical": True,
        "workloads": {
            name: {"speedup": floor * 1.5, "floor": floor}
            for name, floor in SPEEDUP_FLOORS.items()
        },
    }
    payload.update(overrides)
    return payload


class TestRunEngineBench:
    def test_every_workload_runs_on_both_engines(self):
        report = tiny_bench()
        assert {entry.name for entry in report.results} == set(WORKLOADS)
        for entry in report.results:
            assert entry.events > 0
            assert entry.optimised_s > 0 and entry.reference_s > 0
            # The engines must agree on how many events they scheduled.
            assert entry.events_identical

    def test_gate_workload_is_benched(self):
        report = tiny_bench()
        assert report.result(GATE_WORKLOAD).name == GATE_WORKLOAD
        assert report.gate_speedup > 0

    def test_unknown_workload_lookup_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_bench().result("warp-drive")

    def test_best_of_interleaves_the_timed_functions(self):
        calls = []

        def timed(name, value):
            def fn():
                calls.append(name)
                return value
            return fn

        results = _best_of([timed("opt", 1), timed("ref", 2)], 3)
        assert calls == ["opt", "ref"] * 3
        assert [value for value, _ in results] == [1, 2]
        assert all(best_s >= 0 for _, best_s in results)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            run_engine_bench(repeats=0)
        with pytest.raises(ConfigurationError):
            run_engine_bench(scale=0.0)

    def test_payload_shape_and_roundtrip(self, tmp_path):
        report = tiny_bench()
        payload = report_payload(report)
        assert payload["schema"] == SCHEMA
        assert set(payload["workloads"]) == set(WORKLOADS)
        for entry in payload["workloads"].values():
            assert {"iterations", "events", "optimised_events_per_sec",
                    "reference_events_per_sec", "speedup",
                    "floor"} <= set(entry)
        assert payload["scenario"] == {"skipped": "disabled"}
        assert "replicate" not in payload  # the bench times the engine only
        path = str(tmp_path / "bench.json")
        write(payload, path)
        assert load(path)["gate"]["workload"] == GATE_WORKLOAD


class TestCompareToBaseline:
    def test_healthy_payloads_have_no_problems(self):
        assert compare_to_baseline(synthetic_payload(),
                                   synthetic_payload()) == []

    def test_failed_gate_is_flagged_on_either_side(self):
        bad_gate = synthetic_payload(
            gate={"workload": GATE_WORKLOAD, "floor": GATE_FLOOR,
                  "speedup": 1.2, "passed": False}
        )
        assert any("gate failed" in problem for problem in
                   compare_to_baseline(bad_gate, synthetic_payload()))
        assert any("gate failed" in problem for problem in
                   compare_to_baseline(synthetic_payload(), bad_gate))

    def test_event_count_mismatch_is_flagged(self):
        drifted = synthetic_payload(events_identical=False)
        assert any("identical event counts" in problem for problem in
                   compare_to_baseline(drifted, synthetic_payload()))

    def test_fresh_speedup_below_floor_is_flagged(self):
        fresh = synthetic_payload()
        fresh["workloads"]["ticker"] = {
            "speedup": SPEEDUP_FLOORS["ticker"] * 0.9,
            "floor": SPEEDUP_FLOORS["ticker"],
        }
        problems = compare_to_baseline(fresh, synthetic_payload())
        assert any("ticker" in problem and "below its" in problem
                   for problem in problems)

    def test_collapse_below_baseline_ratio_is_flagged(self):
        # Passes its floor, but fell to under 60% of the baseline's
        # measured speedup: still a regression.
        baseline = synthetic_payload()
        baseline["workloads"]["cancel"] = {"speedup": 3.0, "floor": 1.1}
        fresh = synthetic_payload()
        fresh["workloads"]["cancel"] = {"speedup": 1.2, "floor": 1.1}
        problems = compare_to_baseline(fresh, baseline)
        assert any("regressed below" in problem for problem in problems)

    def test_missing_workload_is_flagged(self):
        fresh = synthetic_payload()
        del fresh["workloads"]["store"]
        assert any("missing from fresh run" in problem for problem in
                   compare_to_baseline(fresh, synthetic_payload()))


class TestCommittedBaseline:
    def test_committed_baseline_passes_its_own_gate(self):
        from pathlib import Path

        baseline_path = Path(__file__).resolve().parents[2] / "BENCH_engine.json"
        baseline = load(str(baseline_path))
        assert baseline["schema"] == SCHEMA
        assert baseline["gate"]["passed"]
        assert baseline["gate"]["speedup"] >= GATE_FLOOR
        assert compare_to_baseline(baseline, baseline) == []
