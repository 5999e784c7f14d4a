"""Tests for the fleet bench harness and its regression gate."""

import json

import pytest

from repro.bench import compare, load, write
from repro.errors import ConfigurationError
from repro.fleet.bench import SCHEMA, report_payload, run_fleet_bench


@pytest.fixture
def bench(fleet_bench):
    return fleet_bench


class TestRunFleetBench:
    def test_runs_every_combo(self, bench):
        labels = [label for label, _ in bench.reports]
        assert labels == ["fcfs+none", "fcfs+lru", "edf+none", "edf+lru"]

    def test_unknown_combo_rejected(self, bench):
        with pytest.raises(ConfigurationError):
            bench.report("sjf+ttl")

    def test_empty_combos_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fleet_bench(combos=())

    def test_headline_invariants_hold(self, bench):
        p99_wins, energy_wins = bench.cache_beats_baseline
        assert p99_wins
        assert energy_wins


class TestPayloadAndGate:
    def test_payload_shape(self, bench):
        payload = report_payload(bench)
        assert payload["schema"] == SCHEMA
        assert set(payload["combos"]) == {label for label, _ in bench.reports}
        assert all(payload["invariants"].values())
        kpis = payload["combos"]["edf+lru"]
        assert kpis["n_jobs"] > 0
        assert kpis["p99_s"] > 0

    def test_write_and_load_round_trip(self, bench, tmp_path):
        path = str(tmp_path / "BENCH_fleet.json")
        write(report_payload(bench), path)
        assert load(path) == json.loads(
            json.dumps(report_payload(bench))
        )

    def test_identical_payloads_pass_the_gate(self, bench):
        payload = report_payload(bench)
        assert compare(payload, payload) == []

    def test_kpi_drift_is_flagged(self, bench):
        payload = report_payload(bench)
        drifted = json.loads(json.dumps(payload))
        drifted["combos"]["edf+lru"]["p99_s"] *= 1.5
        drifted["combos"]["edf+lru"]["launches"] += 1
        problems = compare(payload, drifted)
        assert any("p99_s" in problem for problem in problems)
        assert any("launches" in problem for problem in problems)

    def test_missing_combo_is_flagged(self, bench):
        payload = report_payload(bench)
        fresh = json.loads(json.dumps(payload))
        del fresh["combos"]["edf+none"]
        problems = compare(fresh, payload)
        assert any("edf+none" in problem for problem in problems)

    def test_broken_invariant_is_flagged(self, bench):
        payload = report_payload(bench)
        broken = json.loads(json.dumps(payload))
        broken["invariants"]["edf_lru_beats_fcfs_none_p99"] = False
        problems = compare(broken, payload)
        assert any("invariant" in problem for problem in problems)
