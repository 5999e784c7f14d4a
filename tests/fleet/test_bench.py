"""Tests for the fleet bench harness and its regression gate."""

import pytest

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
