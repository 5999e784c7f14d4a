"""Tests for the ``repro chaos`` graceful-degradation gate."""

import json
from pathlib import Path

import pytest

from repro.chaos.bench import (
    MODES,
    P99_DEGRADATION_BOUND,
    chaos_scenario,
    report_payload,
    run_chaos_bench,
)
from repro.errors import ConfigurationError
from repro.fleet.controlplane import default_scenario, run_fleet

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def bench(chaos_bench):
    return chaos_bench


class TestScenarios:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown chaos bench"):
            chaos_scenario("heroic")

    def test_rejects_empty_mode_list(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_chaos_bench(modes=())

    def test_fault_free_is_the_stock_scenario(self):
        assert chaos_scenario("fault_free") == default_scenario(
            policy="edf", cache="lru", seed=0
        )

    def test_naive_and_hardened_share_the_fault_schedule(self):
        naive = chaos_scenario("naive")
        hardened = chaos_scenario("hardened")
        assert naive.chaos == hardened.chaos
        assert naive.degradation is None
        assert hardened.degradation is not None


class TestGate:
    def test_invariants_hold_at_the_committed_seed(self, bench):
        assert all(bench.invariants.values()), bench.invariants

    def test_hardened_separates_from_naive(self, bench):
        fault_free = bench.report("fault_free")
        naive = bench.report("naive")
        hardened = bench.report("hardened")
        bound = P99_DEGRADATION_BOUND * fault_free.p99_s
        assert hardened.p99_s <= bound < naive.p99_s
        assert hardened.deadline_miss_rate < naive.deadline_miss_rate
        assert hardened.breaker_trips >= 1
        assert hardened.diverted > 0
        # The naive run has no degradation machinery to report on.
        assert naive.lane_health == ()
        assert hardened.lane_health != ()

    def test_fault_free_mode_matches_fleet_baseline(self, bench):
        # Arming the chaos plumbing without a campaign must change
        # nothing: the fault_free mode reproduces BENCH_fleet's edf+lru
        # combo bit for bit.
        committed = json.loads(
            (REPO_ROOT / "BENCH_fleet.json").read_text()
        )["combos"]["edf+lru"]
        report = bench.report("fault_free")
        assert round(report.p99_s, 3) == committed["p99_s"]
        assert round(report.deadline_miss_rate, 6) == committed[
            "deadline_miss_rate"
        ]
        assert report.launches == committed["launches"]

    def test_unknown_mode_lookup_raises(self, bench):
        with pytest.raises(ConfigurationError, match="was not benched"):
            bench.report("heroic")


class TestPayload:
    def test_payload_shape(self, bench):
        payload = report_payload(bench)
        assert payload["schema"] == "repro-bench-chaos/1"
        assert payload["p99_degradation_bound"] == P99_DEGRADATION_BOUND
        assert set(payload["modes"]) == set(MODES)
        for kpis in payload["modes"].values():
            assert {"p99_s", "deadline_miss_rate", "breaker_trips",
                    "diverted", "rehomed"} <= set(kpis)


class TestDeterminism:
    def test_same_seed_reproduces_every_kpi(self, bench):
        again = run_chaos_bench(seed=0)
        first = report_payload(bench)
        second = report_payload(again)
        assert first["modes"] == second["modes"]
        assert first["invariants"] == second["invariants"]

    def test_hardened_run_reproduces_through_run_fleet(self, bench):
        direct = run_fleet(chaos_scenario("hardened", seed=0))
        via_bench = bench.report("hardened")
        assert direct.p99_s == via_bench.p99_s
        assert direct.breaker_trips == via_bench.breaker_trips
        assert direct.rehomed == via_bench.rehomed
