"""Tests for the traffic bench artefact.

The comparator and the canonical round trip are ``tests/test_bench_registry.py``'s;
the committed ``BENCH_traffic.json`` is gated against a fresh run there.
"""

import pytest

from repro.errors import ConfigurationError
from repro.traffic.bench import (
    SCHEMA,
    bench_scenario,
    in_system_bound,
    report_payload,
    run_traffic_bench,
)
from repro.traffic.synth import default_spec


@pytest.fixture(scope="module")
def bench():
    return run_traffic_bench(requests=2000)


class TestBenchRun:
    def test_rejects_trivial_request_counts(self):
        with pytest.raises(ConfigurationError):
            run_traffic_bench(requests=10)

    def test_invariants_all_hold(self, bench):
        assert all(bench.invariants.values()), bench.invariants

    def test_request_target_is_roughly_hit(self, bench):
        assert 0.9 * 2000 < bench.n_records < 1.1 * 2000

    def test_scenario_sheds_instead_of_queueing_unboundedly(self, bench):
        assert bench.scenario.admission.failover_links == 0
        assert not bench.scenario.retain_records
        assert bench.result.peak_in_system <= in_system_bound(bench.scenario)

    def test_bench_is_deterministic_in_virtual_time(self, bench):
        again = run_traffic_bench(requests=2000)
        assert again.result.fleet == bench.result.fleet
        assert again.n_records == bench.n_records
        assert again.tenant_counts == bench.tenant_counts


class TestPayload:
    def test_payload_sections(self, bench):
        payload = report_payload(bench)
        assert payload["schema"] == SCHEMA
        assert set(payload["tenants"]) == {"search", "analytics", "backup"}
        assert payload["replay"]["n_jobs"] == bench.n_records
        assert payload["replay"]["peak_in_system"] <= (
            payload["replay"]["in_system_bound"]
        )
        for kpis in payload["tenants"].values():
            assert {"n_jobs", "p99_s", "deadline_miss_rate",
                    "goodput_gb_per_s"} <= set(kpis)


def test_in_system_bound_formula():
    spec = default_spec(seed=0, horizon_s=600.0, rate_scale=0.1)
    scenario = bench_scenario(spec, 600.0)
    bound = in_system_bound(scenario)
    assert bound == (
        scenario.spec.n_racks * scenario.admission.max_queue_depth
        + scenario.spec.total_stations
        + 1
    )
