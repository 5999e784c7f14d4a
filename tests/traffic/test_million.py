"""The tentpole acceptance test: a million-request day, end to end.

Synthesises the headline internet-scale day (three tenants, diurnal
curves, one evening flash crowd, ~1M requests), streams it through
the fleet via the chunked replay binder, and asserts the
constant-memory contract: live job objects never exceed the
admission-derived bound and records bound ahead of the clock never
exceed one chunk — independent of the million-record trace length.
"""

import pytest

from repro.traffic.bench import bench_scenario, in_system_bound
from repro.traffic.replay import ReplayConfig, replay_fleet
from repro.traffic.synth import default_spec, expected_records, synthesise

pytestmark = pytest.mark.slow


def test_million_request_day_replays_with_bounded_memory():
    spec = default_spec(seed=0)
    expected = expected_records(spec)
    assert expected > 1e6
    scenario = bench_scenario(spec, spec.horizon_s)
    config = ReplayConfig(chunk_records=256)

    result = replay_fleet(scenario, synthesise(spec), config=config)

    # Every synthesised request flowed through run_fleet...
    assert result.n_records == result.fleet.n_jobs
    assert abs(result.n_records - expected) < 5.0 * expected ** 0.5
    # ...with live objects bounded by one chunk and the shed-overflow
    # admission, not by the trace length.
    assert result.peak_pending <= config.chunk_records
    assert result.peak_in_system <= in_system_bound(scenario)
    # The day genuinely saturates this fleet: shedding engaged, yet
    # every tenant still got service accounted.
    fleet = result.fleet
    assert fleet.shed > 0
    assert fleet.served > 0
    assert fleet.served + fleet.shed + fleet.failovers + fleet.failed == (
        result.n_records
    )
    tenants = {sla.kind: sla for sla in result.tenant_sla.classes}
    assert set(tenants) == {"search", "analytics", "backup"}
    assert sum(sla.n_jobs for sla in tenants.values()) == result.n_records
    for sla in tenants.values():
        assert 0.0 <= sla.deadline_miss_rate <= 1.0
