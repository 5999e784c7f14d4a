"""Trace-invariant property tests over fault-injected campaigns.

These are the observability acceptance criteria: for every scenario —
including PR 1's chaos cocktails — the trace must show balanced
claim/release pairs, strictly nested synchronous spans, phase spans that
partition their attempt exactly, and a campaign span whose duration
matches the scheduler's reported makespan to 1e-6 s.
"""

import pytest

from repro.obs.probe import open_claim_counts, trace_leaked_resources
from repro.obs.scenarios import SCENARIOS, run_scenario
from repro.obs.tracer import span_nesting_violations

SEEDS = (0, 1, 7)


@pytest.fixture(scope="module")
def results():
    """Every scenario x seed combination, run once per module."""
    return {
        (name, seed): run_scenario(name, shards=4, seed=seed)
        for name in sorted(SCENARIOS)
        for seed in SEEDS
    }


def scenario_cases():
    return [
        pytest.param(name, seed, id=f"{name}-seed{seed}")
        for name in sorted(SCENARIOS)
        for seed in SEEDS
    ]


@pytest.mark.parametrize("name,seed", scenario_cases())
class TestClaimRelease:
    def test_every_claim_has_a_release(self, results, name, seed):
        result = results[(name, seed)]
        for resource, held in open_claim_counts(result.tracer).items():
            assert held == 0, f"{resource} has {held} unreleased claims"

    def test_no_span_left_open(self, results, name, seed):
        result = results[(name, seed)]
        assert result.tracer.open_spans() == []

    def test_trace_audit_matches_scheduler_audit(self, results, name, seed):
        result = results[(name, seed)]
        expected = result.system.leaked_resources()
        assert trace_leaked_resources(result.tracer, result.system) == expected
        assert all(leak == 0 for leak in expected.values())


@pytest.mark.parametrize("name,seed", scenario_cases())
class TestSpanStructure:
    def test_sync_spans_nest(self, results, name, seed):
        result = results[(name, seed)]
        violations = span_nesting_violations(result.tracer.spans)
        assert violations == [], violations

    def test_phase_spans_partition_each_attempt(self, results, name, seed):
        """tube.wait + undock + transit + dock == the attempt, exactly."""
        result = results[(name, seed)]
        tracer = result.tracer
        phases = ("tube.wait", "undock", "transit", "dock")
        attempts = tracer.closed_spans("attempt")
        assert attempts, "campaign recorded no shuttle attempts"
        for attempt in attempts:
            children = [
                span for span in tracer.closed_spans()
                if span.track == attempt.track
                and span.name in phases
                and span.start_s >= attempt.start_s - 1e-9
                and span.end_s <= attempt.end_s + 1e-9
            ]
            covered = sum(span.duration_s for span in children)
            assert covered == pytest.approx(attempt.duration_s, abs=1e-6)

    def test_campaign_span_matches_makespan(self, results, name, seed):
        """The acceptance criterion: the bulk_transfer span's duration
        equals the scheduler's reported makespan within 1e-6 s."""
        result = results[(name, seed)]
        (campaign,) = result.tracer.closed_spans("bulk_transfer")
        assert campaign.duration_s == pytest.approx(
            result.makespan_s, abs=1e-6
        )

    def test_shuttle_spans_cover_their_attempts(self, results, name, seed):
        result = results[(name, seed)]
        tracer = result.tracer
        for attempt in tracer.closed_spans("attempt"):
            parents = [
                span for span in tracer.closed_spans("shuttle")
                if span.track == attempt.track
                and span.start_s <= attempt.start_s + 1e-9
                and span.end_s >= attempt.end_s - 1e-9
            ]
            assert parents, f"attempt {attempt!r} has no enclosing shuttle span"


class TestFaultWindows:
    def test_fault_spans_recorded_and_closed(self, results):
        result = results[("bulk-faults", 0)]
        windows = result.tracer.find_spans("fault.track")
        assert windows, "fixed-distribution chaos produced no fault windows"
        assert all(not span.open for span in windows)
        assert len(windows) == result.chaos.track.outages

    def test_fault_downtime_matches_injector(self, results):
        result = results[("bulk-faults", 0)]
        traced = sum(
            span.duration_s for span in result.tracer.find_spans("fault.track")
        )
        assert traced == pytest.approx(result.chaos.track.downtime_s, abs=1e-6)

    def test_retry_instants_present_under_faults(self, results):
        result = results[("bulk-faults", 0)]
        names = {instant.name for instant in result.tracer.instants}
        assert "shuttle.fault" in names
        assert "shuttle.retry" in names


class TestMetricsAgreement:
    @pytest.mark.parametrize("name,seed", scenario_cases())
    def test_launch_count_matches_telemetry(self, results, name, seed):
        result = results[(name, seed)]
        launches = result.system.metrics.value("count.launches")
        assert launches == result.system.metrics.value("count.launches")
        assert launches >= result.report.shards_moved

    @pytest.mark.parametrize("name,seed", scenario_cases())
    def test_tube_occupancy_bounded_by_capacity(self, results, name, seed):
        result = results[(name, seed)]
        for track in result.system.tracks:
            samples = [
                sample.value for sample in result.tracer.counters
                if sample.name == f"occupancy.tube:{track.name}"
            ]
            assert samples, "tube probe recorded no occupancy samples"
            assert max(samples) <= track.tube.capacity
