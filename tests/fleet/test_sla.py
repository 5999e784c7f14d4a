"""Tests for SLA tracking: records, percentiles, goodput, metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.sla import (
    DEFAULT_SAMPLE_CAP,
    DEFAULT_TARGET,
    ClassTarget,
    JobRecord,
    LatencyReservoir,
    Outcome,
    SlaTracker,
    StreamStatsState,
    merge_sla_states,
    report_from_state,
    tenant_report_from_state,
)
from repro.obs import MetricsRegistry
from repro.sim import Environment


def make_tracker(**kwargs):
    env = Environment()
    registry = MetricsRegistry(env)
    targets = {"interactive": ClassTarget(deadline_s=60.0, priority=0)}
    return registry, SlaTracker(registry, targets, **kwargs)


def observe(tracker, record):
    """Feed ``record``'s fields to ``tracker`` as the control plane does."""
    tracker.observe(record.kind, record.tenant, record.outcome,
                    record.arrival_s, record.deadline_s, record.read_bytes,
                    record.completed_s, record)


def served(job_id, kind, arrival, completed, deadline=60.0, size=1e12):
    return JobRecord(
        job_id=job_id,
        kind=kind,
        dataset="ds-000",
        arrival_s=arrival,
        deadline_s=arrival + deadline,
        read_bytes=size,
        outcome=Outcome.SERVED,
        completed_s=completed,
    )


class TestJobRecord:
    def test_latency_and_deadline(self):
        record = served(0, "interactive", 10.0, 40.0)
        assert record.latency_s == 30.0
        assert record.met_deadline

    def test_late_completion_misses(self):
        record = served(0, "interactive", 10.0, 200.0)
        assert not record.met_deadline

    def test_shed_jobs_miss_and_have_no_latency(self):
        record = JobRecord(
            job_id=0, kind="batch", dataset="ds-000", arrival_s=0.0,
            deadline_s=60.0, read_bytes=1e12, outcome=Outcome.SHED,
        )
        assert not record.met_deadline
        with pytest.raises(ConfigurationError):
            _ = record.latency_s


class TestClassTarget:
    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            ClassTarget(deadline_s=0.0)

    def test_unknown_kind_gets_default(self):
        _, tracker = make_tracker()
        assert tracker.target_for("mystery") == DEFAULT_TARGET
        assert tracker.target_for("interactive").deadline_s == 60.0


class TestSlaTrackerMetrics:
    def test_observation_lands_in_registry(self):
        registry, tracker = make_tracker()
        observe(tracker, served(0, "interactive", 0.0, 30.0))
        observe(tracker, served(1, "interactive", 0.0, 500.0))  # late
        assert registry.value("count.fleet.served") == 2
        assert registry.value("count.fleet.deadline_missed") == 1

    def test_latency_histogram_per_class(self):
        registry, tracker = make_tracker()
        observe(tracker, served(0, "interactive", 0.0, 30.0))
        observe(tracker, served(1, "batch", 0.0, 30.0))
        snapshot = registry.snapshot()
        assert "fleet.latency_s.interactive" in snapshot
        assert "fleet.latency_s.batch" in snapshot

    def test_mixed_outcomes_pin_registry_and_state(self):
        """Metric names, creation order, values and streaming state."""

        def record(job_id, kind, outcome, arrival, completed, tenant=""):
            return JobRecord(
                job_id=job_id, kind=kind, dataset="ds-000",
                arrival_s=arrival, deadline_s=arrival + 60.0,
                read_bytes=1e12 * (job_id + 1), outcome=outcome,
                completed_s=completed, tenant=tenant,
            )

        registry, tracker = make_tracker(retain_records=False)
        for rec in (
            record(0, "interactive", Outcome.SERVED, 0.0, 30.0),
            record(1, "batch", Outcome.SHED, 5.0, None),
            record(2, "interactive", Outcome.FAILOVER, 10.0, 400.0),  # late
            record(3, "batch", Outcome.SERVED, 20.0, 70.0, tenant="search"),
            record(4, "archive", Outcome.FAILED, 30.0, None),
            record(5, "interactive", Outcome.SERVED, 40.0, 300.0, tenant="search"),
            record(6, "batch", Outcome.FAILOVER, 50.0, 90.0),
            record(7, "interactive", Outcome.SHED, 60.0, None, tenant="backup"),
        ):
            observe(tracker, rec)

        # Metrics are created on first use, in first-use order.
        assert list(registry._metrics) == [
            "count.fleet.served",
            "fleet.latency_s.interactive",
            "count.fleet.shed",
            "count.fleet.deadline_missed",
            "count.fleet.failover",
            "fleet.latency_s.batch",
            "count.fleet.failed",
        ]
        snapshot = registry.snapshot()
        counters = {
            name: entry["value"] for name, entry in snapshot.items()
            if entry["type"] == "counter"
        }
        assert counters == {
            "count.fleet.deadline_missed": 5.0,
            "count.fleet.failed": 1.0,
            "count.fleet.failover": 2.0,
            "count.fleet.served": 3.0,
            "count.fleet.shed": 2.0,
        }
        interactive = snapshot["fleet.latency_s.interactive"]
        assert (interactive["count"], interactive["sum"]) == (3, 680.0)
        assert (interactive["min"], interactive["max"]) == (30.0, 390.0)
        assert interactive["buckets"][50.0] == 1
        assert interactive["buckets"][500.0] == 2
        batch = snapshot["fleet.latency_s.batch"]
        assert (batch["count"], batch["sum"]) == (2, 90.0)
        assert batch["buckets"][50.0] == 2

        state = tracker.export_state()
        assert state.overall == StreamStatsState(
            n_jobs=8, n_completed=5, misses=5, good_bytes=12e12,
            samples=(30.0, 390.0, 50.0, 260.0, 40.0), n_observed=5,
        )
        assert state.by_kind["interactive"] == StreamStatsState(
            n_jobs=4, n_completed=3, misses=3, good_bytes=1e12,
            samples=(30.0, 390.0, 260.0), n_observed=3,
        )
        assert state.by_kind["archive"] == StreamStatsState(
            n_jobs=1, n_completed=0, misses=1, good_bytes=0.0,
            samples=(), n_observed=0,
        )
        assert state.by_tenant["search"] == StreamStatsState(
            n_jobs=2, n_completed=2, misses=1, good_bytes=4e12,
            samples=(50.0, 260.0), n_observed=2,
        )

    def test_retained_tracker_exports_records_only(self):
        _, tracker = make_tracker()
        records = [served(0, "interactive", 0.0, 30.0),
                   tenant_served(1, "search", 0.0, 500.0)]
        for record in records:
            observe(tracker, record)
        state = tracker.export_state()
        assert state.records == tuple(records)
        assert state.by_kind == {} and state.by_tenant == {}
        assert state.overall == StreamStatsState(
            n_jobs=0, n_completed=0, misses=0, good_bytes=0.0,
            samples=(), n_observed=0,
        )


class TestSlaReport:
    def test_percentiles_match_numpy(self):
        _, tracker = make_tracker()
        rng = np.random.default_rng(1)
        latencies = rng.uniform(1.0, 100.0, size=73)
        for index, latency in enumerate(latencies):
            observe(tracker, served(index, "interactive", 0.0, float(latency)))
        report = tracker.report(horizon_s=3600.0)
        sla = report.for_kind("interactive")
        assert sla.p95_s == pytest.approx(float(np.percentile(latencies, 95)))
        assert sla.p50_s == pytest.approx(float(np.percentile(latencies, 50)))

    def test_miss_rate_counts_sheds(self):
        _, tracker = make_tracker()
        observe(tracker, served(0, "interactive", 0.0, 30.0))
        observe(tracker, JobRecord(
            job_id=1, kind="interactive", dataset="ds-000", arrival_s=0.0,
            deadline_s=60.0, read_bytes=1e12, outcome=Outcome.SHED,
        ))
        report = tracker.report(horizon_s=3600.0)
        assert report.for_kind("interactive").deadline_miss_rate == 0.5

    def test_goodput_counts_only_in_deadline_bytes(self):
        _, tracker = make_tracker()
        observe(tracker, served(0, "interactive", 0.0, 30.0, size=2e12))
        observe(tracker, served(1, "interactive", 0.0, 500.0, size=7e12))
        report = tracker.report(horizon_s=1000.0)
        assert report.for_kind("interactive").goodput_bytes_per_s == (
            pytest.approx(2e12 / 1000.0)
        )

    def test_empty_class_has_infinite_tail(self):
        _, tracker = make_tracker()
        observe(tracker, JobRecord(
            job_id=0, kind="batch", dataset="ds-000", arrival_s=0.0,
            deadline_s=60.0, read_bytes=1e12, outcome=Outcome.SHED,
        ))
        report = tracker.report(horizon_s=100.0)
        assert report.for_kind("batch").p99_s == float("inf")

    def test_overall_aggregates_all_classes(self):
        _, tracker = make_tracker()
        observe(tracker, served(0, "interactive", 0.0, 30.0))
        observe(tracker, served(1, "batch", 0.0, 40.0))
        report = tracker.report(horizon_s=100.0)
        assert report.overall.n_jobs == 2
        assert {c.kind for c in report.classes} == {"interactive", "batch"}

    def test_unknown_kind_lookup_rejected(self):
        _, tracker = make_tracker()
        observe(tracker, served(0, "interactive", 0.0, 30.0))
        with pytest.raises(ConfigurationError):
            tracker.report(horizon_s=100.0).for_kind("archive")


class TestLatencyReservoir:
    def test_exact_until_cap(self):
        reservoir = LatencyReservoir(cap=16)
        for value in range(16):
            reservoir.observe(float(value))
        assert reservoir.exact
        assert reservoir.samples == [float(value) for value in range(16)]

    def test_bounded_and_unbiased_past_cap(self):
        reservoir = LatencyReservoir(cap=64, seed=1)
        for value in range(10_000):
            reservoir.observe(float(value))
        assert not reservoir.exact
        assert len(reservoir.samples) == 64
        # A uniform reservoir over 0..9999 should not be dominated by
        # either extreme of the stream.
        assert 2000.0 < float(np.mean(reservoir.samples)) < 8000.0

    def test_deterministic_for_fixed_order(self):
        def fill():
            reservoir = LatencyReservoir(cap=32, seed=7)
            for value in range(500):
                reservoir.observe(float(value))
            return reservoir.samples

        assert fill() == fill()

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ConfigurationError):
            LatencyReservoir(cap=0)


class TestStreamingMode:
    def test_streaming_matches_retained_within_cap(self):
        _, retained = make_tracker()
        _, streaming = make_tracker(retain_records=False)
        rng = np.random.default_rng(3)
        for index, latency in enumerate(rng.uniform(1.0, 200.0, size=211)):
            record = served(index, "interactive", 0.0, float(latency))
            observe(retained, record)
            observe(streaming, record)
        assert streaming.records == []
        exact = retained.report(horizon_s=3600.0)
        approx = streaming.report(horizon_s=3600.0)
        assert approx == exact

    def test_streaming_counts_exact_past_cap(self):
        _, tracker = make_tracker(retain_records=False)
        n = DEFAULT_SAMPLE_CAP + 500
        for index in range(n):
            observe(tracker, served(index, "interactive", 0.0, 30.0))
        sla = tracker.report(horizon_s=100.0).for_kind("interactive")
        assert sla.n_jobs == sla.n_completed == n
        assert sla.deadline_miss_rate == 0.0
        assert sla.goodput_bytes_per_s == pytest.approx(n * 1e12 / 100.0)


def tenant_served(job_id, tenant, arrival, completed):
    return JobRecord(
        job_id=job_id,
        kind="interactive",
        dataset="ds-000",
        arrival_s=arrival,
        deadline_s=arrival + 60.0,
        read_bytes=1e12,
        outcome=Outcome.SERVED,
        completed_s=completed,
        tenant=tenant,
    )


class TestTenantReport:
    @pytest.mark.parametrize("retain", [True, False])
    def test_one_row_per_tenant(self, retain):
        _, tracker = make_tracker(retain_records=retain)
        observe(tracker, tenant_served(0, "search", 0.0, 30.0))
        observe(tracker, tenant_served(1, "search", 0.0, 500.0))  # late
        observe(tracker, tenant_served(2, "backup", 0.0, 10.0))
        report = tracker.tenant_report(horizon_s=100.0)
        assert [c.kind for c in report.classes] == ["backup", "search"]
        assert report.for_kind("search").deadline_miss_rate == 0.5
        assert report.for_kind("backup").deadline_miss_rate == 0.0
        assert report.overall.n_jobs == 3

    @pytest.mark.parametrize("retain", [True, False])
    def test_untenanted_records_stay_out_of_rows(self, retain):
        _, tracker = make_tracker(retain_records=retain)
        observe(tracker, served(0, "interactive", 0.0, 30.0))
        observe(tracker, tenant_served(1, "search", 0.0, 30.0))
        report = tracker.tenant_report(horizon_s=100.0)
        assert [c.kind for c in report.classes] == ["search"]
        # ...but they still reconcile through the overall row.
        assert report.overall.n_jobs == 2

    def test_modes_agree_on_tenant_rows(self):
        _, retained = make_tracker()
        _, streaming = make_tracker(retain_records=False)
        rng = np.random.default_rng(5)
        for index in range(150):
            record = tenant_served(
                index,
                ("search", "analytics", "backup")[index % 3],
                float(index),
                float(index) + float(rng.uniform(1.0, 120.0)),
            )
            observe(retained, record)
            observe(streaming, record)
        assert (
            streaming.tenant_report(horizon_s=3600.0)
            == retained.tenant_report(horizon_s=3600.0)
        )

    @pytest.mark.parametrize("retain", [True, False])
    def test_no_tenant_rows_means_no_tenant_report(self, retain):
        _, tracker = make_tracker(retain_records=retain)
        assert tracker.tenant_report(horizon_s=100.0) is None
        observe(tracker, served(0, "interactive", 0.0, 30.0))
        assert tracker.tenant_report(horizon_s=100.0) is None
        assert tracker.report(horizon_s=100.0).overall.n_jobs == 1


def mixed_record(job_id):
    """A deterministic mix of kinds, tenants and outcomes."""
    kind = ("interactive", "batch", "archive")[job_id % 3]
    tenant = ("", "search", "backup", "analytics")[job_id % 4]
    arrival = float(job_id)
    if job_id % 5 == 4:
        outcome, completed = (Outcome.SHED, Outcome.FAILED)[job_id % 2], None
    else:
        outcome = (Outcome.SERVED, Outcome.FAILOVER)[job_id % 2]
        completed = arrival + 1.0 + (job_id * 37 % 101) * 0.75
    return JobRecord(
        job_id=job_id, kind=kind, dataset="ds-000", arrival_s=arrival,
        deadline_s=arrival + 60.0, read_bytes=1e12 * (job_id % 7 + 1),
        outcome=outcome, completed_s=completed, tenant=tenant,
    )


class TestMergeSlaStates:
    @pytest.mark.parametrize("retain", [True, False])
    def test_parity_split_merges_to_one_tracker(self, retain):
        records = [mixed_record(job_id) for job_id in range(400)]
        _, single = make_tracker(retain_records=retain)
        pods = [make_tracker(retain_records=retain)[1] for _ in range(2)]
        for record in records:
            observe(single, record)
            observe(pods[record.job_id % 2], record)
        merged = merge_sla_states([pod.export_state() for pod in pods])
        assert report_from_state(merged, 3600.0) == single.report(3600.0)
        tenants = tenant_report_from_state(merged, 3600.0)
        assert tenants == single.tenant_report(3600.0)
        assert [row.kind for row in tenants.classes] == [
            "analytics", "backup", "search"
        ]

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1 state"):
            merge_sla_states([])

    def test_mixed_retention_rejected(self):
        states = [make_tracker(retain_records=retain)[1].export_state()
                  for retain in (True, False)]
        with pytest.raises(ConfigurationError, match="mixed retain_records"):
            merge_sla_states(states)

    def test_subsampled_reservoir_keeps_its_weight(self):
        """A pod past the cap must not be outvoted by a small exact pod."""
        _, fast = make_tracker(retain_records=False)
        _, slow = make_tracker(retain_records=False)
        for job_id in range(100_000):
            observe(fast, served(job_id, "interactive", 0.0, 10.0))
        for job_id in range(100_000, 100_100):
            observe(slow, served(job_id, "interactive", 0.0, 1000.0))
        merged = merge_sla_states([fast.export_state(), slow.export_state()])
        samples = merged.overall.samples
        assert len(samples) == DEFAULT_SAMPLE_CAP
        # 100 of 100,100 completions (0.1 %) were slow.
        assert samples.count(1000.0) / len(samples) < 0.005
        report = report_from_state(merged, 3600.0)
        assert report.overall.p99_s == 10.0
        assert report.for_kind("interactive").p99_s == 10.0
