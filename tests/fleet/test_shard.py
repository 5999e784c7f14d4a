"""Tests for the sharded multi-process fleet co-simulation."""

import math
import os
import subprocess
import sys

import pytest

from repro.chaos.campaigns import (
    CHAOS_SHUTTLE_POLICY,
    CampaignEvent,
    TRACK_OUTAGE,
    default_campaign,
)
from repro.errors import ConfigurationError
from repro.fleet.controlplane import default_scenario, run_fleet
from repro.fleet.health import DegradationPolicy
from repro.fleet.shard import (
    DEFAULT_INTERPOD_LATENCY_S,
    FORWARDED_COUNTER,
    SHARD_ENGINES,
    ShardPlan,
    render_signature,
    report_signature,
    run_sharded,
    signature_digest,
)
from repro.fleet.topology import FleetSpec, assign_homes
from repro.testing import audit_shard_report

HORIZON = 600.0


def small_scenario(seed=0, n_tracks=4, horizon_s=HORIZON, **kwargs):
    return default_scenario(
        seed=seed,
        horizon_s=horizon_s,
        spec=FleetSpec(n_tracks=n_tracks, cart_pool=3 * n_tracks,
                       **kwargs.pop("spec_kwargs", {})),
        **kwargs,
    )


@pytest.fixture(scope="module")
def two_pod_plan():
    return ShardPlan(scenario=small_scenario(), n_pods=2)


@pytest.fixture(scope="module")
def serial_report(two_pod_plan):
    return run_sharded(two_pod_plan, engine="serial")


class TestShardPlan:
    def test_more_pods_than_tracks_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            ShardPlan(scenario=small_scenario(n_tracks=2), n_pods=3)

    def test_nonpositive_pods_rejected(self):
        with pytest.raises(ConfigurationError, match="n_pods"):
            ShardPlan(scenario=small_scenario(), n_pods=0)

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="interpod_latency_s"):
            ShardPlan(scenario=small_scenario(), n_pods=2,
                      interpod_latency_s=0.0)

    @pytest.mark.parametrize("latency", [math.nan, math.inf])
    def test_nonfinite_latency_rejected(self, latency):
        # nan used to pass the "<= 0" check and hang run_sharded; inf
        # returned makespan_s=inf and p99=nan.
        with pytest.raises(ConfigurationError, match="finite"):
            ShardPlan(scenario=small_scenario(), n_pods=2,
                      interpod_latency_s=latency)

    def test_cli_rejects_nan_latency(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "--shards", "2",
             "--interpod-latency", "nan", "--horizon", "60"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode != 0
        assert "interpod_latency_s must be positive and finite" in (
            result.stderr
        )

    def test_chaos_event_beyond_fleet_rejected(self):
        campaign = default_campaign(seed=0)
        rogue = campaign.events + (
            CampaignEvent(TRACK_OUTAGE, at_s=10.0, duration_s=5.0, track=9),
        )
        from dataclasses import replace

        scenario = small_scenario(
            spec_kwargs={"shuttle_policy": CHAOS_SHUTTLE_POLICY},
            chaos=replace(campaign, events=rogue),
        )
        with pytest.raises(ConfigurationError, match="track 9"):
            ShardPlan(scenario=scenario, n_pods=2)

    def test_track_ranges_are_contiguous_and_cover_the_fleet(self):
        plan = ShardPlan(scenario=small_scenario(n_tracks=7), n_pods=3)
        ranges = plan.track_ranges
        assert sum(count for _, count in ranges) == 7
        expected_start = 0
        for start, count in ranges:
            assert start == expected_start
            assert count >= 1
            expected_start += count
        # Largest-remainder: sizes differ by at most one.
        sizes = [count for _, count in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_cart_shares_conserve_the_pool(self):
        plan = ShardPlan(
            scenario=small_scenario(n_tracks=7), n_pods=3
        )
        shares = plan.cart_shares
        assert sum(shares) == plan.scenario.spec.cart_pool
        for (_, count), share in zip(plan.track_ranges, shares):
            assert share >= count  # every pod's spec stays valid

    def test_pod_of_track_matches_ranges(self):
        plan = ShardPlan(scenario=small_scenario(n_tracks=5), n_pods=2)
        owners = [plan.pod_of_track(track) for track in range(5)]
        assert owners == sorted(owners)
        with pytest.raises(ConfigurationError):
            plan.pod_of_track(5)

    def test_dataset_owners_cover_the_catalog(self, two_pod_plan):
        owners = two_pod_plan.dataset_owners()
        assert set(owners) == set(two_pod_plan.scenario.catalog.names)
        assert set(owners.values()) == {0, 1}

    def test_pod_homes_reindex_to_local_tracks(self, two_pod_plan):
        global_homes = assign_homes(
            two_pod_plan.scenario.spec, two_pod_plan.scenario.catalog
        )
        for pod in range(two_pod_plan.n_pods):
            start, count = two_pod_plan.track_ranges[pod]
            homes = two_pod_plan.pod_homes(pod)
            assert homes  # round-robin homing reaches every pod
            for name, home in homes.items():
                assert 0 <= home.track_index < count
                assert global_homes[name].track_index == home.track_index + start


class TestDegenerateCases:
    def test_single_pod_matches_monolithic_run_byte_for_byte(self):
        scenario = small_scenario()
        plan = ShardPlan(scenario=scenario, n_pods=1)
        sharded = run_sharded(plan, engine="serial")
        monolithic = run_fleet(scenario)
        assert render_signature(
            report_signature(sharded.fleet)
        ) == render_signature(report_signature(monolithic))
        assert sharded.epochs == 0
        assert sharded.forwarded == 0
        assert sharded.remote_outcomes == {}

    def test_unknown_engine_rejected(self, two_pod_plan):
        with pytest.raises(ConfigurationError, match="engine"):
            run_sharded(two_pod_plan, engine="threads")
        assert SHARD_ENGINES == ("serial", "process")

    def test_empty_horizon_rejected(self):
        plan = ShardPlan(
            scenario=small_scenario(horizon_s=1e-6), n_pods=2
        )
        with pytest.raises(ConfigurationError, match="no jobs"):
            run_sharded(plan, engine="serial")


class TestConservation:
    def test_no_job_lost_or_duplicated_across_epochs(self, serial_report):
        audit_shard_report(serial_report)

    def test_forwarded_jobs_all_report_back(self, serial_report):
        assert serial_report.forwarded > 0  # the split genuinely crossed
        audit_shard_report(serial_report)
        assert serial_report.metrics[FORWARDED_COUNTER]["value"] == (
            serial_report.forwarded
        )

    def test_sharding_never_changes_the_offered_load(self, serial_report):
        monolithic = run_fleet(serial_report.plan.scenario)
        assert serial_report.fleet.n_jobs == monolithic.n_jobs

    def test_window_defaults_to_the_interpod_latency(self, two_pod_plan):
        assert two_pod_plan.window_s == DEFAULT_INTERPOD_LATENCY_S
        assert two_pod_plan.window_s == two_pod_plan.interpod_latency_s


class TestDeterminism:
    def test_serial_reruns_are_byte_identical(self, two_pod_plan,
                                              serial_report):
        again = run_sharded(two_pod_plan, engine="serial")
        assert render_signature(
            report_signature(again.fleet)
        ) == render_signature(report_signature(serial_report.fleet))
        assert again.metrics == serial_report.metrics

    def test_process_executor_matches_serial_at_any_worker_count(self):
        plan = ShardPlan(scenario=small_scenario(), n_pods=4)
        serial = run_sharded(plan, engine="serial")
        expected = render_signature(report_signature(serial.fleet))
        for workers in (1, 2, 4):
            report = run_sharded(plan, engine="process", workers=workers)
            assert render_signature(
                report_signature(report.fleet)
            ) == expected, f"process engine diverged at {workers} worker(s)"
            assert report.metrics == serial.metrics
            assert report.pod_rows == serial.pod_rows
            assert report.epochs == serial.epochs
            assert report.workers == workers

    def test_signature_digest_is_stable_sha256(self, serial_report):
        digest = signature_digest(serial_report.fleet)
        assert len(digest) == 64
        assert digest == signature_digest(serial_report.fleet)


class TestChaosCompatibility:
    @pytest.fixture(scope="class")
    def storm_reports(self):
        """Naive vs hardened pod-storm runs on the same 2-shard fleet."""
        from dataclasses import replace

        base = default_campaign(seed=0)
        # The stock storm targets tracks 0-1, which a 2-pod split of a
        # 4-track fleet assigns entirely to pod 0; add an outage in pod
        # 1's range so both shards run a non-empty campaign.
        storm = replace(
            base,
            events=base.events + (
                CampaignEvent(TRACK_OUTAGE, at_s=650.0, duration_s=600.0,
                              track=2),
            ),
        )
        reports = {}
        for mode in ("naive", "hardened"):
            scenario = small_scenario(
                policy="edf",
                cache="lru",
                spec_kwargs={"shuttle_policy": CHAOS_SHUTTLE_POLICY},
                chaos=storm,
                degradation=DegradationPolicy() if mode == "hardened" else None,
                horizon_s=1800.0,
            )
            plan = ShardPlan(scenario=scenario, n_pods=2)
            reports[mode] = run_sharded(plan, engine="serial")
        return reports

    def test_pod_scoped_events_resolve_to_the_owning_shard(self):
        campaign = default_campaign(seed=0)
        scenario = small_scenario(
            spec_kwargs={"shuttle_policy": CHAOS_SHUTTLE_POLICY},
            chaos=campaign,
        )
        plan = ShardPlan(scenario=scenario, n_pods=2)
        track_events = [
            event for event in campaign.ordered_events
            if event.track is not None
        ]
        assert track_events  # the default storm is pod-scoped
        for event in track_events:
            owner = plan.pod_of_track(event.track)
            start, count = plan.track_ranges[owner]
            pod_campaign = plan.pod_chaos(owner)
            local = [
                local_event for local_event in pod_campaign.events
                if local_event.kind == event.kind
                and local_event.at_s == event.at_s
                and local_event.track == event.track - start
            ]
            assert local, (
                f"event on track {event.track} missing from pod {owner}"
            )
            assert 0 <= local[0].track < count

    def test_hardened_beats_naive_through_the_sharded_storm(
        self, storm_reports
    ):
        naive = storm_reports["naive"].fleet
        hardened = storm_reports["hardened"].fleet
        # Same offered load through both cuts, and every job resolved.
        assert naive.n_jobs == hardened.n_jobs
        for report in (naive, hardened):
            assert report.n_jobs == (
                report.served + report.shed + report.failovers + report.failed
            )
        # Hardening pays off: no more failures, no fewer completions.
        assert hardened.failed <= naive.failed
        assert hardened.sla.overall.n_completed >= (
            naive.sla.overall.n_completed
        )
        # The degradation machinery genuinely ran inside the shards.
        assert hardened.lane_health
        assert not naive.lane_health

    def test_merged_chaos_log_uses_global_track_names(self, storm_reports):
        report = storm_reports["hardened"]
        entries = report.fleet.chaos_entries
        assert entries
        assert list(entries) == sorted(entries)
        tracks = {
            int(target[1:].split(":")[0])
            for _, _, target, _ in entries
            if target.startswith("t")
        }
        n_tracks = report.plan.scenario.spec.n_tracks
        assert all(0 <= track < n_tracks for track in tracks)
        # Both pods' storms appear under their global names.
        second_pod_start = report.plan.track_ranges[1][0]
        assert any(track >= second_pod_start for track in tracks)

    def test_lane_health_rows_are_globalised(self, storm_reports):
        rows = storm_reports["hardened"].fleet.lane_health
        lanes = [row["lane"] for row in rows]
        assert len(lanes) == len(set(lanes)) == (
            storm_reports["hardened"].plan.scenario.spec.n_tracks
        )


class TestShardBench:
    @pytest.fixture
    def bench(self, shard_bench):
        return shard_bench

    def test_identity_and_conservation_invariants(self, bench):
        from repro.fleet import shardbench

        payload = shardbench.report_payload(bench)
        assert payload["schema"] == shardbench.SCHEMA
        assert payload["invariants"]["serial_process_identical"]
        assert payload["invariants"]["forwarded_equals_remote_outcomes"]
        assert payload["invariants"]["every_job_resolved"]
        if (os.cpu_count() or 1) < bench.plan.n_pods:
            assert "speedup" in payload["skipped"]
        else:
            assert any(
                name.startswith("process_speedup")
                for name in payload["invariants"]
            )


class TestShardedReplay:
    def test_trace_replay_routes_through_the_sharded_runner(self):
        from repro.traffic import (
            default_spec,
            replay_fleet_sharded,
            synthesise,
            trace_header,
        )
        from repro.traffic.bench import bench_scenario

        spec = default_spec(seed=0, horizon_s=900.0, rate_scale=0.05)
        scenario = bench_scenario(spec, horizon_s=900.0)
        plan = ShardPlan(scenario=scenario, n_pods=2)
        result, shard_report = replay_fleet_sharded(
            plan,
            synthesise(spec),
            header=trace_header(spec),
            engine="serial",
        )
        assert result.n_records > 0
        assert shard_report.fleet.n_jobs == result.n_records
        assert result.fleet is shard_report.fleet
        assert result.tenant_sla.overall.n_jobs == result.n_records
        # Replay keeps its bounded-decode contract through the shards.
        assert result.peak_pending <= result.config.chunk_records

    def test_sharded_replay_is_deterministic(self):
        from repro.traffic import default_spec, replay_fleet_sharded, synthesise
        from repro.traffic.bench import bench_scenario

        def run_once():
            spec = default_spec(seed=3, horizon_s=600.0, rate_scale=0.05)
            scenario = bench_scenario(spec, horizon_s=600.0)
            plan = ShardPlan(scenario=scenario, n_pods=2)
            _, report = replay_fleet_sharded(
                plan, synthesise(spec), engine="serial"
            )
            return signature_digest(report.fleet)

        assert run_once() == run_once()
