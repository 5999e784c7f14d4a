"""Tests for fleet admission, dispatch, caching and determinism.

Includes the PR's acceptance scenario: a seeded end-to-end run where
cache-enabled EDF beats cache-less FCFS on *both* p99 latency and
launch energy for the hot-dataset mix, reproduced deterministically.
"""

import math
import os
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.fleet.cache import CacheConfig
from repro.fleet.controlplane import (
    AdmissionControl,
    FLEET_MIX,
    FleetScenario,
    POLICIES,
    default_scenario,
    run_fleet,
)
from repro.fleet.shard import signature_digest
from repro.fleet.sla import Outcome
from repro.fleet.topology import DatasetCatalog, FleetSpec
from repro.obs import TraceLevel, Tracer
from repro.workloads.generator import WorkloadGenerator

HORIZON = 1800.0


def run(policy="fcfs", cache=None, seed=0, horizon_s=HORIZON, **kwargs):
    return run_fleet(
        default_scenario(policy=policy, cache=cache, seed=seed,
                         horizon_s=horizon_s, **kwargs)
    )


class TestScenario:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            FleetScenario(policy="lifo")

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ConfigurationError):
            FleetScenario(horizon_s=0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_rejects_nonfinite_horizon(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon_s"):
            FleetScenario(horizon_s=horizon)

    def test_cli_rejects_infinite_horizon(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "--horizon", "inf"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode != 0
        assert "ConfigurationError: horizon_s must be positive and finite" in (
            result.stderr
        )

    def test_labels(self):
        assert default_scenario(policy="edf", cache="lru").label == "edf+lru"
        assert default_scenario(policy="fcfs", cache=None).label == "fcfs+none"

    def test_admission_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionControl(max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionControl(failover_links=-1)


class TestEndToEnd:
    def test_every_job_is_accounted_for(self):
        report = run(policy="fcfs", cache=None)
        generated = WorkloadGenerator(classes=FLEET_MIX, seed=0).generate(
            HORIZON
        )
        assert report.n_jobs == len(generated)
        assert (report.served + report.shed + report.failovers
                + report.failed) == report.n_jobs
        assert report.failed == 0

    def test_uncached_serves_pay_two_launches_each(self):
        report = run(policy="fcfs", cache=None)
        # Every served job launches a cart out and back; nothing else
        # launches anything.
        assert report.launches == 2 * report.served
        assert report.launch_energy_j > 0

    def test_cache_cuts_launches_and_counts_hits(self):
        cached = run(policy="fcfs", cache="lru")
        uncached = run(policy="fcfs", cache=None)
        assert cached.cache_hits + cached.cache_misses == cached.n_jobs
        assert cached.hit_rate > 0.5  # the mix is 85% hot over 2 datasets
        assert cached.launches < uncached.launches
        assert cached.cache_evictions <= cached.cache_misses

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_policies_complete(self, policy):
        report = run(policy=policy, cache="lru", horizon_s=900.0)
        assert report.failed == 0
        assert report.served == report.n_jobs

    @pytest.mark.parametrize("cache_policy", ("lru", "lfu", "ttl"))
    def test_all_eviction_policies_complete(self, cache_policy):
        report = run(policy="fcfs", cache=cache_policy, horizon_s=900.0)
        assert report.failed == 0
        assert report.cache_hits > 0

    def test_tracer_records_fleet_spans(self):
        tracer = Tracer(level=TraceLevel.FULL)
        scenario = default_scenario(policy="fcfs", cache="lru", seed=0,
                                    horizon_s=600.0)
        report = run_fleet(scenario, tracer=tracer)
        assert report.served > 0
        assert "job.admit" in {instant.name for instant in tracer.instants}
        assert "fleet.job" in {span.name for span in tracer.spans}

    def test_traced_run_counts_engine_events_and_keeps_the_signature(self):
        scenario = default_scenario(seed=1, horizon_s=900.0)
        tracer = Tracer()
        traced = run_fleet(scenario, tracer=tracer)
        assert tracer.engine_counters["events_fired"] > 0
        assert tracer.engine_counters["process_resumes"] > 0
        assert signature_digest(traced) == signature_digest(run_fleet(scenario))


class TestAdmissionControl:
    def test_saturated_lane_sheds_without_failover(self):
        report = run(
            policy="fcfs",
            cache=None,
            admission=AdmissionControl(max_queue_depth=2, failover_links=0),
        )
        assert report.shed > 0
        assert report.failovers == 0
        shed_records = [r for r in report.records if r.outcome == Outcome.SHED]
        assert all(r.completed_s is None for r in shed_records)
        assert all(not r.met_deadline for r in shed_records)

    def test_saturated_lane_fails_over_to_network(self):
        report = run(
            policy="fcfs",
            cache=None,
            admission=AdmissionControl(max_queue_depth=2, failover_links=2),
        )
        assert report.failovers > 0
        assert report.shed == 0
        assert report.failover_energy_j > 0
        failover_records = [
            r for r in report.records if r.outcome == Outcome.FAILOVER
        ]
        assert all(r.completed_s is not None for r in failover_records)

    def test_deep_queues_admit_everything(self):
        report = run(policy="fcfs", cache="lru")
        assert report.shed == 0
        assert report.failovers == 0


class TestDeterminism:
    def test_same_scenario_reproduces_bit_identical_reports(self):
        scenario = default_scenario(policy="edf", cache="lru", seed=7,
                                    horizon_s=HORIZON)
        first = run_fleet(scenario)
        second = run_fleet(scenario)
        assert first == second  # records, SLA, energies: everything

    def test_different_seeds_differ(self):
        assert run(seed=1).records != run(seed=2).records


class TestLazyIntake:
    """The lazy-intake refactor pin: `run_fleet` consumes jobs as an
    iterator and the report stays byte-identical to eager submission."""

    def test_explicit_job_sources_are_byte_identical(self):
        scenario = default_scenario(policy="edf", cache="lru", seed=7,
                                    horizon_s=HORIZON)
        generator = WorkloadGenerator(classes=scenario.classes,
                                      seed=scenario.seed)
        jobs = generator.generate(scenario.horizon_s)

        def lazily(source):
            yield from source

        as_list = run_fleet(scenario, jobs=list(jobs))
        as_iterator = run_fleet(scenario, jobs=iter(list(jobs)))
        as_generator = run_fleet(scenario, jobs=lazily(list(jobs)))
        assert as_list == as_iterator == as_generator

    def test_internal_generation_matches_explicit_jobs(self):
        scenario = default_scenario(policy="edf", cache="lru", seed=7,
                                    horizon_s=HORIZON)
        generator = WorkloadGenerator(classes=scenario.classes,
                                      seed=scenario.seed)
        jobs = generator.generate(scenario.horizon_s)
        assert run_fleet(scenario) == run_fleet(scenario, jobs=jobs)

    def test_peak_in_system_is_tracked_and_bounded(self):
        report = run(policy="edf", cache="lru")
        assert report.peak_in_system >= 1
        spec = FleetSpec()
        bound = (
            spec.n_racks * AdmissionControl().max_queue_depth
            + spec.n_racks * spec.stations_per_rack
            + 1
        )
        assert report.peak_in_system <= bound

    def test_empty_job_stream_is_a_configuration_error(self):
        scenario = default_scenario(seed=0, horizon_s=HORIZON)
        with pytest.raises(ConfigurationError):
            run_fleet(scenario, jobs=iter(()))


class TestAcceptanceScenario:
    """Cache-enabled EDF vs cache-less FCFS on the hot-dataset mix."""

    def test_cached_edf_beats_uncached_fcfs_on_p99_and_energy(self):
        cached = run(policy="edf", cache="lru", horizon_s=3600.0)
        baseline = run(policy="fcfs", cache=None, horizon_s=3600.0)
        assert cached.p99_s < baseline.p99_s
        assert cached.launch_energy_j < baseline.launch_energy_j
        # And not marginally: residency converts most jobs into
        # launch-free reads.
        assert cached.launch_energy_j < 0.5 * baseline.launch_energy_j
        assert cached.deadline_miss_rate < baseline.deadline_miss_rate

    def test_acceptance_scenario_is_deterministic(self):
        results = [
            (
                run(policy="edf", cache="lru", horizon_s=3600.0).p99_s,
                run(policy="fcfs", cache=None, horizon_s=3600.0).p99_s,
            )
            for _ in range(2)
        ]
        assert results[0] == results[1]


class TestSmallFleets:
    def test_single_track_single_cart_pool_makes_progress(self):
        report = run_fleet(
            FleetScenario(
                spec=FleetSpec(n_tracks=1, cart_pool=1, library_slots=64),
                catalog=DatasetCatalog(n_datasets=3, hot_count=1),
                policy="fcfs",
                cache=CacheConfig(policy="lru"),
                seed=0,
                horizon_s=600.0,
            )
        )
        assert report.failed == 0
        assert report.served + report.shed + report.failovers == report.n_jobs

    def test_cache_residency_respects_cart_pool(self):
        # A pool of 2 carts across 2 tracks: at most 2 datasets can be
        # resident at once, so the cache must keep evicting.
        report = run_fleet(
            FleetScenario(
                spec=FleetSpec(n_tracks=2, cart_pool=2, library_slots=64),
                catalog=DatasetCatalog(n_datasets=6, hot_count=2,
                                       hot_fraction=0.5),
                policy="fcfs",
                cache=CacheConfig(policy="lru"),
                seed=3,
                horizon_s=900.0,
            )
        )
        assert report.failed == 0
        assert report.cache_evictions > 0
