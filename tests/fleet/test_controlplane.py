"""Tests for fleet admission, dispatch, caching and determinism.

Includes the PR's acceptance scenario: a seeded end-to-end run where
cache-enabled EDF beats cache-less FCFS on *both* p99 latency and
launch energy for the hot-dataset mix, reproduced deterministically.
"""

import gc
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
    _bind_jobs,
    build_plane,
    default_scenario,
    run_fleet,
)
from repro.fleet.shard import signature_digest
from repro.fleet.sla import Outcome
from repro.fleet.topology import DatasetCatalog, FleetSpec
from repro.obs import TraceLevel, Tracer
from repro.sim import Environment
from repro.sim.resources import Request
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

    def test_type_hints_resolve_without_loading_chaos_eagerly(self):
        # The ``chaos`` annotation names ``ChaosCampaign`` through a lazy
        # module handle: importing the control plane loads no chaos
        # module, and ``get_type_hints`` imports the campaign module.
        probe = (
            "import sys, typing\n"
            "from repro.fleet.controlplane import FleetScenario, default_scenario\n"
            "assert not any(m.startswith('repro.chaos') for m in sys.modules)\n"
            "hints = typing.get_type_hints(FleetScenario)\n"
            "from repro.chaos.campaigns import ChaosCampaign\n"
            "assert hints['chaos'] == ChaosCampaign | None, hints['chaos']\n"
            "hints = typing.get_type_hints(default_scenario)\n"
            "assert hints['chaos'] == ChaosCampaign | None, hints['chaos']\n"
            "assert 'repro.chaos.runner' not in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr


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

    def test_traced_run_counts_engine_events_and_keeps_the_signature(
        self, monkeypatch
    ):
        scenario = default_scenario(seed=1, horizon_s=900.0)
        tracer = Tracer()
        traced = run_fleet(scenario, tracer=tracer)
        # The untraced run, with the one thing a tracer changes undone:
        # a traced engine refuses ``advance_to``, so each arrival the
        # intake would jump to takes its timeout.  Nothing is cancelled,
        # so the events it fired are its pushes less those still queued.
        monkeypatch.setattr(Environment, "advance_to", lambda env, when: False)
        plane = build_plane(scenario)
        untraced = plane.run(_bind_jobs(scenario))
        fired = plane.env._eid - len(plane.env._queue)
        assert tracer.engine_counters["events_fired"] == fired > 0
        assert tracer.engine_counters["events_cancelled"] == 0
        assert signature_digest(traced) == signature_digest(untraced)


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


class TestGrantCycles:
    #: ``Request`` objects left in cyclic garbage by one run of
    #: ``default_scenario(seed=1, horizon_s=1800)`` (112 jobs), GC off:
    #: only the claims still held when the run ends.  While a granted
    #: request kept itself as its value it was 168, one per claim made.
    REQUESTS = 12

    def test_released_claims_are_not_cyclic_garbage(self):
        scenario = default_scenario(seed=1, horizon_s=1800.0)
        run_fleet(scenario)  # warm: first-use caches are not per claim
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            report = run_fleet(scenario)
            gc.collect()
            requests = sum(1 for obj in gc.garbage if type(obj) is Request)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert report.n_jobs == 112
        assert requests == self.REQUESTS


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
