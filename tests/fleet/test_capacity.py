"""Tests for the capacity planner, including engine parity."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.dhlsim.track as track_module
from repro.core.params import DhlParams
from repro.errors import ConfigurationError
from repro.fleet import capacity
from repro.fleet.capacity import (
    SlaRequirement,
    candidate_scenarios,
    plan_capacity,
)
from repro.fleet.controlplane import ControlPlane, default_scenario, run_fleet
from repro.workloads.generator import WorkloadGenerator

HORIZON = 900.0
#: SHA-256 of ``plan_digest`` for TestPlanCapacity's requirement and grid.
PLAN_DIGEST = "d3e4171cbee1b906ad395fe230856e537baec0afadd5c7f458ae0f988a29419a"


def base_scenario(seed=0):
    return default_scenario(policy="fcfs", cache="lru", seed=seed,
                            horizon_s=HORIZON)


def plan_digest(plan):
    """SHA-256 of the plan's evaluations and choice, canonically rendered."""
    payload = {
        "evaluations": [dataclasses.asdict(e) for e in plan.evaluations],
        "best": dataclasses.asdict(plan.best) if plan.best is not None else None,
    }
    rendered = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


class TestSlaRequirement:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlaRequirement(max_p99_s=0.0)
        with pytest.raises(ConfigurationError):
            SlaRequirement(max_p99_s=10.0, max_miss_rate=2.0)


class TestCandidateGrid:
    def test_cost_ordering(self):
        scenarios = candidate_scenarios(base_scenario())
        shapes = [(s.spec.n_tracks, s.spec.cart_pool) for s in scenarios]
        assert shapes == sorted(shapes)

    def test_skips_starved_pools(self):
        scenarios = candidate_scenarios(
            base_scenario(), n_tracks_options=(2,), cart_pool_options=(1, 4),
            policies=("fcfs",),
        )
        assert all(s.spec.cart_pool >= s.spec.n_tracks for s in scenarios)
        assert len(scenarios) == 1

    def test_rejects_empty_axes(self):
        with pytest.raises(ConfigurationError):
            candidate_scenarios(base_scenario(), n_tracks_options=())
        with pytest.raises(ConfigurationError):
            candidate_scenarios(base_scenario(), policies=("lifo",))
        with pytest.raises(ConfigurationError):
            candidate_scenarios(
                base_scenario(), n_tracks_options=(4,),
                cart_pool_options=(2,),
            )
        with pytest.raises(ConfigurationError):
            candidate_scenarios(base_scenario(), cache_options=())

    def test_default_keeps_base_cache_on_every_candidate(self):
        base = base_scenario()
        scenarios = candidate_scenarios(base)
        assert all(s.cache == base.cache for s in scenarios)

    def test_cache_axis_doubles_the_grid(self):
        base = base_scenario()
        plain = candidate_scenarios(base)
        with_axis = candidate_scenarios(base, cache_options=("none", "lru"))
        assert len(with_axis) == 2 * len(plain)
        # The cache axis is innermost: labels alternate none/lru.
        labels = [s.cache_label for s in with_axis[:4]]
        assert labels == ["none", "lru", "none", "lru"]

    def test_cache_axis_preserves_base_sizing_for_matching_label(self):
        base = base_scenario()  # lru cache
        scenarios = candidate_scenarios(base, cache_options=("none", "lru"))
        cached = [s for s in scenarios if s.cache_label == "lru"]
        assert all(s.cache == base.cache for s in cached)
        uncached = [s for s in scenarios if s.cache_label == "none"]
        assert all(s.cache is None for s in uncached)


class TestPlanCapacity:
    GRID = dict(n_tracks_options=(1, 2), cart_pool_options=(4, 6),
                policies=("fcfs", "edf"))

    def test_picks_cheapest_feasible_candidate(self):
        requirement = SlaRequirement(max_p99_s=300.0, max_miss_rate=0.05)
        plan = plan_capacity(requirement, base_scenario(), **self.GRID)
        assert plan.best is not None
        assert plan.best.feasible
        # Nothing cheaper in the evaluation order is feasible.
        index = plan.evaluations.index(plan.best)
        assert not any(e.feasible for e in plan.evaluations[:index])

    def test_infeasible_requirement_returns_no_plan(self):
        requirement = SlaRequirement(max_p99_s=0.001, max_miss_rate=0.0)
        plan = plan_capacity(requirement, base_scenario(), **self.GRID)
        assert plan.best is None
        assert plan.feasible == ()

    def test_serial_and_process_engines_agree(self):
        """The acceptance invariant: identical plans under both engines."""
        requirement = SlaRequirement(max_p99_s=300.0, max_miss_rate=0.05)
        serial = plan_capacity(requirement, base_scenario(), engine="serial",
                               **self.GRID)
        process = plan_capacity(requirement, base_scenario(),
                                engine="process", workers=2, **self.GRID)
        assert serial == process
        assert serial.best == process.best

    def test_plan_is_deterministic_across_runs(self):
        requirement = SlaRequirement(max_p99_s=300.0, max_miss_rate=0.05)
        first = plan_capacity(requirement, base_scenario(), **self.GRID)
        second = plan_capacity(requirement, base_scenario(), **self.GRID)
        assert first == second
        assert plan_digest(first) == PLAN_DIGEST


class TestHopPhysicsProxy:
    """A launch reads its hop's physics from the track's table.

    On the 36-candidate grid at a one-hour horizon, seed 0, the plan
    simulates 18 fleets: each ladder runs only its smallest pool except
    the cached ones, which run pools 4 and 6 on 2 tracks and 4, 6 and 8
    on 3 tracks.  So it builds 40 single-rack tracks and 80 ordered
    hops.  (Simulating every candidate built 72 tracks and 144 hops.)
    Each hop costs one ``DhlParams.with_`` and one ``launch_energy``,
    at construction; the thousands of launches that follow cost none.
    """

    def test_physics_resolved_once_per_hop(self, monkeypatch):
        calls = {"with_": 0, "with_in_table": 0, "launch_energy": 0}
        building = []
        original_with = DhlParams.with_
        original_energy = track_module.launch_energy
        original_table = track_module.Track._hop_table

        def counting_with(params, **changes):
            calls["with_in_table" if building else "with_"] += 1
            return original_with(params, **changes)

        def counting_energy(params, *args, **kwargs):
            calls["launch_energy"] += 1
            return original_energy(params, *args, **kwargs)

        def flagged_table(track):
            building.append(track)
            try:
                return original_table(track)
            finally:
                building.pop()

        monkeypatch.setattr(DhlParams, "with_", counting_with)
        monkeypatch.setattr(track_module, "launch_energy", counting_energy)
        monkeypatch.setattr(track_module.Track, "_hop_table", flagged_table)
        plan = plan_capacity(
            SlaRequirement(max_p99_s=150.0, max_miss_rate=0.05),
            default_scenario(seed=0, horizon_s=3600.0),
            cache_options=("none", "lru"), engine="serial",
        )
        assert len(plan.evaluations) == 36
        assert plan.simulated == 18
        assert sum(e.launches for e in plan.evaluations) > 80
        assert calls == {"with_": 0, "with_in_table": 80, "launch_energy": 80}



def assert_independent_runs(plan, candidates):
    """Every evaluation equals ``run_fleet`` of its candidate."""
    assert len(candidates) == len(plan.evaluations)
    for candidate, evaluation in zip(candidates, plan.evaluations):
        report = run_fleet(candidate)
        assert (evaluation.n_tracks, evaluation.cart_pool, evaluation.policy,
                evaluation.cache_policy) == (
            candidate.spec.n_tracks, candidate.spec.cart_pool,
            candidate.policy, candidate.cache_label)
        assert (evaluation.p99_s, evaluation.deadline_miss_rate,
                evaluation.launches, evaluation.launch_energy_j) == (
            report.p99_s, report.deadline_miss_rate, report.launches,
            report.launch_energy_j)


class TestOneBoundStream:
    """A plan binds the base scenario's job stream once and every
    simulated candidate runs that one tuple, left as it was bound."""

    REQUIREMENT = SlaRequirement(max_p99_s=150.0, max_miss_rate=0.05)

    def test_a_serial_plan_generates_and_binds_once(self, monkeypatch):
        generated = []
        real_generate = WorkloadGenerator.generate
        bound = []
        real_bind = capacity._bind_jobs
        streams = []
        real_run = ControlPlane.run

        def counting_generate(generator, horizon_s):
            generated.append(horizon_s)
            return real_generate(generator, horizon_s)

        def recording_bind(scenario, jobs=None):
            fjobs = list(real_bind(scenario, jobs))
            bound.append((fjobs, [dataclasses.astuple(f) for f in fjobs]))
            return iter(fjobs)

        def recording_run(plane, fjobs):
            streams.append(fjobs)
            return real_run(plane, fjobs)

        monkeypatch.setattr(WorkloadGenerator, "generate", counting_generate)
        monkeypatch.setattr(capacity, "_bind_jobs", recording_bind)
        monkeypatch.setattr(ControlPlane, "run", recording_run)
        plan = plan_capacity(self.REQUIREMENT, base_scenario(),
                             cache_options=("none", "lru"), engine="serial")
        # 36 streams when every candidate was simulated.
        assert len(plan.evaluations) == 36
        assert len(streams) == plan.simulated == 18
        assert generated == [HORIZON]
        [(fjobs, fields)] = bound
        shared = streams[0]
        assert all(stream is shared for stream in streams)
        assert list(shared) == fjobs
        assert [dataclasses.astuple(f) for f in shared] == fields

    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_evaluation_is_an_independent_run(self, seed):
        base = default_scenario(seed=seed, horizon_s=HORIZON)
        options = ("none", "lru")
        plan = plan_capacity(self.REQUIREMENT, base, cache_options=options)
        candidates = candidate_scenarios(base, cache_options=options)
        assert len(candidates) == 36
        assert_independent_runs(plan, candidates)


class TestLadderReuse:
    """A ladder reuses a run only above a pool that never queued."""

    def test_a_queued_pool_sends_the_climb_to_the_next_pool(self, monkeypatch):
        # At seed 1, one hour, (3 tracks, lru) queues for carts at pools
        # 4 and 6 under both policies; the uncached ladders never queue.
        runs = []
        real_run = ControlPlane.run

        def recording_run(plane, fjobs):
            report = real_run(plane, fjobs)
            spec = plane.scenario.spec
            runs.append((plane.scenario.policy, plane.scenario.cache_label,
                         spec.cart_pool, plane.pool_waits > 0))
            return report

        monkeypatch.setattr(ControlPlane, "run", recording_run)
        base = default_scenario(seed=1, horizon_s=3600.0)
        grid = dict(n_tracks_options=(3,), cache_options=("none", "lru"))
        plan = plan_capacity(TestOneBoundStream.REQUIREMENT, base, **grid)
        assert runs == [
            ("fcfs", "none", 4, False),
            ("fcfs", "lru", 4, True),
            ("fcfs", "lru", 6, True),
            ("fcfs", "lru", 8, False),
            ("edf", "none", 4, False),
            ("edf", "lru", 4, True),
            ("edf", "lru", 6, True),
            ("edf", "lru", 8, False),
        ]
        assert plan.simulated == 8
        monkeypatch.undo()
        assert_independent_runs(plan, candidate_scenarios(base, **grid))

    @given(
        seed=st.sampled_from((0, 1, 2)),
        n_tracks=st.sets(st.integers(1, 3), min_size=1, max_size=2),
        data=st.data(),
    )
    def test_every_evaluation_equals_its_own_run(self, seed, n_tracks, data):
        # Pools start at one cart per rail, well below what a cached
        # fleet holds at its peak, so low rungs queue and the climb
        # goes on; high rungs stop queueing and are reused.
        pools = data.draw(
            st.sets(st.integers(min(n_tracks), 8), min_size=1, max_size=4),
            label="pools",
        )
        policies = data.draw(
            st.sampled_from((("fcfs",), ("edf",), ("fcfs", "edf"))),
            label="policies",
        )
        base = default_scenario(seed=seed, horizon_s=HORIZON)
        grid = dict(n_tracks_options=tuple(n_tracks),
                    cart_pool_options=tuple(pools), policies=policies,
                    cache_options=("none", "lru"))
        plan = plan_capacity(TestOneBoundStream.REQUIREMENT, base, **grid)
        candidates = candidate_scenarios(base, **grid)
        ladders = {(c.spec.n_tracks, c.policy, c.cache_label)
                   for c in candidates}
        assert len(ladders) <= plan.simulated <= len(candidates)
        assert_independent_runs(plan, candidates)
