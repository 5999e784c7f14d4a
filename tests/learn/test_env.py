"""FleetEnv contract: action space, rotation, determinism, equivalence."""

import pytest

from repro.chaos.campaigns import default_campaign
from repro.errors import ConfigurationError
from repro.fleet.controlplane import default_scenario, run_fleet
from repro.fleet.health import DegradationPolicy
from repro.fleet.topology import DatasetCatalog, FleetSpec
from repro.learn import (
    ACTIONS,
    Action,
    EnvConfig,
    FleetEnv,
    N_ACTIONS,
    action_index,
    fixed_episode_report,
    rotate_records,
    run_fleet_with_action,
)
from repro.learn.policies import FixedPolicy
from repro.learn.train import run_episode
from repro.traffic.schema import TraceRecord
from repro.units import TB


def small_scenario(policy="edf", cache="lru", seed=0, horizon_s=1200.0):
    return default_scenario(
        policy=policy,
        cache=cache,
        seed=seed,
        horizon_s=horizon_s,
        spec=FleetSpec(n_tracks=1, racks_per_track=1,
                       stations_per_rack=2, cart_pool=6),
        catalog=DatasetCatalog(n_datasets=6, dataset_bytes=24 * TB),
    )


def small_config(**overrides):
    defaults = dict(scenario=small_scenario(), epoch_s=120.0, max_epochs=60)
    defaults.update(overrides)
    return EnvConfig(**defaults)


class TestActionSpace:
    def test_factored_space_is_lexicographic_and_complete(self):
        assert N_ACTIONS == len(ACTIONS) == 3 * 3 * 2
        assert ACTIONS[0] == Action("fcfs", "lru", "failover")
        # dispatch is the slowest-varying dimension, overflow the fastest.
        assert ACTIONS[1].overflow == "shed"
        assert ACTIONS[2].eviction == "lfu"
        assert len(set(ACTIONS)) == N_ACTIONS

    def test_action_index_round_trips(self):
        for index, action in enumerate(ACTIONS):
            assert action_index(action) == index
            assert ACTIONS[action_index(action)] is action

    def test_invalid_components_raise(self):
        with pytest.raises(ConfigurationError):
            Action(dispatch="priority")
        with pytest.raises(ConfigurationError):
            Action(eviction="mru")
        with pytest.raises(ConfigurationError):
            Action(overflow="retry-forever")

    def test_label_is_stable(self):
        assert Action("edf", "lfu", "shed").label == "edf+lfu+shed"


def _records(arrivals, dataset="ds-001"):
    return [
        TraceRecord(arrival_s=arrival, tenant="t", kind="interactive",
                    dataset=dataset, size_bytes=1.0 * TB,
                    deadline_s=arrival + 180.0)
        for arrival in arrivals
    ]


class TestRotateRecords:
    def test_records_before_first_boundary_are_unshifted(self):
        out = list(rotate_records(iter(_records([0.0, 99.0])), 8, 100.0, 3))
        assert [record.dataset for record in out] == ["ds-001", "ds-001"]

    def test_one_shot_rotation_shifts_once_for_good(self):
        out = list(rotate_records(
            iter(_records([50.0, 150.0, 950.0])), 8, 100.0, 3, steps=1
        ))
        assert [record.dataset for record in out] == [
            "ds-001", "ds-004", "ds-004"
        ]

    def test_stepped_rotation_drifts_then_freezes(self):
        arrivals = [50.0, 150.0, 250.0, 350.0, 950.0]
        out = list(rotate_records(
            iter(_records(arrivals)), 8, 100.0, 3, steps=3
        ))
        # k = min(arrival // 100, 3) shifts of 3 (mod 8): 0, 1, 2, 3, 3.
        assert [record.dataset for record in out] == [
            "ds-001", "ds-004", "ds-007", "ds-002", "ds-002"
        ]

    def test_rotation_wraps_modulo_catalog(self):
        out = list(rotate_records(
            iter(_records([150.0], dataset="ds-007")), 8, 100.0, 3
        ))
        assert out[0].dataset == "ds-002"

    def test_only_dataset_changes(self):
        [original] = _records([150.0])
        [rotated] = rotate_records(iter([original]), 8, 100.0, 3)
        assert rotated.arrival_s == original.arrival_s
        assert rotated.tenant == original.tenant
        assert rotated.size_bytes == original.size_bytes


class TestConfigValidation:
    def test_rotation_steps_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            small_config(rotation_s=100.0, rotation_steps=0)

    def test_rotation_s_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            small_config(rotation_s=0.0)

    def test_max_epochs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            small_config(max_epochs=0)


class TestEnvContract:
    def test_reset_returns_named_normalised_observation(self):
        env = FleetEnv(small_config(), seed=1)
        obs = env.reset()
        names = env.obs_names()
        assert len(obs) == len(names)
        assert "progress" in names
        assert all(0.0 <= value <= 1.0 for value in obs)

    def test_step_accepts_indices_and_actions(self):
        env = FleetEnv(small_config(), seed=1)
        env.reset()
        _, reward, _, info = env.step(0)
        assert info["action"] == ACTIONS[0]
        assert reward <= 0.0
        _, _, _, info = env.step(Action("edf", "lfu", "failover"))
        assert info["action"].dispatch == "edf"

    def test_misuse_is_rejected(self):
        env = FleetEnv(small_config(), seed=1)
        with pytest.raises(ConfigurationError):
            env.step(0)
        with pytest.raises(ConfigurationError):
            env.observe()
        env.reset()
        with pytest.raises(ConfigurationError):
            env.step(N_ACTIONS)
        with pytest.raises(ConfigurationError):
            env.step(-1)
        with pytest.raises(ConfigurationError):
            env.step(True)
        with pytest.raises(ConfigurationError):
            env.report()

    def test_episode_terminates_and_reports(self):
        env = FleetEnv(small_config(), seed=1)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, _ = env.step(0)
            steps += 1
        assert steps <= env.config.max_epochs
        report = env.report()
        assert report.n_jobs > 0
        with pytest.raises(ConfigurationError):
            env.step(0)

    def test_progress_observation_is_monotone(self):
        env = FleetEnv(small_config(), seed=1)
        index = env.obs_names().index("progress")
        obs = env.reset()
        last = obs[index]
        done = False
        while not done:
            obs, _, done, _ = env.step(0)
            assert obs[index] >= last
            last = obs[index]
        assert last > 0.0

    def test_backlog_age_is_normalised(self):
        env = FleetEnv(small_config(), seed=1)
        env.reset()
        env.step(0)
        assert 0.0 <= env._backlog_age() <= 1.0


class TestDeterminism:
    def test_same_seed_identical_obs_action_reward_traces(self):
        config = small_config()
        first = run_episode(config, FixedPolicy(2), episode_seed=5,
                            learn=False)
        second = run_episode(config, FixedPolicy(2), episode_seed=5,
                             learn=False)
        assert first.observations == second.observations
        assert first.actions == second.actions
        assert first.rewards == second.rewards
        assert first.kpis == second.kpis

    def test_different_seeds_diverge(self):
        config = small_config()
        first = run_episode(config, FixedPolicy(2), episode_seed=5,
                            learn=False)
        second = run_episode(config, FixedPolicy(2), episode_seed=6,
                             learn=False)
        assert first.observations != second.observations


class TestHookEquivalence:
    """A constant action through the hooks IS the fixed scenario."""

    @pytest.mark.parametrize("policy,cache", [
        ("fcfs", "lru"), ("edf", "lfu"), ("sjf", "ttl"),
    ])
    def test_pinned_hooks_reproduce_fixed_scenario(self, policy, cache):
        scenario = small_scenario(policy=policy, cache=cache)
        action = Action(policy, cache, "failover")
        assert run_fleet_with_action(scenario, action) == run_fleet(scenario)

    def test_epoch_slicing_does_not_change_the_run(self):
        # The same workload driven epoch-by-epoch through FleetEnv
        # matches the single uninterrupted run decision for decision.
        scenario = small_scenario(policy="edf", cache="lru")
        config = EnvConfig(scenario=scenario, epoch_s=120.0, max_epochs=60)
        action = Action("edf", "lru", "failover")
        stepped = fixed_episode_report(config, action, seed=scenario.seed)
        straight = run_fleet(scenario)
        assert stepped.n_jobs == straight.n_jobs
        assert stepped.p99_s == straight.p99_s
        assert stepped.launches == straight.launches
        assert stepped.launch_energy_j == straight.launch_energy_j

    @pytest.mark.parametrize("policy,cache", [
        ("edf", "lru"), ("fcfs", "lru"), ("sjf", "ttl"),
    ])
    def test_epoch_slicing_does_not_change_a_chaos_run(self, policy, cache):
        # The env arms the scenario's campaign exactly as run_fleet
        # does, so the storm hits the stepped run event for event.
        scenario = default_scenario(
            policy=policy,
            cache=cache,
            seed=0,
            horizon_s=1800.0,
            spec=FleetSpec(n_tracks=2, racks_per_track=1,
                           stations_per_rack=2, cart_pool=6),
            catalog=DatasetCatalog(n_datasets=6, dataset_bytes=24 * TB),
            chaos=default_campaign(seed=0),
            degradation=DegradationPolicy(),
        )
        config = EnvConfig(scenario=scenario, epoch_s=120.0, max_epochs=60)
        action = Action(policy, cache, "failover")
        stepped = fixed_episode_report(config, action, seed=scenario.seed)
        straight = run_fleet(scenario)
        assert straight.chaos_entries and straight.failovers > 0
        assert stepped.n_jobs == straight.n_jobs
        assert stepped.p99_s == straight.p99_s
        assert stepped.launches == straight.launches
        assert stepped.launch_energy_j == straight.launch_energy_j
        assert stepped.failovers == straight.failovers
        assert stepped.chaos_entries == straight.chaos_entries
