"""Policy families: seeding, fingerprints, pickling, learning."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.learn import (
    ACTIONS,
    Action,
    N_ACTIONS,
    action_index,
)
from repro.learn.policies import (
    DEFAULT_BINS,
    FixedPolicy,
    TabularQ,
    discretise,
    fixed_policy,
)


class TestDiscretise:
    def test_bins_partition_the_unit_interval(self):
        assert discretise((0.0, 0.49, 0.51, 1.0), bins=2) == (0, 0, 1, 1)
        assert discretise((0.0, 0.26, 0.6, 0.99), bins=4) == (0, 1, 2, 3)

    def test_out_of_range_clamps_to_edge_bins(self):
        assert discretise((-0.5, 1.5), bins=4) == (0, 3)

    def test_single_bin_collapses_everything(self):
        assert discretise((0.0, 0.5, 1.0), bins=1) == (0, 0, 0)

    def test_invalid_bins_raise(self):
        with pytest.raises(ConfigurationError):
            discretise((0.5,), bins=0)


class TestFixedPolicy:
    def test_accepts_action_or_index(self):
        by_action = FixedPolicy(Action("edf", "lfu", "failover"))
        by_index = FixedPolicy(action_index(Action("edf", "lfu", "failover")))
        assert by_action.act(()) == by_index.act(())
        assert by_action.label == "edf+lfu+failover"

    def test_out_of_range_index_raises(self):
        with pytest.raises(ConfigurationError):
            FixedPolicy(N_ACTIONS)

    def test_update_is_a_no_op(self):
        policy = FixedPolicy(3)
        before = policy.fingerprint()
        policy.update((), 3, -1.0, (), False)
        assert policy.fingerprint() == before

    def test_fixed_policy_helper_defaults_overflow(self):
        policy = fixed_policy("fcfs", "lfu")
        assert ACTIONS[policy.act(())] == Action("fcfs", "lfu", "failover")


class TestFingerprints:
    def test_fresh_policies_with_same_config_agree(self):
        assert (
            TabularQ(seed=7).fingerprint() == TabularQ(seed=7).fingerprint()
        )

    def test_fingerprint_tracks_learned_parameters(self):
        policy = TabularQ(seed=7)
        before = policy.fingerprint()
        policy.update((0.5,), 1, -1.0, (0.6,), False)
        assert policy.fingerprint() != before

    def test_families_never_collide(self):
        assert TabularQ(seed=0).fingerprint() != FixedPolicy(0).fingerprint()

        # Same (empty) params, different class names.
        class RenamedQ(TabularQ):
            pass

        assert TabularQ(seed=0).fingerprint() != RenamedQ(seed=0).fingerprint()

    def test_pickle_round_trip_preserves_fingerprint_and_behaviour(self):
        policy = TabularQ(epsilon=0.3, seed=11)
        for step in range(20):
            obs = (step / 20.0,)
            policy.update(obs, step % N_ACTIONS, -float(step), obs, False)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.fingerprint() == policy.fingerprint()
        policy.seed_episode(42)
        clone.seed_episode(42)
        obs = (0.25,)
        assert [policy.act(obs) for _ in range(50)] == [
            clone.act(obs) for _ in range(50)
        ]


class TestGreedyFreezing:
    def test_greedy_copy_is_exploration_free_and_inert(self):
        policy = TabularQ(epsilon=1.0, seed=0, n_actions=4)
        obs = (0.1,)
        for arm in range(4):
            policy.update(obs, arm, -0.1 if arm == 2 else -1.0, obs, True)
        frozen = policy.greedy()
        frozen.seed_episode(0)
        # epsilon=1.0 explores every step when live; frozen never does.
        assert {frozen.act(obs) for _ in range(25)} == {2}
        before = frozen.fingerprint()
        frozen.update(obs, 0, -100.0, obs, True)
        assert frozen.fingerprint() == before

    def test_greedy_leaves_the_original_learning(self):
        policy = TabularQ(seed=3)
        policy.greedy()
        assert policy.frozen is False
        policy.update((0.1,), 0, -1.0, (0.1,), False)
        assert policy.q


class TestTabularQ:
    def test_unknown_state_defaults_to_action_zero(self):
        policy = TabularQ(epsilon=0.0, seed=0)
        assert policy.act((0.9, 0.9)) == 0

    def test_update_target_arithmetic(self):
        policy = TabularQ(epsilon=0.0, alpha=0.5, gamma=0.9, bins=2, seed=0,
                          n_actions=2)
        # Terminal: target is the raw reward.
        policy.update((0.0,), 1, -2.0, (1.0,), True)
        assert policy.q[(0,)][1] == pytest.approx(-1.0)
        # Bootstrapped: target = r + gamma * max(next_row).
        policy.update((1.0,), 0, -1.0, (0.0,), False)
        expected = 0.5 * (-1.0 + 0.9 * 0.0)
        assert policy.q[(1,)][0] == pytest.approx(expected)

    def test_argmax_ties_break_to_lowest_index(self):
        policy = TabularQ(epsilon=0.0, seed=0, n_actions=4)
        state_obs = (0.1,)
        policy.q[discretise(state_obs, policy.bins)] = [-1.0, -0.5, -0.5, -2.0]
        assert policy.act(state_obs) == 1

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigurationError):
            TabularQ(alpha=0.0)
        with pytest.raises(ConfigurationError):
            TabularQ(gamma=1.0)
        with pytest.raises(ConfigurationError):
            TabularQ(epsilon=-0.1)
        assert TabularQ().bins == DEFAULT_BINS

