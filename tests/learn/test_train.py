"""Training fan-out: seeds, serial == process identity, evaluation."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.controlplane import default_scenario
from repro.fleet.topology import DatasetCatalog, FleetSpec
from repro.learn import (
    Action,
    EnvConfig,
    TabularQ,
    TrainConfig,
    evaluate,
    train,
)
from repro.learn.bench import EVAL_SEED
from repro.learn.train import (
    ComboEval,
    LearnReport,
    SEED_STRIDE,
    run_episode,
)
from repro.units import TB


def tiny_config(horizon_s=900.0, seed=0):
    return EnvConfig(
        scenario=default_scenario(
            policy="edf",
            cache="lru",
            seed=seed,
            horizon_s=horizon_s,
            spec=FleetSpec(n_tracks=1, racks_per_track=1,
                           stations_per_rack=2, cart_pool=6),
            catalog=DatasetCatalog(n_datasets=6, dataset_bytes=24 * TB),
        ),
        epoch_s=120.0,
        max_epochs=40,
    )


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(episodes_per_round=0)

    def test_episode_seeds_are_disjoint_across_rounds(self):
        config = TrainConfig(rounds=5, episodes_per_round=4, seed=2)
        seen = set()
        for round_index in range(config.rounds):
            seeds = config.episode_seeds(round_index)
            assert len(seeds) == 4
            assert seen.isdisjoint(seeds)
            seen.update(seeds)

    def test_training_seed_streams_never_overlap(self):
        first = {
            seed
            for round_index in range(8)
            for seed in TrainConfig(seed=0).episode_seeds(round_index)
        }
        second = {
            seed
            for round_index in range(8)
            for seed in TrainConfig(seed=1).episode_seeds(round_index)
        }
        assert first.isdisjoint(second)
        assert all(0 < seed < SEED_STRIDE for seed in first)

    def test_eval_seed_is_held_out_of_the_bench_stream(self):
        config = TrainConfig(rounds=30, episodes_per_round=8, seed=0)
        seeds = {
            seed
            for round_index in range(config.rounds)
            for seed in config.episode_seeds(round_index)
        }
        assert EVAL_SEED not in seeds


class TestRunEpisode:
    def test_learn_false_never_mutates_the_policy(self):
        policy = TabularQ(seed=0)
        before = policy.fingerprint()
        result = run_episode(tiny_config(), policy, episode_seed=3,
                             learn=False)
        assert policy.fingerprint() == before
        assert result.transitions
        assert result.transitions[-1].done
        assert result.total_reward == pytest.approx(
            sum(result.rewards)
        )

    def test_learn_true_mutates_the_policy(self):
        policy = TabularQ(seed=0)
        before = policy.fingerprint()
        run_episode(tiny_config(), policy, episode_seed=3, learn=True)
        assert policy.fingerprint() != before

    def test_kpis_cover_the_bench_slice(self):
        result = run_episode(tiny_config(), TabularQ(seed=0), episode_seed=3,
                             learn=False)
        for key in ("p99_s", "launch_energy_mj", "cache_hit_rate",
                    "deadline_miss_rate", "n_jobs"):
            assert key in result.kpis


class TestSerialProcessIdentity:
    """The tentpole determinism claim, pinned on a small instance."""

    def test_fingerprints_and_rewards_are_engine_independent(self):
        config = tiny_config()
        serial = train(
            TabularQ(seed=5), config,
            TrainConfig(rounds=2, episodes_per_round=3, seed=1,
                        engine="serial"),
        )
        process = train(
            TabularQ(seed=5), config,
            TrainConfig(rounds=2, episodes_per_round=3, seed=1,
                        engine="process", workers=2),
        )
        assert serial.fingerprint == process.fingerprint
        assert serial.round_rewards == process.round_rewards
        assert [e.episode_seed for e in serial.episodes] == [
            e.episode_seed for e in process.episodes
        ]
        assert [e.transitions for e in serial.episodes] == [
            e.transitions for e in process.episodes
        ]

    def test_training_twice_is_reproducible(self):
        config = tiny_config()

        def once():
            return train(
                TabularQ(epsilon=0.3, seed=2), config,
                TrainConfig(rounds=2, episodes_per_round=2, seed=4),
            ).fingerprint

        assert once() == once()


class TestEvaluate:
    def test_learned_and_fixed_share_the_eval_episode(self):
        config = tiny_config()
        policy = TabularQ(seed=0)
        train(policy, config, TrainConfig(rounds=1, episodes_per_round=2))
        report = evaluate(
            policy, config, eval_seed=17,
            fixed_actions=(Action("edf", "lru", "failover"),
                           Action("fcfs", "lfu", "failover")),
        )
        assert report.eval_seed == 17
        assert len(report.fixed) == 2
        assert {combo.label for combo in report.fixed} == {
            "edf+lru+failover", "fcfs+lfu+failover"
        }
        assert report.fingerprint == policy.fingerprint()
        # Same workload under every control: job counts agree.
        counts = {combo.kpis["n_jobs"] for combo in report.fixed}
        counts.add(report.learned_kpis["n_jobs"])
        assert len(counts) == 1

    def test_best_fixed_minimises_p99_then_energy(self):
        def combo(label, p99, energy):
            return ComboEval(label=label, kpis={
                "p99_s": p99, "launch_energy_mj": energy,
            })

        report = LearnReport(
            eval_seed=0,
            learned_kpis={"p99_s": 90.0, "launch_energy_mj": 2.0},
            fixed=(
                combo("a", 100.0, 1.0),
                combo("b", 100.0, 3.0),
                combo("c", 120.0, 0.5),
            ),
            fingerprint="",
            round_rewards=(),
        )
        assert report.best_fixed.label == "a"
        assert report.beats_best_fixed_p99
        assert not report.beats_best_fixed_energy
