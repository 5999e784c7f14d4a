"""The ``repro learn`` gate: workload, invariants, committed baseline."""

import json
from pathlib import Path

import pytest

from repro.analysis.fleetview import learn_comparison_table
from repro.bench import compare, load, write
from repro.learn.bench import (
    DEFAULT_EPISODES_PER_ROUND,
    DEFAULT_HORIZON_S,
    DEFAULT_ROUNDS,
    EVAL_SEED,
    FIXED_ACTIONS,
    POLICY_SEED,
    SCHEMA,
    bench_env_config,
    bench_policy,
    bench_scenario,
    bench_trace,
    default_hooks_match_baseline,
    report_payload,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def fresh_bench(learn_bench):
    return learn_bench


@pytest.fixture(scope="module")
def committed():
    return load(str(REPO_ROOT / "BENCH_learn.json"))


class TestWorkloadShape:
    def test_single_track_tube_is_the_bottleneck(self):
        scenario = bench_scenario()
        assert scenario.spec.n_tracks == 1
        # Pool slack over residency + in-flight: the balancer never
        # force-strips idle residents, so eviction policy stays live.
        assert scenario.spec.cart_pool > 2 * scenario.spec.stations_per_rack

    def test_trace_has_two_regimes(self):
        trace = bench_trace()
        assert {tenant.name for tenant in trace.tenants} == {"app", "scanner"}
        [crowd] = trace.crowds
        # The burst starts at the midpoint and ramps to the end: the
        # second half is the congestion regime.
        assert crowd.start_s == DEFAULT_HORIZON_S / 2.0
        assert crowd.start_s + crowd.duration_s / 2.0 >= DEFAULT_HORIZON_S

    def test_drift_is_confined_to_the_first_half(self):
        config = bench_env_config()
        assert config.rotation_steps * config.rotation_s <= (
            DEFAULT_HORIZON_S / 2.0
        )
        assert config.max_epochs * config.epoch_s >= DEFAULT_HORIZON_S

    def test_gate_policy_is_pure_python_with_halving_bins(self):
        policy = bench_policy()
        assert policy.bins == 2
        assert policy.seed == POLICY_SEED
        assert type(policy).__name__ == "TabularQ"

    def test_fixed_baselines_cover_every_dispatch_eviction_combo(self):
        assert len(FIXED_ACTIONS) == 9
        assert len({(a.dispatch, a.eviction) for a in FIXED_ACTIONS}) == 9
        assert all(a.overflow == "failover" for a in FIXED_ACTIONS)

    def test_training_never_sees_the_eval_seed(self):
        from repro.learn import TrainConfig

        config = TrainConfig(rounds=DEFAULT_ROUNDS,
                             episodes_per_round=DEFAULT_EPISODES_PER_ROUND)
        seeds = {
            seed
            for round_index in range(config.rounds)
            for seed in config.episode_seeds(round_index)
        }
        assert EVAL_SEED not in seeds


class TestHooksSatellite:
    def test_default_hooks_reproduce_the_hook_free_fleet(self):
        assert default_hooks_match_baseline()


class TestGate:
    def test_all_invariants_hold(self, fresh_bench):
        assert all(fresh_bench.invariants.values()), fresh_bench.invariants

    def test_learned_strictly_beats_best_fixed_on_both_kpis(self, fresh_bench):
        report = fresh_bench.report
        best = report.best_fixed
        assert report.learned_kpis["p99_s"] < best.kpis["p99_s"]
        assert (
            report.learned_kpis["launch_energy_mj"]
            < best.kpis["launch_energy_mj"]
        )

    def test_payload_round_trips_through_disk(self, fresh_bench, tmp_path):
        path = write(report_payload(fresh_bench),
                     str(tmp_path / "BENCH_learn.json"))
        assert load(path) == json.loads(
            json.dumps(report_payload(fresh_bench))
        )


class TestCommittedBaseline:
    def test_schema_and_invariants(self, committed):
        assert committed["schema"] == SCHEMA
        assert all(dict(committed["invariants"]).values())
        assert committed["eval_seed"] == EVAL_SEED

    def test_margins_are_strictly_positive(self, committed):
        margins = dict(committed["margins"])
        assert margins["p99_s"] > 0
        assert margins["launch_energy_mj"] > 0

    def test_fingerprints_agree_across_engines(self, committed):
        fingerprints = dict(committed["fingerprints"])
        assert fingerprints["serial"] == fingerprints["process"]
        assert len(fingerprints["serial"]) == 64

    def test_table_renders_learned_first_and_marks_best(self, committed):
        headers, rows = learn_comparison_table(committed)
        assert headers[0] == "Control"
        assert rows[0][0] == "learned (tabular-q)"
        assert len(rows) == 1 + len(dict(committed["fixed"]))
        assert sum("*best fixed" in row[0] for row in rows) == 1


class TestCompareToBaseline:
    def test_identical_payload_raises_no_problems(self, committed):
        assert compare(committed, committed) == []

    def test_numeric_drift_is_reported(self, committed):
        drifted = json.loads(json.dumps(committed))
        drifted["learned"]["p99_s"] = float(drifted["learned"]["p99_s"]) + 5.0
        problems = compare(drifted, committed)
        assert any("learned.p99_s" in problem for problem in problems)

    def test_fingerprint_change_is_reported(self, committed):
        drifted = json.loads(json.dumps(committed))
        drifted["policy"]["fingerprint"] = "0" * 64
        problems = compare(drifted, committed)
        assert any("fingerprint" in problem for problem in problems)

    def test_failed_invariant_is_reported_from_either_side(self, committed):
        broken = json.loads(json.dumps(committed))
        broken["invariants"]["learned_beats_best_fixed_p99"] = False
        assert any(
            "invariant failed" in problem
            for problem in compare(broken, committed)
        )
        assert any(
            "invariant failed" in problem
            for problem in compare(committed, broken)
        )
