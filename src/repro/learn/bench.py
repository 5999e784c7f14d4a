"""Learned-control benchmarking: the ``repro learn`` artefact.

Trains the committed-gate learner (tabular Q — pure-Python arithmetic,
so its fingerprints are byte-identical across machines and across
serial/process fan-out) on a deliberately *non-stationary* slice of
internet demand, freezes the greedy policy, and scores it against
every fixed (dispatch, eviction) combo on one held-out evaluation
episode.  The payload lands in ``BENCH_learn.json`` with the gate's
invariants as booleans:

* ``learned_beats_best_fixed_p99`` and
  ``learned_beats_best_fixed_energy`` — the headline claim: adaptive
  control wins on tail latency *and* launch energy simultaneously;
* ``train_serial_process_identical`` — a short probe training run
  fingerprints identically under the serial and process engines;
* ``default_hooks_match_baseline`` — installing explicit default
  :class:`~repro.fleet.controlplane.ControlHooks` reproduces the
  hook-free fleet run record for record.

Why a learner can beat every fixed combo here: the bench trace has two
*regimes* with different optimal dispatch orders.  The first half is a
stepped hot-set drift under light load — deadline-ordered dispatch
(``edf``) clears the interactive class with no tail cost.  The second
half holds the hot set still while a scanner flash crowd ramps
batch-heavy congestion — there ``edf``'s strict deadline order starves
just-arrived batch work behind interactive deadlines and inflates the
tail, and plain arrival order (``fcfs``) is optimal.  No fixed
dispatch policy is best in both halves; a policy that reads the
episode's ``progress`` observation and switches — which is exactly
what a two-bin tabular Q-learner can represent — beats every fixed
combo on tail latency, and because the single shared launch tube is
the fleet's bottleneck, the same switch also avoids queue-pressure
evictions and so strictly lowers launch energy.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigurationError
from ..fleet.cache import CacheConfig
from ..fleet.controlplane import (
    AdmissionControl,
    ControlHooks,
    FleetScenario,
    default_scenario,
    run_fleet,
)
from ..fleet.sla import ClassTarget
from ..fleet.topology import DatasetCatalog, FleetSpec
from ..traffic.synth import DemandClass, FlashCrowd, TenantProfile, TraceSpec
from ..units import TB
from .env import Action, EnvConfig
from .policies import TabularQ
from .train import LearnReport, TrainConfig, evaluate, train

SCHEMA = "repro-bench-learn/1"

DEFAULT_SEED = 0
DEFAULT_HORIZON_S = 2400.0
DEFAULT_EPOCH_S = 120.0

#: Seed of the committed-gate learner itself (separate from the
#: workload/training seed so the two streams never alias).
POLICY_SEED = 23

#: Training shape for the committed baseline: ~240 episodes of the
#: single-track task (seconds of wall time), enough for the Q-table to
#: separate the two regimes reliably.
DEFAULT_ROUNDS = 30
DEFAULT_EPISODES_PER_ROUND = 8

#: Held-out episode seed the learned-vs-fixed comparison runs on; the
#: training seeds (see TrainConfig.episode_seeds) never include it.
EVAL_SEED = 999

#: Fixed (dispatch, eviction) baselines the learner is scored against;
#: overflow stays on the default failover choice, matching the fleet
#: bench's admission behaviour.
FIXED_ACTIONS = tuple(
    Action(dispatch, eviction)
    for dispatch in ("fcfs", "sjf", "edf")
    for eviction in ("lru", "lfu", "ttl")
)


def bench_catalog() -> DatasetCatalog:
    """12 datasets, 6-wide hot set: the drift has somewhere to go."""
    return DatasetCatalog(
        n_datasets=12, dataset_bytes=24 * TB, hot_count=6, hot_fraction=0.85
    )


def bench_scenario(seed: int = DEFAULT_SEED,
                   horizon_s: float = DEFAULT_HORIZON_S) -> FleetScenario:
    """The fleet the learn bench drives.

    A single track makes the launch tube the explicit bottleneck — every
    cache miss costs ~10 s of exclusive tube time (fetch launch plus the
    evicted cart's return) — so dispatch and eviction quality translate
    directly into the two gated KPIs.  Six docking stations match the
    hot-set width, and the 16-cart pool leaves enough slack over
    residency plus in-flight fetches that the pool balancer never
    force-strips idle residents (which would erase the difference
    between eviction policies).  The scenario's own ``policy``/``cache``
    fields are the *defaults* the hooks replace each epoch — they never
    decide anything in an adaptive episode, but keep the scenario valid
    for hook-free control runs.
    """
    return FleetScenario(
        spec=FleetSpec(
            n_tracks=1,
            racks_per_track=1,
            stations_per_rack=6,
            cart_pool=16,
            library_slots=128,
        ),
        catalog=bench_catalog(),
        targets=(
            ("interactive", ClassTarget(deadline_s=180.0, priority=0)),
            ("batch", ClassTarget(deadline_s=900.0, priority=1)),
        ),
        policy="edf",
        cache=CacheConfig(policy="lru"),
        admission=AdmissionControl(max_queue_depth=64, failover_links=2),
        seed=seed,
        horizon_s=horizon_s,
        retain_records=False,
    )


def bench_trace(seed: int = DEFAULT_SEED,
                horizon_s: float = DEFAULT_HORIZON_S,
                rate_scale: float = 1.0) -> TraceSpec:
    """Two-regime demand: hot-set drift, then a scanner flash crowd.

    The ``app`` tenant concentrates on the catalog's low ranks (the
    hot set that :func:`bench_env_config` drifts in steps during the
    first half); the ``scanner`` tenant's ``zipf_alpha`` is close to
    zero, so its requests spray across all 12 datasets.  The flash
    crowd is a triangular batch burst on the scanner tenant whose apex
    lands at the *end* of the horizon — it ramps through the whole
    second half, flipping the regime from drift-under-light-load to
    batch-heavy congestion.
    """
    return TraceSpec(
        seed=seed,
        horizon_s=horizon_s,
        window_s=300.0,
        tenants=(
            TenantProfile(
                name="app",
                base_rate_per_s=0.10 * rate_scale,
                diurnal_amplitude=0.2,
                peak_s=horizon_s / 2.0,
                class_weights=(("interactive", 0.8), ("batch", 0.2)),
                zipf_alpha=1.1,
            ),
            TenantProfile(
                name="scanner",
                base_rate_per_s=0.01 * rate_scale,
                diurnal_amplitude=0.1,
                peak_s=horizon_s / 2.0,
                class_weights=(("batch", 1.0),),
                zipf_alpha=0.05,
            ),
        ),
        crowds=(
            FlashCrowd(
                tenant="scanner",
                kind="batch",
                start_s=horizon_s / 2.0,
                duration_s=horizon_s,
                peak_rate_per_s=0.12 * rate_scale,
            ),
        ),
        classes=(
            DemandClass("interactive", median_bytes=1 * TB, sigma=0.35),
            DemandClass("batch", median_bytes=3 * TB, sigma=0.4),
        ),
        catalog=bench_catalog(),
        targets=(
            ("interactive", ClassTarget(deadline_s=180.0, priority=0)),
            ("batch", ClassTarget(deadline_s=900.0, priority=1)),
        ),
    )


def bench_env_config(seed: int = DEFAULT_SEED,
                     horizon_s: float = DEFAULT_HORIZON_S,
                     epoch_s: float = DEFAULT_EPOCH_S) -> EnvConfig:
    """The complete learnable task: drifting trace over the bench fleet.

    The rotation is *stepped*: the hot set shifts by 5 dataset indices
    at each of the first three ``rotation_s`` boundaries, then holds —
    so all drift happens in the first half of the horizon, before the
    flash crowd takes over as the dominant regime signal.
    """
    return EnvConfig(
        scenario=bench_scenario(seed=seed, horizon_s=horizon_s),
        epoch_s=epoch_s,
        trace=bench_trace(seed=seed, horizon_s=horizon_s),
        rotation_s=horizon_s / 8.0,
        rotation_shift=5,
        rotation_steps=3,
        max_epochs=int(math.ceil(horizon_s / epoch_s)) + 60,
    )


def bench_policy(seed: int = POLICY_SEED) -> TabularQ:
    """The committed-gate learner, deterministically configured.

    ``bins=2`` matters: the episode-``progress`` observation component
    then discretises into exactly two states with the boundary at half
    the horizon — the regime switch the workload is built around — and
    keeps the visited state space to ~10 entries, small enough that 240
    training episodes converge.
    """
    return TabularQ(
        epsilon=0.2, alpha=0.4, gamma=0.8, bins=2, seed=seed
    )


def default_hooks_match_baseline(seed: int = DEFAULT_SEED) -> bool:
    """Explicit default hooks == hook-free control, record for record.

    A short synthetic fleet run (the fleet bench's scenario family at a
    reduced horizon) executed twice: once with ``hooks=None`` and once
    with a fresh :class:`ControlHooks` instance.  Anything but
    identical reports means a decision point leaked behaviour into the
    refactor.
    """
    scenario = default_scenario(policy="edf", cache="lru", seed=seed,
                                horizon_s=900.0)
    bare = run_fleet(scenario)
    hooked = run_fleet(scenario, hooks=ControlHooks())
    return bare == hooked


def train_fingerprints_agree(
    env_config: EnvConfig, seed: int = DEFAULT_SEED
) -> tuple[str, str]:
    """(serial, process) fingerprints of one short probe training run."""
    serial = train(
        bench_policy(),
        env_config,
        TrainConfig(rounds=1, episodes_per_round=2, seed=seed,
                    engine="serial"),
    )
    process = train(
        bench_policy(),
        env_config,
        TrainConfig(rounds=1, episodes_per_round=2, seed=seed,
                    engine="process", workers=2),
    )
    return serial.fingerprint, process.fingerprint


@dataclass(frozen=True)
class LearnBenchReport:
    """One full train + evaluate pass with its gate evidence."""

    seed: int
    horizon_s: float
    epoch_s: float
    rounds: int
    episodes_per_round: int
    env_config: EnvConfig
    report: LearnReport
    serial_fingerprint: str
    process_fingerprint: str
    hooks_identical: bool
    train_wall_s: float

    @property
    def invariants(self) -> dict[str, bool]:
        return {
            "learned_beats_best_fixed_p99": self.report.beats_best_fixed_p99,
            "learned_beats_best_fixed_energy": (
                self.report.beats_best_fixed_energy
            ),
            "train_serial_process_identical": (
                self.serial_fingerprint == self.process_fingerprint
                and bool(self.serial_fingerprint)
            ),
            "default_hooks_match_baseline": self.hooks_identical,
            "eval_seed_held_out": EVAL_SEED
            not in {
                seed
                for round_index in range(self.rounds)
                for seed in TrainConfig(
                    rounds=self.rounds,
                    episodes_per_round=self.episodes_per_round,
                    seed=self.seed,
                ).episode_seeds(round_index)
            },
        }


def run_learn_bench(
    seed: int = DEFAULT_SEED,
    horizon_s: float = DEFAULT_HORIZON_S,
    epoch_s: float = DEFAULT_EPOCH_S,
    rounds: int = DEFAULT_ROUNDS,
    episodes_per_round: int = DEFAULT_EPISODES_PER_ROUND,
    engine: str = "serial",
    check_process_parity: bool = True,
) -> LearnBenchReport:
    """Train, freeze, evaluate, and assemble the gate evidence.

    ``engine`` picks the training fan-out for the *main* run; the
    serial/process parity probe always runs both engines (skippable
    with ``check_process_parity=False`` for quick local iterations,
    which marks the invariant false rather than silently passing).
    """
    if rounds < 1 or episodes_per_round < 1:
        raise ConfigurationError("training needs >= 1 round and episode")
    env_config = bench_env_config(seed=seed, horizon_s=horizon_s,
                                  epoch_s=epoch_s)
    policy = bench_policy()
    started = time.perf_counter()
    result = train(
        policy,
        env_config,
        TrainConfig(rounds=rounds, episodes_per_round=episodes_per_round,
                    seed=seed, engine=engine),
    )
    train_wall_s = time.perf_counter() - started
    report = evaluate(
        result.policy,
        env_config,
        eval_seed=EVAL_SEED,
        fixed_actions=FIXED_ACTIONS,
        fingerprint=result.fingerprint,
        round_rewards=result.round_rewards,
    )
    if check_process_parity:
        serial_fp, process_fp = train_fingerprints_agree(env_config, seed=seed)
    else:
        serial_fp, process_fp = result.fingerprint, ""
    return LearnBenchReport(
        seed=seed,
        horizon_s=horizon_s,
        epoch_s=epoch_s,
        rounds=rounds,
        episodes_per_round=episodes_per_round,
        env_config=env_config,
        report=report,
        serial_fingerprint=serial_fp,
        process_fingerprint=process_fp,
        hooks_identical=default_hooks_match_baseline(seed=seed),
        train_wall_s=train_wall_s,
    )


def _kpi_payload(kpis: Mapping[str, float]) -> dict[str, object]:
    return {
        "n_jobs": int(kpis["n_jobs"]),
        "served": int(kpis["served"]),
        "shed": int(kpis["shed"]),
        "failovers": int(kpis["failovers"]),
        "p99_s": round(kpis["p99_s"], 3),
        "deadline_miss_rate": round(kpis["deadline_miss_rate"], 6),
        "cache_hit_rate": round(kpis["cache_hit_rate"], 6),
        "cache_evictions": int(kpis["cache_evictions"]),
        "launches": int(kpis["launches"]),
        "launch_energy_mj": round(kpis["launch_energy_mj"], 6),
        "failover_energy_mj": round(kpis["failover_energy_mj"], 6),
        "makespan_s": round(kpis["makespan_s"], 3),
    }


def report_payload(bench: LearnBenchReport) -> dict[str, object]:
    """The JSON-serialisable form (``BENCH_learn.json``)."""
    report = bench.report
    best = report.best_fixed
    return {
        "schema": SCHEMA,
        "seed": bench.seed,
        "horizon_s": bench.horizon_s,
        "epoch_s": bench.epoch_s,
        "rounds": bench.rounds,
        "episodes_per_round": bench.episodes_per_round,
        "eval_seed": report.eval_seed,
        "policy": {
            "family": "tabular_q",
            "fingerprint": report.fingerprint,
            "round_rewards": [round(r, 6) for r in report.round_rewards],
        },
        "learned": _kpi_payload(report.learned_kpis),
        "fixed": {
            combo.label: _kpi_payload(combo.kpis) for combo in report.fixed
        },
        "best_fixed": best.label,
        "margins": {
            "p99_s": round(
                best.kpis["p99_s"] - report.learned_kpis["p99_s"], 3
            ),
            "launch_energy_mj": round(
                best.kpis["launch_energy_mj"]
                - report.learned_kpis["launch_energy_mj"],
                6,
            ),
        },
        "fingerprints": {
            "serial": bench.serial_fingerprint,
            "process": bench.process_fingerprint,
        },
        "invariants": bench.invariants,
        "train_wall_s_informational": round(bench.train_wall_s, 3),
    }


def policy_blob(policy: TabularQ) -> bytes:
    """Pickle a policy for artefact storage (round-trips exactly)."""
    return pickle.dumps(policy)


__all__ = [
    "DEFAULT_EPOCH_S",
    "DEFAULT_HORIZON_S",
    "DEFAULT_SEED",
    "EVAL_SEED",
    "POLICY_SEED",
    "FIXED_ACTIONS",
    "LearnBenchReport",
    "SCHEMA",
    "bench_catalog",
    "bench_env_config",
    "bench_policy",
    "bench_scenario",
    "bench_trace",
    "default_hooks_match_baseline",
    "report_payload",
    "run_learn_bench",
    "train_fingerprints_agree",
]
