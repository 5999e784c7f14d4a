"""Online learned control over the fleet — gym on the DES clock.

The paper's §V fleet evaluation picks dispatch and caching strategies
by hand; this package frames those choices as an online learning
problem over the simulator (the PyDCM direction from PAPERS.md):

* :mod:`repro.learn.env` — :class:`FleetEnv`, a gym-style
  ``reset/step/observe`` environment advancing the fleet in fixed
  decision epochs, with the control plane's dispatch / eviction /
  overflow decisions routed through
  :class:`~repro.fleet.controlplane.ControlHooks` (no copied control
  loop) and a normalised observation vector built from queue depths,
  cache hit rates, breaker health, deadline slack and streaming SLA
  windows;
* :mod:`repro.learn.policies` — seeded, picklable learners with no
  heavy dependencies: fixed-action baselines and tabular Q-learning
  over discretised observations;
* :mod:`repro.learn.train` — synchronous batched episode fan-out over
  :func:`repro.core.sweep.map_chunks` with serial == process
  byte-identical policy fingerprints, greedy freezing, and the
  learned-vs-fixed :class:`~repro.learn.train.LearnReport`;
* :mod:`repro.learn.bench` — the ``repro learn`` artefact: trains on
  a hot-set-rotated, scanner-polluted demand trace and gates, in
  ``BENCH_learn.json``, that the learned policy beats the best fixed
  (dispatch, eviction) combo on p99 latency *and* launch energy.
"""

from .env import (
    ACTIONS,
    Action,
    AdaptiveHooks,
    DISPATCH_CHOICES,
    ENERGY_SCALE_J,
    EVICTION_CHOICES,
    EnvConfig,
    FleetEnv,
    N_ACTIONS,
    OVERFLOW_CHOICES,
    action_index,
    episode_jobs,
    fixed_episode_report,
    rotate_records,
    run_fleet_with_action,
)
from .policies import (
    DEFAULT_BINS,
    FixedPolicy,
    Policy,
    TabularQ,
    discretise,
    fixed_policy,
)
from .train import (
    ComboEval,
    EpisodeResult,
    LearnReport,
    TrainConfig,
    TrainResult,
    Transition,
    evaluate,
    run_episode,
    train,
)

__all__ = [
    "ACTIONS",
    "Action",
    "AdaptiveHooks",
    "ComboEval",
    "DEFAULT_BINS",
    "DISPATCH_CHOICES",
    "ENERGY_SCALE_J",
    "EVICTION_CHOICES",
    "EnvConfig",
    "EpisodeResult",
    "FixedPolicy",
    "FleetEnv",
    "LearnReport",
    "N_ACTIONS",
    "OVERFLOW_CHOICES",
    "Policy",
    "TabularQ",
    "TrainConfig",
    "TrainResult",
    "Transition",
    "action_index",
    "discretise",
    "episode_jobs",
    "evaluate",
    "fixed_episode_report",
    "fixed_policy",
    "rotate_records",
    "run_episode",
    "run_fleet_with_action",
    "train",
]
