"""Gym-style fleet environment on the DES clock.

:class:`FleetEnv` wraps one fleet run (:mod:`repro.fleet.controlplane`)
in the classic ``reset() / step(action) / observe()`` loop.  Virtual
time advances in fixed *decision epochs*: each ``step`` installs the
chosen joint action into an :class:`AdaptiveHooks` instance — the
:class:`~repro.fleet.controlplane.ControlHooks` subclass that answers
the control plane's three decision points — runs the simulation one
epoch forward, and returns the next observation plus a reward built
from that epoch's rolling SLA window and launch-energy delta.

Nothing about the control loop is copied: the hooks *are* the fleet's
own decision points, so a fixed action exactly reproduces the
corresponding fixed (dispatch, cache) scenario, decision for decision
(a property the tests pin).  Everything is deterministic for a fixed
``(config, seed)``: the workload, the observation/action/reward traces
and the final :class:`~repro.fleet.controlplane.FleetReport` are all
bit-reproducible across serial and process episode fan-out.

The action space is factored — the paper's three hand-picked knobs,
now chosen per epoch:

* **dispatch** — queue order among ``fcfs`` / ``sjf`` / ``edf``;
* **eviction** — cache victim selection among ``lru`` / ``lfu`` /
  ``ttl`` (via :func:`repro.fleet.cache.select_victim`);
* **overflow** — what a saturated lane does with an overflowing job:
  fail it over to the optical network or shed it.

Observations are a flat, normalised ``tuple`` of floats in ``[0, 1]``
(see :meth:`FleetEnv.obs_names`): per-lane queue depths, per-lane cache
hit rates, per-lane breaker health, normalised trace progress (virtual
time over the scenario horizon — the time-of-day signal that lets a
learner track regime changes), mean deadline slack of queued jobs, and
the previous epoch's windowed p99 / deadline-miss / launch-energy
readings from the streaming SLA accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from ..errors import ConfigurationError
from ..fleet.cache import EVICTION_POLICIES, select_victim
from ..fleet.controlplane import (
    POLICIES,
    ControlHooks,
    ControlPlane,
    FleetReport,
    FleetScenario,
    _bind_jobs,
    build_plane,
    run_fleet,
)
from ..fleet.sla import ClassSla, Outcome
from ..fleet.topology import FleetTopology
from ..traffic.replay import bound_jobs
from ..traffic.schema import TraceRecord
from ..traffic.synth import TraceSpec, synthesise
from ..units import assert_positive

#: The three factored action dimensions, in index order.
DISPATCH_CHOICES = POLICIES
EVICTION_CHOICES = EVICTION_POLICIES
OVERFLOW_CHOICES = (str(Outcome.FAILOVER), str(Outcome.SHED))

#: Energy normalisation for observations/rewards: 1 MJ per epoch reads
#: as "fully launch-bound" — the scale of the fleet bench's uncached
#: baseline.
ENERGY_SCALE_J = 1.0e6


@dataclass(frozen=True)
class Action:
    """One joint decision: dispatch order, eviction policy, overflow."""

    dispatch: str = "fcfs"
    eviction: str = "lru"
    overflow: str = OVERFLOW_CHOICES[0]

    def __post_init__(self) -> None:
        if self.dispatch not in DISPATCH_CHOICES:
            raise ConfigurationError(
                f"dispatch must be one of {DISPATCH_CHOICES}, "
                f"got {self.dispatch!r}"
            )
        if self.eviction not in EVICTION_CHOICES:
            raise ConfigurationError(
                f"eviction must be one of {EVICTION_CHOICES}, "
                f"got {self.eviction!r}"
            )
        if self.overflow not in OVERFLOW_CHOICES:
            raise ConfigurationError(
                f"overflow must be one of {OVERFLOW_CHOICES}, "
                f"got {self.overflow!r}"
            )

    @property
    def label(self) -> str:
        return f"{self.dispatch}+{self.eviction}+{self.overflow}"


#: The full joint action space in lexicographic index order; action
#: integers everywhere in :mod:`repro.learn` index into this tuple.
ACTIONS: tuple[Action, ...] = tuple(
    Action(dispatch, eviction, overflow)
    for dispatch in DISPATCH_CHOICES
    for eviction in EVICTION_CHOICES
    for overflow in OVERFLOW_CHOICES
)

N_ACTIONS = len(ACTIONS)

_ACTION_INDEX = {action: index for index, action in enumerate(ACTIONS)}


def action_index(action: Action) -> int:
    """The integer id of a joint action (inverse of ``ACTIONS[i]``)."""
    try:
        return _ACTION_INDEX[action]
    except KeyError:
        raise ConfigurationError(f"unknown action {action!r}") from None


class AdaptiveHooks(ControlHooks):
    """Control-plane decisions driven by a mutable current action.

    :meth:`set_action` swaps all three decision rules (dispatch order,
    cache eviction, overflow) between epochs; within an epoch the hooks
    are a pure function of the installed action and lane state, so a
    constant action reproduces the corresponding fixed scenario
    exactly: dispatch names the action's order, which the lane queues
    serve exactly as they serve a scenario policy (switching the order
    rebuilds their heaps), eviction ranks candidates through
    :func:`repro.fleet.cache.select_victim` (the very function
    :meth:`RackCache.evictable` delegates to), and overflow reproduces
    the failover-when-links-exist default when told to fail over.
    """

    def __init__(self, action: Action | None = None):
        self.action = action if action is not None else ACTIONS[0]
        self._ttl_s = 600.0

    def bind(self, plane: ControlPlane) -> None:
        super().bind(plane)
        cache = plane.scenario.cache
        if cache is not None:
            self._ttl_s = cache.ttl_s

    def set_action(self, action: Action) -> None:
        self.action = action

    def dispatch_order(self, lane):
        return self.action.dispatch

    def pick_eviction(self, lane):
        return select_victim(
            lane.cache.idle_entries(),
            self.action.eviction,
            self._ttl_s,
            self.plane.env.now,
        )

    def pick_overflow(self, fjob, lane, can_failover):
        if not can_failover:
            return Outcome.SHED
        return self.action.overflow


@dataclass(frozen=True)
class EnvConfig:
    """A complete, picklable description of one learnable fleet task.

    ``trace=None`` drives episodes with the scenario's seeded synthetic
    workload; a :class:`~repro.traffic.synth.TraceSpec` swaps in
    internet-scale demand (synthesised lazily, streamed through the
    control plane).  ``rotation_s`` optionally applies a deterministic
    hot-set rotation to trace records from that virtual time on:
    dataset indices shift by ``rotation_shift`` (mod catalog size),
    the non-stationarity that separates adaptive from fixed eviction.
    """

    scenario: FleetScenario
    epoch_s: float = 120.0
    trace: TraceSpec | None = None
    rotation_s: float | None = None
    rotation_shift: int = 0
    rotation_steps: int = 1
    max_epochs: int = 10_000
    p99_weight: float = 1.0
    energy_weight: float = 1.0
    miss_weight: float = 1.0
    backlog_weight: float = 1.0
    """Weight of the queue-age penalty: the mean normalised wait of
    jobs still pending at the epoch boundary.  Windowed p99 alone is
    gameable — a starvation-prone order (shortest-job-first under
    overload) completes its victims in someone else's window — so the
    backlog term charges every epoch a starved job stays queued."""
    p99_scale_s: float | None = None
    """Latency that saturates the p99 penalty; ``None`` uses
    ``epoch_s``."""

    def __post_init__(self) -> None:
        assert_positive("epoch_s", self.epoch_s)
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1")
        if self.rotation_s is not None and self.rotation_s <= 0:
            raise ConfigurationError("rotation_s must be > 0")
        if self.rotation_steps < 1:
            raise ConfigurationError("rotation_steps must be >= 1")
        if self.p99_scale_s is not None:
            assert_positive("p99_scale_s", self.p99_scale_s)

    @property
    def p99_scale(self) -> float:
        return self.p99_scale_s if self.p99_scale_s is not None else self.epoch_s


def rotate_records(
    records: Iterator[TraceRecord],
    n_datasets: int,
    rotation_s: float,
    shift: int,
    steps: int = 1,
) -> Iterator[TraceRecord]:
    """Shift dataset indices by ``shift`` per elapsed ``rotation_s``.

    A pure, deterministic stream transform: a record arriving in the
    ``k``-th rotation window (``k = arrival_s // rotation_s``, capped
    at ``steps``) has its dataset index shifted by ``k * shift`` (mod
    catalog size).  ``steps=1`` is the classic one-shot hot-set
    rotation — stable, then shifted once for good at ``rotation_s`` —
    which makes frequency-based eviction squat on stale entries while
    recency-based eviction adapts.  Larger ``steps`` turn the start of
    the trace into a *drift* regime (the hot set moves every window
    until the cap freezes it), the phase structure the learn bench
    uses: no fixed victim policy is best in both a drifting and a
    polluted-but-stable regime.
    """
    for record in records:
        applied = min(int(record.arrival_s // rotation_s), steps)
        if applied <= 0:
            yield record
            continue
        index = int(record.dataset.rsplit("-", 1)[1])
        rotated = f"ds-{(index + applied * shift) % n_datasets:03d}"
        yield replace(record, dataset=rotated)


def episode_jobs(config: EnvConfig, scenario: FleetScenario,
                 topology: FleetTopology):
    """The lazy pre-bound job stream one episode consumes.

    Synthetic scenarios bind through the control plane's own
    :func:`~repro.fleet.controlplane._bind_jobs`; trace-driven ones
    synthesise records on the fly (optionally hot-set-rotated) and bind
    them with :func:`repro.traffic.replay.bound_jobs` — the same entry
    points production runs use, so the environment observes exactly the
    demand a plain replay would.
    """
    if config.trace is None:
        return _bind_jobs(scenario, topology)
    trace = replace(config.trace, seed=scenario.seed)
    records: Iterator[TraceRecord] = synthesise(trace)
    if config.rotation_s is not None:
        records = rotate_records(
            records,
            scenario.catalog.n_datasets,
            config.rotation_s,
            config.rotation_shift,
            config.rotation_steps,
        )
    return bound_jobs(
        records, dict(scenario.targets), scenario.catalog.dataset_bytes
    )


_BREAKER_OBS = {"closed": 0.0, "half_open": 0.5, "open": 1.0}


class FleetEnv:
    """One fleet run as a sequential decision problem.

    ``seed`` overrides the scenario's (and trace's) seed, so one config
    fans out into arbitrarily many distinct, reproducible episodes.

    The usual loop::

        env = FleetEnv(config, seed=7)
        obs = env.reset()
        while True:
            obs, reward, done, info = env.step(policy.act(obs))
            if done:
                break
        report = env.report()
    """

    def __init__(self, config: EnvConfig, seed: int | None = None):
        self.config = config
        self.seed = seed if seed is not None else config.scenario.seed
        self.scenario = replace(config.scenario, seed=self.seed)
        self._max_deadline = max(
            [target.deadline_s for _, target in self.scenario.targets]
            or [3600.0]
        )
        self._started = False
        self._done = True
        self._obs: tuple[float, ...] = ()
        self.epoch = 0

    # -- space descriptions ------------------------------------------------------

    @property
    def n_actions(self) -> int:
        return N_ACTIONS

    @property
    def actions(self) -> tuple[Action, ...]:
        return ACTIONS

    def obs_names(self) -> tuple[str, ...]:
        """Stable component names for the observation vector."""
        lanes = [
            f"t{track}:r{rack}"
            for track, rack in sorted(self._lane_keys())
        ]
        return tuple(
            [f"queue_depth[{name}]" for name in lanes]
            + [f"hit_rate[{name}]" for name in lanes]
            + [f"breaker[{name}]" for name in lanes]
            + ["progress", "deadline_slack", "window_p99",
               "window_miss_rate", "window_energy"]
        )

    def _lane_keys(self):
        spec = self.scenario.spec
        return [
            (track, rack)
            for track in range(spec.n_tracks)
            for rack in range(spec.racks_per_track)
        ]

    # -- episode lifecycle -------------------------------------------------------

    def reset(self) -> tuple[float, ...]:
        """Build a fresh fleet and return the initial observation."""
        self.hooks = AdaptiveHooks()
        self.plane = build_plane(self.scenario, hooks=self.hooks)
        self.sim = self.plane.env
        self.topology = self.plane.topology
        self.plane.start_workers()
        self.plane.start_intake(
            episode_jobs(self.config, self.scenario, self.topology)
        )
        self.epoch = 0
        self._last_energy = 0.0
        self._started = True
        self._done = False
        self._obs = self._observe(window=None, energy_delta_j=0.0)
        return self._obs

    def step(
        self, action: int | Action
    ) -> tuple[tuple[float, ...], float, bool, dict]:
        """Install ``action``, advance one epoch, return the transition."""
        if not self._started:
            raise ConfigurationError("call reset() before step()")
        if self._done:
            raise ConfigurationError(
                "episode is over; call reset() for a new one"
            )
        act = self._coerce(action)
        self.hooks.set_action(act)
        self.epoch += 1
        self.sim.run(until=self.epoch * self.config.epoch_s)
        window = self.plane.sla.take_window(horizon_s=self.config.epoch_s)
        energy = self.topology.total_launch_energy_j
        energy_delta = energy - self._last_energy
        self._last_energy = energy
        reward = self._reward(window, energy_delta, self._backlog_age())
        self._done = bool(self.plane.drained) or (
            self.epoch >= self.config.max_epochs
        )
        self._obs = self._observe(window, energy_delta)
        info = {
            "now_s": self.sim.now,
            "epoch": self.epoch,
            "action": act,
            "window_jobs": window.n_jobs,
            "window_p99_s": window.p99_s,
            "energy_delta_j": energy_delta,
        }
        return self._obs, reward, self._done, info

    def observe(self) -> tuple[float, ...]:
        """The current observation (as returned by the last transition)."""
        if not self._started:
            raise ConfigurationError("call reset() before observe()")
        return self._obs

    def report(self) -> FleetReport:
        """The completed episode's full fleet report."""
        if not self._done or not self._started:
            raise ConfigurationError(
                "report() is only available once the episode is done"
            )
        return self.plane._build_report()

    # -- internals ---------------------------------------------------------------

    def _coerce(self, action: int | Action) -> Action:
        if isinstance(action, Action):
            return action
        if isinstance(action, (int,)) and not isinstance(action, bool):
            if 0 <= action < N_ACTIONS:
                return ACTIONS[action]
            raise ConfigurationError(
                f"action index {action} outside [0, {N_ACTIONS})"
            )
        raise ConfigurationError(
            f"action must be an Action or an index, got {action!r}"
        )

    def _backlog_age(self) -> float:
        """Mean normalised wait of jobs still queued right now."""
        now = self.sim.now
        waits = [
            min((now - fjob.arrival_s) / self.config.p99_scale, 1.0)
            for lane in self.plane.lanes.values()
            for fjob in lane.queue.pending
        ]
        return sum(waits) / len(waits) if waits else 0.0

    def _reward(
        self, window: ClassSla, energy_delta_j: float, backlog_age: float
    ) -> float:
        config = self.config
        if window.n_jobs == 0:
            p99_pen = 0.0
            miss_pen = 0.0
        elif window.n_completed == 0:
            p99_pen = 1.0
            miss_pen = window.deadline_miss_rate
        else:
            p99_pen = min(window.p99_s, config.p99_scale) / config.p99_scale
            miss_pen = window.deadline_miss_rate
        energy_pen = min(energy_delta_j / ENERGY_SCALE_J, 1.0)
        return -(
            config.p99_weight * p99_pen
            + config.energy_weight * energy_pen
            + config.miss_weight * miss_pen
            + config.backlog_weight * backlog_age
        )

    def _observe(
        self, window: ClassSla | None, energy_delta_j: float
    ) -> tuple[float, ...]:
        plane = self.plane
        admission = self.scenario.admission
        now = self.sim.now
        lanes = [plane.lanes[key] for key in sorted(plane.lanes)]
        depths = [
            min(lane.queue.depth / admission.max_queue_depth, 1.0)
            for lane in lanes
        ]
        hits = [
            lane.cache.hit_rate if lane.cache is not None else 0.0
            for lane in lanes
        ]
        breakers = []
        for key in sorted(plane.lanes):
            monitor = plane.monitors.get(key)
            breakers.append(
                _BREAKER_OBS[monitor.breaker.state]
                if monitor is not None
                else 0.0
            )
        pending = [
            fjob for lane in lanes for fjob in lane.queue.pending
        ]
        if pending:
            slacks = [
                max(-1.0, min((f.deadline_at - now) / self._max_deadline, 1.0))
                for f in pending
            ]
            slack = (sum(slacks) / len(slacks) + 1.0) / 2.0
        else:
            slack = 1.0
        if window is None or window.n_jobs == 0:
            p99 = 0.0
            miss = 0.0
        elif window.n_completed == 0:
            p99 = 1.0
            miss = window.deadline_miss_rate
        else:
            p99 = min(window.p99_s, self.config.p99_scale) / self.config.p99_scale
            miss = window.deadline_miss_rate
        energy = min(energy_delta_j / ENERGY_SCALE_J, 1.0)
        progress = min(now / self.scenario.horizon_s, 1.0)
        return tuple(
            depths + hits + breakers + [progress, slack, p99, miss, energy]
        )


def fixed_episode_report(
    config: EnvConfig, action: Action, seed: int | None = None
) -> FleetReport:
    """Run one full episode under a constant action, no learning.

    The baseline the learned policy must beat: the same environment,
    demand and epoch structure, with the decision points pinned to one
    fixed (dispatch, eviction, overflow) choice throughout.
    """
    env = FleetEnv(config, seed=seed)
    env.reset()
    done = False
    while not done:
        _, _, done, _ = env.step(action)
    return env.report()


def run_fleet_with_action(
    scenario: FleetScenario, action: Action
) -> FleetReport:
    """``run_fleet`` with :class:`AdaptiveHooks` pinned to one action.

    Exists for the equivalence tests: a constant action through the
    hooks must reproduce the corresponding fixed scenario's report.
    """
    return run_fleet(scenario, hooks=AdaptiveHooks(action))


# Referenced by docs and kept importable from the package root.
__all__ = [
    "ACTIONS",
    "Action",
    "AdaptiveHooks",
    "DISPATCH_CHOICES",
    "ENERGY_SCALE_J",
    "EVICTION_CHOICES",
    "EnvConfig",
    "FleetEnv",
    "N_ACTIONS",
    "OVERFLOW_CHOICES",
    "action_index",
    "episode_jobs",
    "fixed_episode_report",
    "rotate_records",
    "run_fleet_with_action",
]
