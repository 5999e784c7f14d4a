"""Track and cart fault models with repair crews (DES processes).

The paper's reliability story stops at in-flight SSD failures
(:mod:`repro.dhlsim.faults`).  A production DHL must also survive:

* **vacuum breaches** — the tube is unavailable until a repair crew
  restores it (MTTF/MTTR model, :class:`TrackOutageInjector`);
* **in-tube cart stalls** — a cart loses levitation mid-tube and either
  limps on after a delay or is extracted, aborting the shuttle
  (:class:`CartStallInjector`).

LIM brownouts are scheduled campaign events
(:data:`repro.chaos.campaigns.BROWNOUT`), not a background fault loop.

All injectors are seeded and deterministic; repair crews are DES
processes sampling MTTF/MTTR from configurable distributions.
:func:`install_chaos` wires a full fault cocktail onto one system and
:meth:`ChaosInjectors.availability_model` returns the matching
closed-form prediction (:mod:`repro.core.availability`) so the DES can
be validated against theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.availability import AvailabilityModel, RepairableComponent, stall_overhead
from ..errors import ConfigurationError
from ..sim import Interrupt
from .metrics import COUNT_PREFIX, DURATION_PREFIX
from .scheduler import DhlSystem, ShuttleAttempt
from .track import Track

DISTRIBUTIONS = ("exponential", "fixed")


def _sample(rng: np.random.Generator, mean: float, distribution: str) -> float:
    if distribution == "exponential":
        return float(rng.exponential(mean))
    return mean  # "fixed"


@dataclass
class TrackOutageInjector:
    """Vacuum breach: the tube rejects new entries until repaired.

    An MTTF/MTTR fault loop: fail, wait for the crew, repair, repeat.
    Time-to-failure and time-to-repair are sampled from ``distribution``
    (exponential by default, matching the steady-state availability
    model; ``"fixed"`` gives strictly periodic faults for reproducible
    scenario tests).

    Carts already in the tube complete their traversal (they are past
    the breach by construction); queued and new shuttles fail with
    :class:`~repro.errors.TrackFaultError` and are retried under the
    system's :class:`~repro.dhlsim.policy.ShuttlePolicy`.
    """

    system: DhlSystem
    mttf_s: float
    mttr_s: float
    seed: int = 0
    distribution: str = "exponential"
    outages: int = 0
    downtime_s: float = 0.0
    crew: object | None = None
    """Optional :class:`repro.chaos.crew.RepairCrewPool`: when set, the
    repair cannot start until a crew is free, so concurrent faults queue
    FIFO behind a bounded maintenance workforce."""
    crew_wait_s: float = 0.0
    """Seconds this injector's faults spent waiting for a free crew."""
    track: Track | None = None

    def __post_init__(self) -> None:
        if self.mttf_s <= 0:
            raise ConfigurationError(f"mttf_s must be > 0, got {self.mttf_s}")
        if self.mttr_s < 0:
            raise ConfigurationError(f"mttr_s must be >= 0, got {self.mttr_s}")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {DISTRIBUTIONS}"
            )
        if self.track is None:
            self.track = self.system.tracks[0]
        self._rng = np.random.default_rng(self.seed)
        self._stopped = False
        self.process = self.system.env.process(self._run())

    def stop(self) -> None:
        """Halt the fault loop, repairing any outstanding fault first."""
        self._stopped = True
        # A never-started generator cannot catch an Interrupt (the throw
        # raises at the function header); such a loop instead notices
        # ``_stopped`` at its first resume and exits cleanly.
        if self.process.is_alive and self.process.started:
            self.process.interrupt("stop")

    def component(self, name: str) -> RepairableComponent:
        """The closed-form component this injector realises."""
        return RepairableComponent(name=name, mttf_s=self.mttf_s, mttr_s=self.mttr_s)

    def _run(self):
        env = self.system.env
        tracer = self.system.tracer
        health = self.track.health
        fault_track = f"fault:track:{self.track.name}"
        window = None
        claim = None
        try:
            while not self._stopped:
                yield env.timeout(_sample(self._rng, self.mttf_s, self.distribution))
                if self._stopped:
                    return
                if not health.tube_available:
                    continue  # another outage holds this tube down
                health.mark_down(env.now)
                self.system.metrics.counter(COUNT_PREFIX + "track_outages").inc()
                window = tracer.span("fault.track", track=fault_track)
                self.outages += 1
                if self.crew is not None:
                    waiting_since = env.now
                    claim = self.crew.request(fault_track)
                    yield claim
                    self.crew_wait_s += env.now - waiting_since
                repair = _sample(self._rng, self.mttr_s, self.distribution)
                yield env.timeout(repair)
                health.mark_up(env.now)
                if claim is not None:
                    claim.release()
                    claim = None
                window.end()
                window = None
                self.downtime_s += repair
                self.system.metrics.counter(
                    DURATION_PREFIX + "track_downtime"
                ).inc(repair)
        except Interrupt:
            if claim is not None:
                claim.release()
            if window is not None:
                health.mark_up(env.now)
                window.end(interrupted=True)


@dataclass
class CartStallInjector:
    """In-tube stall: with probability ``stall_prob`` per shuttle the cart
    loses levitation mid-tube and sits for ``stall_time_s`` (holding the
    tube); with probability ``abort_prob`` the stall ends in extraction
    and the attempt fails.  Registered as a pre-shuttle hook.
    """

    system: DhlSystem
    stall_prob: float
    stall_time_s: float
    abort_prob: float = 0.0
    seed: int = 0
    stalls: int = 0
    aborts: int = 0
    _attached: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        for name, probability in (
            ("stall_prob", self.stall_prob),
            ("abort_prob", self.abort_prob),
        ):
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {probability}"
                )
        if self.stall_time_s < 0:
            raise ConfigurationError(
                f"stall_time_s must be >= 0, got {self.stall_time_s}"
            )
        self._rng = np.random.default_rng(self.seed)
        self.system.pre_shuttle_hooks.append(self._on_shuttle)
        self._attached = True

    def detach(self) -> None:
        """Stop injecting; idempotent even if the hook was removed externally."""
        if self._attached:
            try:
                self.system.pre_shuttle_hooks.remove(self._on_shuttle)
            except ValueError:
                pass  # removed behind our back; detaching is still done
            self._attached = False

    def __enter__(self) -> "CartStallInjector":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def _on_shuttle(self, attempt: ShuttleAttempt) -> None:
        if float(self._rng.random()) < self.stall_prob:
            attempt.stall_s += self.stall_time_s
            self.stalls += 1
            if float(self._rng.random()) < self.abort_prob:
                attempt.abort_in_tube = True
                attempt.abort_reason = "levitation stall"
                self.aborts += 1


# -- chaos orchestration ------------------------------------------------------


@dataclass(frozen=True)
class ChaosSpec:
    """One seeded fault cocktail: which faults to inject, how hard.

    Leave ``track_mttf_s`` at ``None`` (or a probability at 0) to skip
    that fault class.  A single ``seed`` derives per-injector seeds so
    one integer reproduces the whole run.
    """

    track_mttf_s: float | None = None
    track_mttr_s: float = 60.0
    stall_prob: float = 0.0
    stall_time_s: float = 0.0
    stall_abort_prob: float = 0.0
    drive_failure_prob: float = 0.0
    distribution: str = "exponential"
    seed: int = 0


@dataclass
class ChaosInjectors:
    """Handles for one installed fault cocktail."""

    spec: ChaosSpec
    system: DhlSystem
    track: TrackOutageInjector | None = None
    stall: CartStallInjector | None = None
    drives: object | None = None  # FaultInjector; typed loosely to avoid a cycle

    def stop(self) -> None:
        """Halt every fault process and detach every hook."""
        if self.track is not None:
            self.track.stop()
        for hooked in (self.stall, self.drives):
            if hooked is not None:
                hooked.detach()

    def availability_model(self, per_shuttle_s: float) -> AvailabilityModel:
        """The closed-form prediction matching this cocktail.

        ``per_shuttle_s`` is the fault-free tube occupancy of one
        shuttle (undock + travel + dock); it scales the stall overhead.
        Only track outages and stalls enter the model: both block or
        stretch the serialised tube, the campaign's bottleneck.
        """
        component = (
            self.track.component("track") if self.track is not None
            else RepairableComponent("ideal", mttf_s=1.0, mttr_s=0.0)
        )
        overhead = 0.0
        if self.stall is not None and self.spec.stall_prob > 0:
            overhead = stall_overhead(
                self.spec.stall_prob, self.spec.stall_time_s, per_shuttle_s
            )
        return AvailabilityModel(components=(component,), overhead=overhead)


def install_chaos(system: DhlSystem, spec: ChaosSpec,
                  crew: object | None = None) -> ChaosInjectors:
    """Install a full fault cocktail on ``system``; returns the handles.

    ``crew`` (a :class:`repro.chaos.crew.RepairCrewPool`) serialises the
    track outage's repairs behind a bounded workforce; ``None`` starts
    every repair the instant its fault occurs.
    """
    from .faults import FaultInjector

    handles = ChaosInjectors(spec=spec, system=system)
    if spec.track_mttf_s is not None:
        handles.track = TrackOutageInjector(
            system,
            mttf_s=spec.track_mttf_s,
            mttr_s=spec.track_mttr_s,
            seed=spec.seed,
            distribution=spec.distribution,
            crew=crew,
        )
    if spec.stall_prob > 0.0:
        handles.stall = CartStallInjector(
            system,
            stall_prob=spec.stall_prob,
            stall_time_s=spec.stall_time_s,
            abort_prob=spec.stall_abort_prob,
            seed=spec.seed + 3,
        )
    if spec.drive_failure_prob > 0.0:
        handles.drives = FaultInjector(
            system,
            per_drive_trip_failure_prob=spec.drive_failure_prob,
            seed=spec.seed + 4,
        )
    return handles
