"""The DHL system and its cart scheduler.

:class:`DhlSystem` wires the simulator together — tracks, library, rack
endpoints, telemetry — and implements the shuttle primitive every API
command builds on.  The scheduler enforces the constraints the paper
calls out:

* a cart can only be in one place at a time;
* data on a cart is inaccessible during transit;
* only one cart per tube (single rail), and a docking cart briefly
  blocks the tube;
* endpoints have limited docking capacity, so carts return to the
  library when their data is consumed.

Reliability: every shuttle operation runs under the system's
:class:`~repro.dhlsim.policy.ShuttlePolicy` — failed attempts (track
breach, in-tube stall) are retried with exponential backoff and the
whole operation can race a deadline.  Fault models observe and steer
attempts through the ``pre_shuttle_hooks`` list instead of
monkey-patching the shuttle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.params import DhlParams
from ..errors import (
    DegradedServiceError,
    SchedulingError,
    ShuttleTimeoutError,
    TrackFaultError,
)
from ..obs.metrics import Counter, MetricsRegistry
from ..obs.probe import ResourceProbe
from ..obs.tracer import NULL_SPAN, TraceLevel, Tracer
from ..sim import Environment, Event, Interrupt
from ..storage.datasets import Dataset
from ..storage.library import PlacementPlan, plan_placement
from ..storage.ssd_array import SsdArray
from .cart import Cart, CartState
from .docking import DockingStation, RackEndpoint
from .library_node import LibraryNode
from .metrics import COUNT_PREFIX, DURATION_PREFIX, ENERGY_PREFIX
from .policy import NO_RETRY, FailoverPolicy, ShuttlePolicy
from .track import Track, build_tracks, pick_track


@dataclass
class ShuttleAttempt:
    """One physical launch attempt, visible to pre-shuttle hooks.

    Pre-shuttle hooks run once the attempt is committed to launch (tube
    claimed, track up) and may mutate the fault directives: set
    ``stall_s`` to stall the cart mid-tube for that long, and
    ``abort_in_tube`` to have the stall end in extraction (the attempt
    fails with :class:`~repro.errors.TrackFaultError`).
    """

    cart: Cart
    src: int
    dst: int
    number: int = 1
    stall_s: float = 0.0
    abort_in_tube: bool = False
    abort_reason: str | None = None


ShuttleHook = Callable[[ShuttleAttempt], None]

UNTRACED = Tracer(level=TraceLevel.OFF)
"""The tracer every untraced :class:`DhlSystem` shares.  It records
nothing, so it never reads a clock; a :class:`~repro.dhlsim.timeline.
TimelineRecorder` replaces it rather than raising its level."""


@dataclass
class DhlSystem:
    """A complete simulated DHL: rail(s), library, racks, telemetry."""

    env: Environment
    params: DhlParams = field(default_factory=DhlParams)
    n_racks: int = 1
    stations_per_rack: int = 2
    library_slots: int = 512
    parity_drives: int = 0
    shuttle_policy: ShuttlePolicy = NO_RETRY
    failover: FailoverPolicy | None = None
    retry_seed: int = 0
    tracer: Tracer | None = None
    tracks: list[Track] = field(init=False)
    library: LibraryNode = field(init=False)
    racks: dict[int, RackEndpoint] = field(init=False)
    metrics: MetricsRegistry = field(init=False)
    probes: list[ResourceProbe] = field(init=False)
    pre_shuttle_hooks: list[ShuttleHook] = field(init=False)

    def __post_init__(self) -> None:
        if self.tracer is None:
            self.tracer = UNTRACED
        else:
            self.tracer.attach_clock(self.env)
        self.tracks = build_tracks(self.env, self.params, self.n_racks)
        self.library = LibraryNode(
            self.env, endpoint_id=0, capacity_slots=self.library_slots
        )
        self.racks = {}
        for endpoint in self.tracks[0].endpoints:
            if not endpoint.is_library:
                self.racks[endpoint.endpoint_id] = RackEndpoint(
                    self.env,
                    endpoint_id=endpoint.endpoint_id,
                    n_stations=self.stations_per_rack,
                )
        self.metrics = MetricsRegistry(self.env)
        self._counters: dict[str, Counter] = {}
        # Claim/release probes keyed to match leaked_resources(), so the
        # trace-derived leak audit lines up with the scheduler's own.
        # Only an enabled tracer pays the wrapping cost.
        self.probes = []
        if _latched(self.tracer) is not None:
            for track in self.tracks:
                self.probes.append(
                    ResourceProbe(track.tube, self.tracer,
                                  f"tube:{track.name}", metrics=self.metrics)
                )
            for endpoint_id, rack in self.racks.items():
                self.probes.append(
                    ResourceProbe(rack.slots, self.tracer,
                                  f"slots:{endpoint_id}", metrics=self.metrics)
                )
        self.pre_shuttle_hooks = []
        self._retry_rng = np.random.default_rng(self.retry_seed)

    def _count(self, name: str, by: float = 1.0) -> None:
        """Bump registry counter ``name``, creating its handle on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.metrics.counter(name)
        counter.inc(by)

    # -- factories ---------------------------------------------------------------

    def make_array(self) -> SsdArray:
        return SsdArray(
            device=self.params.ssd_device,
            count=self.params.ssds_per_cart,
            parity_drives=self.parity_drives,
        )

    def make_cart(self) -> Cart:
        # Every state transition lands in the trace as a `cart.state`
        # instant; the timeline renderer is built entirely from these.
        return Cart(array=self.make_array(), location=self.library.endpoint_id,
                    tracer=self.tracer)

    def load_dataset(self, dataset: Dataset) -> PlacementPlan:
        """Stage a dataset in the library, one loaded cart per shard."""
        plan = plan_placement(dataset, self.make_array())
        self.library.ingest_plan(plan, self.make_cart)
        return plan

    def add_empty_carts(self, count: int) -> list[Cart]:
        """Stage empty carts in the library (for write-back traffic)."""
        if count <= 0:
            raise SchedulingError(f"cart count must be >= 1, got {count}")
        carts = []
        for _ in range(count):
            cart = self.make_cart()
            self.library.admit(cart)
            carts.append(cart)
        return carts

    def rack(self, endpoint_id: int) -> RackEndpoint:
        try:
            return self.racks[endpoint_id]
        except KeyError:
            known = sorted(self.racks)
            raise SchedulingError(
                f"unknown rack endpoint {endpoint_id}; known racks: {known}"
            ) from None

    # -- the shuttle primitive ------------------------------------------------------

    def shuttle(self, cart: Cart, dst: int) -> Event:
        """Move a READY cart from its location to endpoint ``dst``.

        Sequence: undock handling, exclusive tube traversal, dock
        handling — wrapped in the system's retry/deadline policy.
        Launch energy is metered per hop.  The caller is responsible for
        slot reservations at the destination.  The returned event fires
        with the cart, or fails with :class:`ShuttleTimeoutError` when
        the per-operation deadline races ahead of the attempt and with
        :class:`DegradedServiceError` when attempts are exhausted or the
        track outage has outlasted ``give_up_outage_s``.
        """
        return _Shuttle(self, cart, dst).done

    # -- high-level movements -----------------------------------------------------

    def dispatch_to_rack(self, cart_id: int, endpoint_id: int) -> Event:
        """Library -> rack, ending docked at a free station (the event's value)."""
        return _Dispatch(self, cart_id, endpoint_id).done

    def return_to_library(self, cart: Cart, endpoint_id: int) -> Event:
        """Rack -> library, freeing the dock slot; the event's value is the cart."""
        return _Return(self, cart, endpoint_id).done

    # -- accounting helpers ---------------------------------------------------------

    @property
    def total_launch_energy(self) -> float:
        return self.metrics.value(ENERGY_PREFIX + "launch")

    @property
    def total_launches(self) -> int:
        return int(self.metrics.value(COUNT_PREFIX + "launches"))

    def station_for_shard(self, endpoint_id: int, dataset: str, index: int) -> DockingStation:
        return self.rack(endpoint_id).find_docked(dataset, index)

    def leaked_resources(self) -> dict[str, int]:
        """Claims still held across tubes and racks (chaos-test invariant).

        A quiescent system — no transfer in flight — must report zero
        everywhere: failed shuttles release tube claims, failed
        dispatches release dock slots.
        """
        leaks = {}
        for track in self.tracks:
            leaks[f"tube:{track.name}"] = track.tube.count
        for endpoint_id, rack in self.racks.items():
            leaks[f"slots:{endpoint_id}"] = rack.slots.count - len(rack.docked_carts)
        return leaks


# -- the DHL commands as callback chains -------------------------------------------
#
# Each command runs as a chain of plain-event callbacks.  It takes its
# first step when it is issued, inside the caller's callback, and from
# then on waits only on what it must: a resource grant, a timeout, a
# child command's completion.  Its virtual-time outcomes are those of
# the nested generator processes it replaced (kept in the tests as the
# oracle); commands issued in the same instant claim tubes and dock
# slots in the order they were issued.
#
# Each command latches the system tracer when it starts, as
# ``Environment.run`` latches its own: a tracer that is off becomes
# ``None``, so an untraced command makes no tracer call, not even a
# ``NULL_SPAN.end()``; every span and instant is guarded by that test.


def _latched(tracer: Tracer) -> Tracer | None:
    """``tracer`` if it records anything, else ``None``."""
    return tracer if tracer.level > TraceLevel.OFF else None


class _Shuttle:
    """One shuttle operation: the retry loop and its launch attempts.

    ``done`` fires with the cart; an attempt's own completion is the
    separate ``attempt_done`` event, which the retry loop (or the
    deadline race) waits on.  ``target`` is the event the live attempt
    waits on, so a deadline interrupt can detach the attempt from it.
    """

    __slots__ = (
        "system", "env", "tracer", "cart", "src", "dst", "track", "policy",
        "deadline_at", "cart_track", "done", "span", "attempt", "attempt_done",
        "deadline_event", "target", "claim", "attempt_span", "wait_span",
        "phase_span", "transit_span", "hop", "travel",
    )

    def __init__(self, system: DhlSystem, cart: Cart, dst: int):
        env = self.env = system.env
        self.system = system
        self.cart = cart
        self.dst = dst
        done = self.done = env.event()
        try:
            if cart.state != CartState.READY:
                raise SchedulingError(
                    f"cart {cart.cart_id} must be READY to shuttle, is {cart.state}"
                )
            src = self.src = cart.location
            if src == dst:
                raise SchedulingError(
                    f"cart {cart.cart_id} is already at endpoint {dst}"
                )
            policy = self.policy = system.shuttle_policy
            self.deadline_at = (
                None if policy.deadline_s is None
                else env.now + policy.deadline_s
            )
            self.track = pick_track(system.tracks, src, dst)
        except Exception as error:
            done.fail(error)
            return
        tracer = self.tracer = _latched(system.tracer)
        if tracer is not None:
            cart_track = self.cart_track = f"cart-{cart.cart_id}"
            self.span = tracer.span("shuttle", track=cart_track,
                                    cart=cart.cart_id, src=src, dst=dst)
        self._launch(1)

    # -- the retry loop ------------------------------------------------------------

    def _launch(self, number: int) -> None:
        """Top of the retry loop: start attempt ``number``."""
        env = self.env
        remaining = None
        if self.deadline_at is not None:
            # Exhaustion check must precede the attempt: an attempt
            # launched with no one left to wait on it would fail
            # undefused and crash the whole run.
            remaining = self.deadline_at - env.now
            if remaining <= 0:
                self._timeout(number, (
                    f"cart {self.cart.cart_id} {self.src}->{self.dst}: deadline "
                    f"{self.policy.deadline_s:.3g}s exhausted before attempt "
                    f"{number}"
                ))
                return
        self.attempt = ShuttleAttempt(cart=self.cart, src=self.src, dst=self.dst,
                                      number=number)
        done = self.attempt_done = env.event()
        if remaining is None:
            done.callbacks.append(self._attempt_settled)
        else:
            # The paper-prescribed deadline: race the attempt against a
            # timeout; whichever fires first decides the outcome.
            deadline = self.deadline_event = env.timeout(remaining)
            env.any_of([done, deadline]).callbacks.append(self._raced)
        self._attempt_start()

    def _attempt_settled(self, event: Event) -> None:
        if event._ok:
            self._finish(event._value)
        else:
            event._defused = True
            self._attempt_failed(event._value)

    def _raced(self, race: Event) -> None:
        done = self.attempt_done
        if not race._ok:
            race._defused = True
            self._attempt_failed(race._value)
        elif done.triggered:
            # Drop the losing timeout so a draining run() does not spin
            # virtual time out to the full deadline.
            self.deadline_event.cancel()
            self._attempt_settled(done)
        else:
            # Abort the attempt at the band-0 position an interrupt
            # takes, then wait for it to unwind.
            interrupt = self.env.event()
            interrupt._ok = False
            interrupt._value = Interrupt("shuttle deadline exceeded")
            interrupt._defused = True
            interrupt.callbacks.append(self._interrupted)
            self.env._schedule(interrupt, priority=0)
            done.callbacks.append(self._unwound)

    def _unwound(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if not isinstance(event._value, (Interrupt, TrackFaultError)):
                self._fail(event._value)
                return
        number = self.attempt.number
        self._timeout(number, (
            f"cart {self.cart.cart_id} {self.src}->{self.dst} exceeded its "
            f"{self.policy.deadline_s:.3g}s deadline on attempt {number}"
        ))

    def _timeout(self, number: int, message: str) -> None:
        self.system._count(COUNT_PREFIX + "shuttle_timeouts")
        if self.tracer is not None:
            self.tracer.instant("shuttle.timeout", track=self.cart_track,
                                attempt=number)
        self._fail(ShuttleTimeoutError(message))

    def _attempt_failed(self, error: BaseException) -> None:
        if not isinstance(error, TrackFaultError):
            self._fail(error)
            return
        system, policy, track = self.system, self.policy, self.track
        number = self.attempt.number
        now = self.env.now
        system._count(COUNT_PREFIX + "shuttle_faults")
        if self.tracer is not None:
            self.tracer.instant("shuttle.fault", track=self.cart_track,
                                attempt=number, cause=error.cause)
        if (
            policy.give_up_outage_s is not None
            and track.health.outage_age(now) >= policy.give_up_outage_s
        ):
            self._fail(DegradedServiceError(
                f"track {track.name} has been down "
                f"{track.health.outage_age(now):.3g}s "
                f"(threshold {policy.give_up_outage_s:.3g}s); degrading"
            ), cause=error)
            return
        if number == policy.max_attempts:
            if number == 1:
                self._fail(error)  # fail-fast policy: surface the root cause
            else:
                self._fail(DegradedServiceError(
                    f"cart {self.cart.cart_id} {self.src}->{self.dst} failed "
                    f"after {policy.max_attempts} attempts"
                ), cause=error)
            return
        system._count(COUNT_PREFIX + "shuttle_retries")
        if self.tracer is not None:
            self.tracer.instant("shuttle.retry", track=self.cart_track,
                                attempt=number)
        backoff = policy.backoff_delay(number, system._retry_rng)
        if self.deadline_at is not None:
            # Never sleep past the deadline: wake exactly at it so the
            # exhaustion check fires on time.
            backoff = min(backoff, max(self.deadline_at - now, 0.0))
        self.env.timeout(backoff).callbacks.append(self._retry)

    def _retry(self, _event: Event) -> None:
        self._launch(self.attempt.number + 1)

    def _finish(self, cart: Cart) -> None:
        if self.tracer is not None:
            self.span.end()
        self.done.succeed(cart)

    def _fail(self, error: BaseException, cause: BaseException | None = None) -> None:
        """Fail with ``error``, as ``raise error from cause`` would."""
        if cause is not None:
            error.__cause__ = cause
        if self.tracer is not None:
            self.span.end()
        self.done.fail(error)

    # -- one launch attempt --------------------------------------------------------
    #
    # The attempt span and its phase children (tube.wait, undock,
    # transit[/stall], dock) partition the attempt exactly: the
    # trace-invariant tests hold their durations to sum to the
    # attempt's, even when a deadline interrupt cuts a phase short.

    def _attempt_start(self) -> None:
        tracer, track = self.tracer, self.track
        if tracer is not None:
            self.attempt_span = tracer.span("attempt", track=self.cart_track,
                                            number=self.attempt.number,
                                            src=self.src, dst=self.dst)
            self.wait_span = self.phase_span = self.transit_span = NULL_SPAN
        self.claim = None
        if not track.health.tube_available:
            self._abort(TrackFaultError(
                f"tube {track.name} is unavailable (breach under repair)",
                track=track.name,
                cause="breach",
            ))
            return
        if tracer is not None:
            self.wait_span = tracer.span("tube.wait", track=self.cart_track)
        claim = self.claim = self.target = track.tube.request()
        claim.callbacks.append(self._tube_granted)

    def _tube_granted(self, _event: Event) -> None:
        if self.tracer is not None:
            self.wait_span.end()
        track = self.track
        # Re-check: the breach may have struck while we queued.
        if not track.health.tube_available:
            self._abort(TrackFaultError(
                f"tube {track.name} went down while cart "
                f"{self.cart.cart_id} queued for it",
                track=track.name,
                cause="breach",
            ))
            return
        try:
            for hook in list(self.system.pre_shuttle_hooks):
                hook(self.attempt)
        except Exception as error:
            self._abort(error)
            return
        if self.tracer is not None:
            self.phase_span = self.tracer.span("undock", track=self.cart_track)
        wait = self.target = self.env.timeout(self.system.params.undock_time)
        wait.callbacks.append(self._undocked)

    def _undocked(self, _event: Event) -> None:
        if self.tracer is not None:
            self.phase_span.end()
        cart, track, attempt = self.cart, self.track, self.attempt
        try:
            cart.transition(CartState.IN_TRANSIT)
            cart.location = self.dst
            hop = self.hop = track.hop(self.src, self.dst)
        except Exception as error:
            self._abort(error)
            return
        # A degraded LIM launches slower but still launches.
        travel = self.travel = hop.motion_time_s * track.health.lim_slowdown
        if self.tracer is not None:
            self.transit_span = self.tracer.span("transit", track=self.cart_track)
        if attempt.stall_s > 0.0 or attempt.abort_in_tube:
            wait = self.target = self.env.timeout(travel / 2.0)
            wait.callbacks.append(self._midway)
        else:
            wait = self.target = self.env.timeout(travel)
            wait.callbacks.append(self._arrived)

    def _midway(self, _event: Event) -> None:
        attempt, system = self.attempt, self.system
        system._count(COUNT_PREFIX + "cart_stalls")
        if attempt.stall_s > 0.0:
            system._count(DURATION_PREFIX + "stall", attempt.stall_s)
            if self.tracer is not None:
                self.phase_span = self.tracer.span("stall", track=self.cart_track)
            wait = self.target = self.env.timeout(attempt.stall_s)
            wait.callbacks.append(self._stalled)
        else:
            self._stalled(_event)

    def _stalled(self, _event: Event) -> None:
        if self.tracer is not None:
            self.phase_span.end()
        if self.attempt.abort_in_tube:
            self._abort(TrackFaultError(
                f"cart {self.cart.cart_id} stalled in {self.track.name} "
                "and was extracted",
                track=self.track.name,
                cause=self.attempt.abort_reason or "stall",
            ))
            return
        wait = self.target = self.env.timeout(self.travel / 2.0)
        wait.callbacks.append(self._arrived)

    def _arrived(self, _event: Event) -> None:
        if self.tracer is not None:
            self.transit_span.end()
        try:
            self.cart.transition(CartState.ARRIVED)
        except Exception as error:
            self._abort(error)
            return
        # Docking blocks the tube: hold the claim through the dock.
        if self.tracer is not None:
            self.phase_span = self.tracer.span("dock", track=self.cart_track)
        wait = self.target = self.env.timeout(self.system.params.dock_time)
        wait.callbacks.append(self._docked)

    def _docked(self, _event: Event) -> None:
        tracer = self.tracer
        if tracer is not None:
            self.phase_span.end()
        self.claim.release()
        if tracer is not None:
            self.attempt_span.end()
        system, track, hop, cart = self.system, self.track, self.hop, self.cart
        try:
            system._count(ENERGY_PREFIX + "launch", hop.energy_j)
            system._count(COUNT_PREFIX + "launches")
            track.traversals += 1
            track.metres_travelled += hop.distance_m
            cart.trips_completed += 1
        except Exception as error:
            self.attempt_done.fail(error)
            return
        self.attempt_done.succeed(cart)

    def _interrupted(self, event: Event) -> None:
        """The deadline interrupt: detach from the awaited event, unwind."""
        if self.attempt_done.triggered:
            return
        callbacks = self.target.callbacks
        if callbacks is not None:
            callbacks[:] = [
                callback for callback in callbacks
                if getattr(callback, "__self__", None) is not self
            ]
        self._abort(event._value)

    def _abort(self, error: BaseException) -> None:
        """A failed attempt: release the tube, park the cart READY at its
        origin so the retry layer can relaunch or re-store it, and fail."""
        tracer = self.tracer
        if tracer is not None:
            self.phase_span.end()
            self.transit_span.end()
        if self.claim is not None:
            self.claim.release()
        if tracer is not None:
            self.wait_span.end()
            self.attempt_span.end(failed=True)
        cart = self.cart
        if cart.state in (CartState.IN_TRANSIT, CartState.ARRIVED):
            cart.abort_transit(self.src)
        self.attempt_done.fail(error)


class _Dispatch:
    """Library -> rack: a dock slot, the cart's checkout, then the shuttle."""

    __slots__ = ("system", "cart_id", "endpoint_id", "done", "rack", "tracer",
                 "span", "wait_span", "slot", "cart")

    def __init__(self, system: DhlSystem, cart_id: int, endpoint_id: int):
        self.system = system
        self.cart_id = cart_id
        self.endpoint_id = endpoint_id
        done = self.done = system.env.event()
        try:
            rack = self.rack = system.rack(endpoint_id)
        except Exception as error:
            done.fail(error)
            return
        tracer = self.tracer = _latched(system.tracer)
        if tracer is not None:
            # A dispatch that queues for a dock slot has not checked its
            # cart out, and another command may move the cart meanwhile:
            # its spans go on async rows, exempt from nesting on the track.
            slots = rack.slots
            open_span = tracer.span if slots.count < slots.capacity else tracer.span_async
            cart_track = f"cart-{cart_id}"
            self.span = open_span("dispatch", track=cart_track,
                                  cart=cart_id, endpoint=endpoint_id)
            self.wait_span = open_span("slot.wait", track=cart_track)
        slot = self.slot = rack.slots.request()
        if slot.triggered:
            # A free slot is no wait: check the cart out and launch now,
            # so commands issued in one instant claim the tube in order.
            self._granted(slot)
        else:
            slot.callbacks.append(self._granted)

    def _granted(self, _event: Event) -> None:
        if self.tracer is not None:
            self.wait_span.end()
        system = self.system
        try:
            cart = self.cart = system.library.checkout(self.cart_id)
        except Exception as error:
            # The cart is not in the library (already out, or unknown):
            # hand the slot back before failing, or it leaks.
            self.slot.release()
            self._fail(error)
            return
        _Shuttle(system, cart, self.endpoint_id).done.callbacks.append(self._shuttled)

    def _shuttled(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            self._recover(event._value)
            return
        try:
            station = self.rack.free_station()
            station.attach(self.cart)
        except Exception as error:
            self._recover(error)
            return
        station.slot_claim = self.slot  # released on return
        self.system._count(COUNT_PREFIX + "dispatches")
        if self.tracer is not None:
            self.span.end()
        self.done.succeed(station)

    def _recover(self, error: BaseException) -> None:
        self.slot.release()
        # A failed attempt parks the cart READY at its origin (the
        # library); re-admit it so the cart is never leaked.
        cart, library = self.cart, self.system.library
        try:
            if cart.state == CartState.READY and cart.location == library.endpoint_id:
                library.admit(cart)
        except Exception as admit_error:
            error = admit_error
        self._fail(error)

    def _fail(self, error: BaseException) -> None:
        if self.tracer is not None:
            self.span.end()
        self.done.fail(error)


class _Return:
    """Rack -> library: undock (or leave the recovery bay), then shuttle home."""

    __slots__ = ("system", "cart", "endpoint_id", "done", "rack", "tracer", "span")

    def __init__(self, system: DhlSystem, cart: Cart, endpoint_id: int):
        self.system = system
        self.cart = cart
        self.endpoint_id = endpoint_id
        self.done = system.env.event()
        tracer = self.tracer = _latched(system.tracer)
        if tracer is not None:
            self.span = tracer.span("return", track=f"cart-{cart.cart_id}",
                                    cart=cart.cart_id, endpoint=endpoint_id)
        try:
            rack = self.rack = system.rack(endpoint_id)
            if cart in rack.stranded:
                # A previous return attempt failed and parked the cart in
                # the recovery bay; it is READY at the rack, not docked.
                rack.stranded.remove(cart)
            else:
                station = rack.station_holding(cart)
                station.detach()
                if station.slot_claim is not None:
                    station.slot_claim.release()
                    station.slot_claim = None
        except Exception as error:
            self._fail(error)
            return
        _Shuttle(system, cart, system.library.endpoint_id).done.callbacks.append(
            self._shuttled
        )

    def _shuttled(self, event: Event) -> None:
        system, cart = self.system, self.cart
        if not event._ok:
            event._defused = True
            self._strand(event._value)
            return
        try:
            system.library.admit(cart)
        except Exception as error:
            self._fail(error)
            return
        system._count(COUNT_PREFIX + "returns")
        if self.tracer is not None:
            self.span.end()
        self.done.succeed(cart)

    def _strand(self, error: BaseException) -> None:
        """The cart is parked READY back at the rack: re-dock it if a slot
        and a station are still free, otherwise park it in the rack's
        recovery bay for a later return attempt."""
        system, cart, rack = self.system, self.cart, self.rack
        recovery = rack.slots.request()
        station = None
        if recovery.triggered:
            station = next(
                (candidate for candidate in rack.stations if not candidate.occupied),
                None,
            )
        if station is not None:
            station.attach(cart)
            station.slot_claim = recovery
        else:
            recovery.release()
            rack.strand(cart)
            system._count(COUNT_PREFIX + "stranded_carts")
            if self.tracer is not None:
                self.tracer.instant("cart.stranded", track=f"cart-{cart.cart_id}",
                                    endpoint=self.endpoint_id)
        self._fail(error)

    def _fail(self, error: BaseException) -> None:
        if self.tracer is not None:
            self.span.end()
        self.done.fail(error)
