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
attempts through the ``pre_shuttle_hooks`` / ``post_shuttle_hooks``
lists instead of monkey-patching ``_shuttle``.
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
    """One physical launch attempt, visible to shuttle hooks.

    Pre-shuttle hooks run once the attempt is committed to launch (tube
    claimed, track up) and may mutate the fault directives: set
    ``stall_s`` to stall the cart mid-tube for that long, and
    ``abort_in_tube`` to have the stall end in extraction (the attempt
    fails with :class:`~repro.errors.TrackFaultError`).  Post-shuttle
    hooks observe completed attempts.
    """

    cart: Cart
    src: int
    dst: int
    number: int = 1
    stall_s: float = 0.0
    abort_in_tube: bool = False
    abort_reason: str | None = None


ShuttleHook = Callable[[ShuttleAttempt], None]


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
    post_shuttle_hooks: list[ShuttleHook] = field(init=False)

    def __post_init__(self) -> None:
        if self.tracer is None:
            self.tracer = Tracer(self.env, level=TraceLevel.OFF)
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
        if self.tracer.enabled:
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
        self.post_shuttle_hooks = []
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
        cart = Cart(array=self.make_array(), location=self.library.endpoint_id)
        # Every state transition lands in the trace as a `cart.state`
        # instant; the timeline renderer is built entirely from these.
        tracer = self.tracer

        def traced_transition(cart_self: Cart, new_state: str,
                              _original=Cart.transition) -> None:
            _original(cart_self, new_state)
            tracer.instant(
                "cart.state",
                track=f"cart-{cart_self.cart_id}",
                cart=cart_self.cart_id,
                state=new_state,
            )

        cart.transition = traced_transition.__get__(cart)  # type: ignore[method-assign]
        return cart

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
        """Process: move a READY cart from its location to endpoint ``dst``.

        Sequence: undock handling, exclusive tube traversal, dock
        handling — wrapped in the system's retry/deadline policy.
        Launch energy is metered per hop.  The caller is responsible for
        slot reservations at the destination.
        """
        return self.env.process(self._shuttle(cart, dst))

    def _shuttle(self, cart: Cart, dst: int):
        """Retry wrapper: run attempts under the shuttle policy.

        Raises :class:`ShuttleTimeoutError` when the per-operation
        deadline races ahead of the attempt, and
        :class:`DegradedServiceError` when attempts are exhausted or the
        track outage has outlasted ``give_up_outage_s``.
        """
        if cart.state != CartState.READY:
            raise SchedulingError(
                f"cart {cart.cart_id} must be READY to shuttle, is {cart.state}"
            )
        src = cart.location
        if src == dst:
            raise SchedulingError(f"cart {cart.cart_id} is already at endpoint {dst}")
        policy = self.shuttle_policy
        deadline_at = (
            None if policy.deadline_s is None else self.env.now + policy.deadline_s
        )
        track = pick_track(self.tracks, src, dst)
        cart_track = f"cart-{cart.cart_id}"
        with self.tracer.span("shuttle", track=cart_track,
                              cart=cart.cart_id, src=src, dst=dst):
            result = yield from self._shuttle_with_retries(
                cart, src, dst, track, policy, deadline_at, cart_track
            )
        return result

    def _shuttle_with_retries(self, cart: Cart, src: int, dst: int, track: Track,
                              policy: ShuttlePolicy, deadline_at: float | None,
                              cart_track: str):
        last_fault: TrackFaultError | None = None
        for attempt_number in range(1, policy.max_attempts + 1):
            # Exhaustion check must precede spawning the attempt: a
            # process launched here with no one left to yield it would
            # fail undefused and crash the whole run.
            remaining = None
            if deadline_at is not None:
                remaining = deadline_at - self.env.now
                if remaining <= 0:
                    self._count(COUNT_PREFIX + "shuttle_timeouts")
                    self.tracer.instant("shuttle.timeout", track=cart_track,
                                        attempt=attempt_number)
                    raise ShuttleTimeoutError(
                        f"cart {cart.cart_id} {src}->{dst}: deadline "
                        f"{policy.deadline_s:.3g}s exhausted before attempt "
                        f"{attempt_number}"
                    )
            attempt = ShuttleAttempt(cart=cart, src=src, dst=dst, number=attempt_number)
            proc = self.env.process(self._shuttle_once(attempt, track))
            try:
                if remaining is None:
                    return (yield proc)
                # The paper-prescribed deadline: race the attempt against
                # a timeout; whichever fires first decides the outcome.
                deadline_event = self.env.timeout(remaining)
                race = self.env.any_of([proc, deadline_event])
                yield race
                if proc.triggered:
                    # Drop the losing timeout so a draining run() does
                    # not spin virtual time out to the full deadline.
                    deadline_event.cancel()
                    if proc.ok:
                        return proc.value
                    raise proc.value
                proc.interrupt("shuttle deadline exceeded")
                try:
                    yield proc  # wait for the attempt to unwind cleanly
                except (Interrupt, TrackFaultError):
                    pass
                self._count(COUNT_PREFIX + "shuttle_timeouts")
                self.tracer.instant("shuttle.timeout", track=cart_track,
                                    attempt=attempt_number)
                raise ShuttleTimeoutError(
                    f"cart {cart.cart_id} {src}->{dst} exceeded its "
                    f"{policy.deadline_s:.3g}s deadline on attempt {attempt_number}"
                )
            except TrackFaultError as fault:
                last_fault = fault
                self._count(COUNT_PREFIX + "shuttle_faults")
                self.tracer.instant("shuttle.fault", track=cart_track,
                                    attempt=attempt_number, cause=fault.cause)
            if (
                policy.give_up_outage_s is not None
                and track.health.outage_age(self.env.now) >= policy.give_up_outage_s
            ):
                raise DegradedServiceError(
                    f"track {track.name} has been down "
                    f"{track.health.outage_age(self.env.now):.3g}s "
                    f"(threshold {policy.give_up_outage_s:.3g}s); degrading"
                ) from last_fault
            if attempt_number == policy.max_attempts:
                break
            self._count(COUNT_PREFIX + "shuttle_retries")
            self.tracer.instant("shuttle.retry", track=cart_track,
                                attempt=attempt_number)
            backoff = policy.backoff_delay(attempt_number, self._retry_rng)
            if deadline_at is not None:
                # Never sleep past the deadline: wake exactly at it so
                # the exhaustion check above fires on time.
                backoff = min(backoff, max(deadline_at - self.env.now, 0.0))
            yield self.env.timeout(backoff)
        if policy.max_attempts == 1 and last_fault is not None:
            raise last_fault  # fail-fast policy: surface the root cause directly
        raise DegradedServiceError(
            f"cart {cart.cart_id} {src}->{dst} failed after "
            f"{policy.max_attempts} attempts"
        ) from last_fault

    def _shuttle_once(self, attempt: ShuttleAttempt, track: Track):
        """One physical launch attempt; normalises cart state on failure."""
        cart, src, dst = attempt.cart, attempt.src, attempt.dst
        tracer = self.tracer
        cart_track = f"cart-{cart.cart_id}"
        # The attempt span and its phase children (tube.wait, undock,
        # transit[/stall], dock) partition the attempt exactly: the
        # trace-invariant tests hold their durations to sum to the
        # attempt's, even when an interrupt unwinds mid-phase.
        attempt_span = tracer.span("attempt", track=cart_track,
                                   number=attempt.number, src=src, dst=dst)
        wait_span = NULL_SPAN
        try:
            if not track.health.tube_available:
                raise TrackFaultError(
                    f"tube {track.name} is unavailable (breach under repair)",
                    track=track.name,
                    cause="breach",
                )
            wait_span = tracer.span("tube.wait", track=cart_track)
            with track.tube.request() as tube_claim:
                yield tube_claim
                wait_span.end()
                # Re-check: the breach may have struck while we queued.
                if not track.health.tube_available:
                    raise TrackFaultError(
                        f"tube {track.name} went down while cart "
                        f"{cart.cart_id} queued for it",
                        track=track.name,
                        cause="breach",
                    )
                for hook in list(self.pre_shuttle_hooks):
                    hook(attempt)
                with tracer.span("undock", track=cart_track):
                    yield self.env.timeout(self.params.undock_time)
                cart.transition(CartState.IN_TRANSIT)
                cart.location = dst
                hop = track.hop(src, dst)
                # A degraded LIM launches slower but still launches.
                travel = hop.motion_time_s * track.health.lim_slowdown
                with tracer.span("transit", track=cart_track):
                    if attempt.stall_s > 0.0 or attempt.abort_in_tube:
                        yield self.env.timeout(travel / 2.0)
                        self._count(COUNT_PREFIX + "cart_stalls")
                        if attempt.stall_s > 0.0:
                            self._count(DURATION_PREFIX + "stall", attempt.stall_s)
                            with tracer.span("stall", track=cart_track):
                                yield self.env.timeout(attempt.stall_s)
                        if attempt.abort_in_tube:
                            raise TrackFaultError(
                                f"cart {cart.cart_id} stalled in {track.name} "
                                "and was extracted",
                                track=track.name,
                                cause=attempt.abort_reason or "stall",
                            )
                        yield self.env.timeout(travel / 2.0)
                    else:
                        yield self.env.timeout(travel)
                cart.transition(CartState.ARRIVED)
                # Docking blocks the tube: hold the claim through the dock.
                with tracer.span("dock", track=cart_track):
                    yield self.env.timeout(self.params.dock_time)
        except BaseException:
            # Breach, extraction or deadline interrupt: the tube claim is
            # released by the context manager; park the cart READY at its
            # origin so the retry layer can relaunch or re-store it.
            wait_span.end()
            attempt_span.end(failed=True)
            if cart.state in (CartState.IN_TRANSIT, CartState.ARRIVED):
                cart.abort_transit(src)
            raise
        attempt_span.end()
        self._count(ENERGY_PREFIX + "launch", hop.energy_j)
        self._count(COUNT_PREFIX + "launches")
        track.traversals += 1
        track.metres_travelled += hop.distance_m
        cart.trips_completed += 1
        for hook in list(self.post_shuttle_hooks):
            hook(attempt)
        return cart

    # -- high-level movements -----------------------------------------------------

    def dispatch_to_rack(self, cart_id: int, endpoint_id: int) -> Event:
        """Process: library -> rack, ending docked at a free station."""
        return self.env.process(self._dispatch(cart_id, endpoint_id))

    def _dispatch(self, cart_id: int, endpoint_id: int):
        rack = self.rack(endpoint_id)
        cart_track = f"cart-{cart_id}"
        with self.tracer.span("dispatch", track=cart_track,
                              cart=cart_id, endpoint=endpoint_id):
            with self.tracer.span("slot.wait", track=cart_track):
                slot = rack.slots.request()
                yield slot
            cart = self.library.checkout(cart_id)
            try:
                yield self.env.process(self._shuttle(cart, endpoint_id))
                station = rack.free_station()
                station.attach(cart)
            except BaseException:
                slot.release()
                # A failed attempt parks the cart READY at its origin (the
                # library); re-admit it so the cart is never leaked.
                if (
                    cart.state == CartState.READY
                    and cart.location == self.library.endpoint_id
                ):
                    self.library.admit(cart)
                raise
            station.slot_claim = slot  # released on return
            self._count(COUNT_PREFIX + "dispatches")
        return station

    def return_to_library(self, cart: Cart, endpoint_id: int) -> Event:
        """Process: rack -> library, freeing the dock slot."""
        return self.env.process(self._return(cart, endpoint_id))

    def _return(self, cart: Cart, endpoint_id: int):
        with self.tracer.span("return", track=f"cart-{cart.cart_id}",
                              cart=cart.cart_id, endpoint=endpoint_id):
            result = yield from self._return_inner(cart, endpoint_id)
        return result

    def _return_inner(self, cart: Cart, endpoint_id: int):
        rack = self.rack(endpoint_id)
        if cart in rack.stranded:
            # A previous return attempt failed and parked the cart in
            # the recovery bay; it is READY at the rack, not docked.
            rack.stranded.remove(cart)
        else:
            station = rack.station_holding(cart)
            cart = station.detach()
            slot_claim = getattr(station, "slot_claim", None)
            if slot_claim is not None:
                slot_claim.release()
                station.slot_claim = None
        try:
            yield self.env.process(self._shuttle(cart, self.library.endpoint_id))
        except BaseException:
            # The cart is parked READY back at the rack.  Without this
            # handler a mid-shuttle fault stranded it detached with its
            # dock slot already released.  Re-dock it if a slot and a
            # station are still free, otherwise park it in the rack's
            # recovery bay for a later return attempt.
            recovery = rack.slots.request()
            station = None
            if recovery.triggered:
                station = next(
                    (
                        candidate
                        for candidate in rack.stations
                        if not candidate.occupied and not candidate.out_of_service
                    ),
                    None,
                )
            if station is not None:
                station.attach(cart)
                station.slot_claim = recovery
            else:
                recovery.release()
                rack.strand(cart)
                self._count(COUNT_PREFIX + "stranded_carts")
                self.tracer.instant("cart.stranded", track=f"cart-{cart.cart_id}",
                                    endpoint=endpoint_id)
            raise
        self.library.admit(cart)
        self._count(COUNT_PREFIX + "returns")
        return cart

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
            held = rack.slots.count
            docked = len(rack.docked_carts)
            out_of_service = sum(
                1 for station in rack.stations if station.out_of_service
            )
            leaks[f"slots:{endpoint_id}"] = held - docked - out_of_service
        return leaks
