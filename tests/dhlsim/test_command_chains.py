"""The DHL commands as callback chains, checked against the process chain.

``DhlApi.open``/``read``/``close``, ``DhlSystem.shuttle``/
``dispatch_to_rack``/``return_to_library`` and ``DockingStation.read``/
``write`` run as chains of plain-event callbacks that take their first
step when they are issued.  The nested generator processes they
replaced are kept here, as the oracle, and nowhere in ``src``.

* The hypothesis differential drives random systems — concurrent Opens,
  Reads, Writes and Closes, retries with backoff, stalling and aborting
  pre-shuttle hooks, tube breaches mid-queue, deadlines, a FULL tracer —
  through both.  Where no two jobs or breach edges start in one instant
  it demands the same virtual-time outcomes: log, metrics, trace and
  carts, with order inside an instant left free.  Where two do, the
  chains claim in issue order and the process chain need not, so only
  the chain's own audits (no leaked claim, every cart accounted for,
  claim spans that agree with the resources) are checked.
* The tie rule: two commands issued in one instant claim a tube or a
  dock slot in the order they were issued.
* The proxy gates pin the cost exactly: queue pushes beside the process
  chain's (and generator lane workers'), no zero-delay kick-off, and no
  process spawns.
* The light-load oracle holds the fleet to the paper's closed-form
  launch time where nothing queues.
"""

import contextlib
import itertools
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import launch_metrics
from repro.core.params import DhlParams
from repro.dhlsim import cart as cart_module
from repro.dhlsim.api import DhlApi
from repro.dhlsim.cart import CartState
from repro.dhlsim.docking import DockingStation
from repro.dhlsim.metrics import COUNT_PREFIX, DURATION_PREFIX, ENERGY_PREFIX
from repro.dhlsim.policy import ShuttlePolicy
from repro.dhlsim.scheduler import DhlSystem, ShuttleAttempt
from repro.dhlsim.track import pick_track
from repro.errors import (
    DegradedServiceError,
    SchedulingError,
    ShuttleTimeoutError,
    TrackFaultError,
)
from repro.fleet.controlplane import (
    FLEET_TARGETS,
    _bind_jobs,
    build_plane,
    default_scenario,
    run_fleet,
)
from repro.fleet.sla import Outcome
from repro.obs.probe import trace_leaked_resources
from repro.obs.tracer import NULL_SPAN, TraceLevel, Tracer, span_nesting_violations
from repro.sim import Environment, Interrupt
from repro.storage.datasets import synthetic_dataset
from repro.storage.ssd_array import PCIE6_X64
from repro.units import TB
from repro.workloads.generator import TrafficClass

# -- the oracle: the generator process chain ---------------------------------


def _open(api, dataset, shard_index, endpoint_id):
    cart = api.system.library.cart_holding(dataset, shard_index)
    station = yield api.system.dispatch_to_rack(cart.cart_id, endpoint_id)
    return station


def _api_read(api, endpoint_id, dataset, shard_index, n_bytes):
    station = api.system.station_for_shard(endpoint_id, dataset, shard_index)
    cart = station.cart
    assert cart is not None
    cart.check_integrity()
    shard = cart.shards[(dataset, shard_index)]
    amount = shard.size_bytes if n_bytes is None else min(n_bytes, shard.size_bytes)
    done = yield station.read(amount)
    return done


def _station_read(station, n_bytes):
    cart = station._require_cart("read")
    if n_bytes < 0:
        raise SchedulingError(f"read size must be >= 0, got {n_bytes}")
    with station.busy.request() as claim:
        yield claim
        array = cart.array
        if cart.failed_drives:
            bandwidth = min(
                array.surviving(cart.failed_drives).read_bw, station.link.bandwidth
            )
        else:
            bandwidth = array.effective_read_bw(station.link)
        yield station.env.timeout(n_bytes / bandwidth)
        station.bytes_read += n_bytes
    return n_bytes


def _station_write(station, n_bytes):
    cart = station._require_cart("write")
    if n_bytes < 0:
        raise SchedulingError(f"write size must be >= 0, got {n_bytes}")
    if n_bytes > cart.array.usable_capacity_bytes:
        raise SchedulingError(
            f"write of {n_bytes:.3g} B exceeds cart capacity "
            f"{cart.array.usable_capacity_bytes:.3g} B"
        )
    with station.busy.request() as claim:
        yield claim
        bandwidth = cart.array.effective_write_bw(station.link)
        yield station.env.timeout(n_bytes / bandwidth)
        station.bytes_written += n_bytes
    return n_bytes


def _shuttle(system, cart, dst):
    if cart.state != CartState.READY:
        raise SchedulingError(
            f"cart {cart.cart_id} must be READY to shuttle, is {cart.state}"
        )
    src = cart.location
    if src == dst:
        raise SchedulingError(f"cart {cart.cart_id} is already at endpoint {dst}")
    policy = system.shuttle_policy
    deadline_at = (
        None if policy.deadline_s is None else system.env.now + policy.deadline_s
    )
    track = pick_track(system.tracks, src, dst)
    cart_track = f"cart-{cart.cart_id}"
    with system.tracer.span("shuttle", track=cart_track,
                            cart=cart.cart_id, src=src, dst=dst):
        result = yield from _shuttle_with_retries(
            system, cart, src, dst, track, policy, deadline_at, cart_track
        )
    return result


def _shuttle_with_retries(system, cart, src, dst, track, policy, deadline_at,
                          cart_track):
    env = system.env
    last_fault = None
    for attempt_number in range(1, policy.max_attempts + 1):
        remaining = None
        if deadline_at is not None:
            remaining = deadline_at - env.now
            if remaining <= 0:
                system._count(COUNT_PREFIX + "shuttle_timeouts")
                system.tracer.instant("shuttle.timeout", track=cart_track,
                                      attempt=attempt_number)
                raise ShuttleTimeoutError(
                    f"cart {cart.cart_id} {src}->{dst}: deadline "
                    f"{policy.deadline_s:.3g}s exhausted before attempt "
                    f"{attempt_number}"
                )
        attempt = ShuttleAttempt(cart=cart, src=src, dst=dst, number=attempt_number)
        proc = env.process(_shuttle_once(system, attempt, track))
        try:
            if remaining is None:
                return (yield proc)
            deadline_event = env.timeout(remaining)
            race = env.any_of([proc, deadline_event])
            yield race
            if proc.triggered:
                deadline_event.cancel()
                if proc.ok:
                    return proc.value
                raise proc.value
            proc.interrupt("shuttle deadline exceeded")
            try:
                yield proc
            except (Interrupt, TrackFaultError):
                pass
            system._count(COUNT_PREFIX + "shuttle_timeouts")
            system.tracer.instant("shuttle.timeout", track=cart_track,
                                  attempt=attempt_number)
            raise ShuttleTimeoutError(
                f"cart {cart.cart_id} {src}->{dst} exceeded its "
                f"{policy.deadline_s:.3g}s deadline on attempt {attempt_number}"
            )
        except TrackFaultError as fault:
            last_fault = fault
            system._count(COUNT_PREFIX + "shuttle_faults")
            system.tracer.instant("shuttle.fault", track=cart_track,
                                  attempt=attempt_number, cause=fault.cause)
        if (
            policy.give_up_outage_s is not None
            and track.health.outage_age(env.now) >= policy.give_up_outage_s
        ):
            raise DegradedServiceError(
                f"track {track.name} has been down "
                f"{track.health.outage_age(env.now):.3g}s "
                f"(threshold {policy.give_up_outage_s:.3g}s); degrading"
            ) from last_fault
        if attempt_number == policy.max_attempts:
            break
        system._count(COUNT_PREFIX + "shuttle_retries")
        system.tracer.instant("shuttle.retry", track=cart_track,
                              attempt=attempt_number)
        backoff = policy.backoff_delay(attempt_number, system._retry_rng)
        if deadline_at is not None:
            backoff = min(backoff, max(deadline_at - env.now, 0.0))
        yield env.timeout(backoff)
    if policy.max_attempts == 1 and last_fault is not None:
        raise last_fault
    raise DegradedServiceError(
        f"cart {cart.cart_id} {src}->{dst} failed after "
        f"{policy.max_attempts} attempts"
    ) from last_fault


def _shuttle_once(system, attempt, track):
    env, tracer = system.env, system.tracer
    cart, src, dst = attempt.cart, attempt.src, attempt.dst
    cart_track = f"cart-{cart.cart_id}"
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
            if not track.health.tube_available:
                raise TrackFaultError(
                    f"tube {track.name} went down while cart "
                    f"{cart.cart_id} queued for it",
                    track=track.name,
                    cause="breach",
                )
            for hook in list(system.pre_shuttle_hooks):
                hook(attempt)
            with tracer.span("undock", track=cart_track):
                yield env.timeout(system.params.undock_time)
            cart.transition(CartState.IN_TRANSIT)
            cart.location = dst
            hop = track.hop(src, dst)
            travel = hop.motion_time_s * track.health.lim_slowdown
            with tracer.span("transit", track=cart_track):
                if attempt.stall_s > 0.0 or attempt.abort_in_tube:
                    yield env.timeout(travel / 2.0)
                    system._count(COUNT_PREFIX + "cart_stalls")
                    if attempt.stall_s > 0.0:
                        system._count(DURATION_PREFIX + "stall", attempt.stall_s)
                        with tracer.span("stall", track=cart_track):
                            yield env.timeout(attempt.stall_s)
                    if attempt.abort_in_tube:
                        raise TrackFaultError(
                            f"cart {cart.cart_id} stalled in {track.name} "
                            "and was extracted",
                            track=track.name,
                            cause=attempt.abort_reason or "stall",
                        )
                    yield env.timeout(travel / 2.0)
                else:
                    yield env.timeout(travel)
            cart.transition(CartState.ARRIVED)
            with tracer.span("dock", track=cart_track):
                yield env.timeout(system.params.dock_time)
    except BaseException:
        wait_span.end()
        attempt_span.end(failed=True)
        if cart.state in (CartState.IN_TRANSIT, CartState.ARRIVED):
            cart.abort_transit(src)
        raise
    attempt_span.end()
    system._count(ENERGY_PREFIX + "launch", hop.energy_j)
    system._count(COUNT_PREFIX + "launches")
    track.traversals += 1
    track.metres_travelled += hop.distance_m
    cart.trips_completed += 1
    return cart


def _dispatch(system, cart_id, endpoint_id):
    rack = system.rack(endpoint_id)
    cart_track = f"cart-{cart_id}"
    slots = rack.slots
    # A dispatch that queues for its slot traces on async rows, as the chain does.
    open_span = (system.tracer.span if slots.count < slots.capacity
                 else system.tracer.span_async)
    with open_span("dispatch", track=cart_track, cart=cart_id, endpoint=endpoint_id):
        with open_span("slot.wait", track=cart_track):
            slot = rack.slots.request()
            yield slot
        try:
            cart = system.library.checkout(cart_id)
        except BaseException:
            slot.release()  # the slot-leak fix, as in the callback chain
            raise
        try:
            yield system.env.process(_shuttle(system, cart, endpoint_id))
            station = rack.free_station()
            station.attach(cart)
        except BaseException:
            slot.release()
            if (
                cart.state == CartState.READY
                and cart.location == system.library.endpoint_id
            ):
                system.library.admit(cart)
            raise
        station.slot_claim = slot
        system._count(COUNT_PREFIX + "dispatches")
    return station


def _return(system, cart, endpoint_id):
    with system.tracer.span("return", track=f"cart-{cart.cart_id}",
                            cart=cart.cart_id, endpoint=endpoint_id):
        result = yield from _return_inner(system, cart, endpoint_id)
    return result


def _return_inner(system, cart, endpoint_id):
    rack = system.rack(endpoint_id)
    if cart in rack.stranded:
        rack.stranded.remove(cart)
    else:
        station = rack.station_holding(cart)
        cart = station.detach()
        slot_claim = getattr(station, "slot_claim", None)
        if slot_claim is not None:
            slot_claim.release()
            station.slot_claim = None
    try:
        yield system.env.process(_shuttle(system, cart, system.library.endpoint_id))
    except BaseException:
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
            system.tracer.instant("cart.stranded", track=f"cart-{cart.cart_id}",
                                  endpoint=endpoint_id)
        raise
    system.library.admit(cart)
    system._count(COUNT_PREFIX + "returns")
    return cart


PROCESS_CHAIN = {
    (DhlApi, "open"): lambda self, dataset, shard_index, endpoint_id: (
        self.env.process(_open(self, dataset, shard_index, endpoint_id))
    ),
    (DhlApi, "read"): lambda self, endpoint_id, dataset, shard_index, n_bytes=None: (
        self.env.process(_api_read(self, endpoint_id, dataset, shard_index, n_bytes))
    ),
    (DhlSystem, "shuttle"): lambda self, cart, dst: (
        self.env.process(_shuttle(self, cart, dst))
    ),
    (DhlSystem, "dispatch_to_rack"): lambda self, cart_id, endpoint_id: (
        self.env.process(_dispatch(self, cart_id, endpoint_id))
    ),
    (DhlSystem, "return_to_library"): lambda self, cart, endpoint_id: (
        self.env.process(_return(self, cart, endpoint_id))
    ),
    (DockingStation, "read"): lambda self, n_bytes: (
        self.env.process(_station_read(self, n_bytes))
    ),
    (DockingStation, "write"): lambda self, n_bytes: (
        self.env.process(_station_write(self, n_bytes))
    ),
}


@contextlib.contextmanager
def command_path(oracle):
    """Run the block on the process chain (``oracle``) or the callbacks."""
    if not oracle:
        yield
        return
    saved = {key: getattr(*key) for key in PROCESS_CHAIN}
    try:
        for (owner, name), method in PROCESS_CHAIN.items():
            setattr(owner, name, method)
        yield
    finally:
        for (owner, name), method in saved.items():
            setattr(owner, name, method)


@contextlib.contextmanager
def counting_spawns():
    """Count ``Environment.process`` calls made inside the block."""
    original = Environment.process
    spawned = [0]

    def process(self, generator):
        spawned[0] += 1
        return original(self, generator)

    Environment.process = process
    try:
        yield spawned
    finally:
        Environment.process = original


# -- the differential --------------------------------------------------------

OPS = ("cycle", "cycle", "cycle", "shuttle", "write")


@st.composite
def scenarios(draw):
    return {
        "shards": draw(st.integers(1, 5)),
        "stations": draw(st.integers(1, 3)),
        "racks": draw(st.integers(1, 2)),
        "attempts": draw(st.integers(1, 4)),
        "backoff": draw(st.sampled_from([0.5, 3.0, 20.0])),
        "jitter": draw(st.sampled_from([0.0, 0.3])),
        "deadline": draw(st.sampled_from([None, None, 4.0, 9.0, 40.0])),
        "give_up": draw(st.sampled_from([None, None, 15.0])),
        "level": draw(st.sampled_from(
            [TraceLevel.OFF, TraceLevel.METRICS, TraceLevel.FULL, TraceLevel.FULL]
        )),
        "stall_p": draw(st.sampled_from([0.0, 0.3, 0.6])),
        "abort_p": draw(st.sampled_from([0.0, 0.3])),
        "breaches": draw(st.lists(
            st.tuples(st.floats(0.0, 60.0), st.floats(0.5, 30.0)), max_size=3
        )),
        "jobs": draw(st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 4), st.integers(0, 1),
                      st.floats(0.0, 40.0), st.floats(0.0, 1.0)),
            min_size=1, max_size=8,
        )),
        "seed": draw(st.integers(0, 2**16)),
    }


@contextlib.contextmanager
def fresh_cart_ids():
    """Number carts from 0 inside the block, so both paths name them alike."""
    saved = cart_module._cart_ids
    cart_module._cart_ids = itertools.count()
    try:
        yield
    finally:
        cart_module._cart_ids = saved


def run_commands(spec, oracle):
    """Drive one scenario; everything observable about the run."""
    with fresh_cart_ids(), command_path(oracle):
        return _run_commands(spec)


def _run_commands(spec):
    env = Environment()
    tracer = Tracer(level=spec["level"])
    env.set_tracer(tracer)
    policy = ShuttlePolicy(
        max_attempts=spec["attempts"],
        base_backoff_s=spec["backoff"],
        jitter_frac=spec["jitter"],
        deadline_s=spec["deadline"],
        give_up_outage_s=spec["give_up"],
    )
    system = DhlSystem(env, n_racks=spec["racks"],
                       stations_per_rack=spec["stations"],
                       shuttle_policy=policy, retry_seed=spec["seed"],
                       tracer=tracer)
    dataset = synthetic_dataset(spec["shards"] * 256 * TB, name="d")
    system.load_dataset(dataset)
    system.add_empty_carts(3)
    staged = sorted(system.library.carts)
    api = DhlApi(system)
    rng = random.Random(spec["seed"])

    def hook(attempt):
        if rng.random() < spec["stall_p"]:
            attempt.stall_s = rng.uniform(0.5, 12.0)
        if rng.random() < spec["abort_p"]:
            attempt.abort_in_tube = True
            attempt.abort_reason = "extracted"

    system.pre_shuttle_hooks.append(hook)
    log = []
    loose = []

    def breaches():
        for gap, length in spec["breaches"]:
            yield env.timeout(gap)
            for track in system.tracks:
                track.health.mark_down(env.now)
            yield env.timeout(length)
            for track in system.tracks:
                track.health.mark_up(env.now)

    def attempt_op(name, event):
        try:
            value = yield event
        except (SchedulingError, Interrupt) as error:
            log.append((env.now, name, type(error).__name__, str(error)))
            return None
        log.append((env.now, name, "ok"))
        return value

    def job(number, op, shard, rack, start, fraction):
        endpoint = 1 + rack % spec["racks"]
        shard = shard % spec["shards"]
        yield env.timeout(start)
        if op in ("shuttle", "write"):
            try:
                cart = system.library.idle_cart()
            except SchedulingError:
                log.append((env.now, f"{number}:idle", "none"))
                return
        if op == "shuttle":
            system.library.checkout(cart.cart_id)
            loose.append(cart)  # out of the library until admitted back
            moved = yield from attempt_op(
                f"{number}:shuttle", system.shuttle(cart, endpoint)
            )
            if moved is None:
                if cart.state == CartState.READY and cart.location == 0:
                    system.library.admit(cart)
                    loose.remove(cart)
                return
            cart.transition(CartState.READY)
            back = yield from attempt_op(f"{number}:home", system.shuttle(cart, 0))
            if back is not None:
                system.library.admit(cart)
                loose.remove(cart)
            return
        if op == "write":
            station = yield from attempt_op(
                f"{number}:open", system.dispatch_to_rack(cart.cart_id, endpoint)
            )
        else:
            station = yield from attempt_op(
                f"{number}:open", api.open("d", shard, endpoint)
            )
        if station is None:
            return
        cart = station.cart
        if op == "write":
            yield from attempt_op(
                f"{number}:write", api.write(station, fraction * 8 * TB)
            )
        else:
            yield from attempt_op(
                f"{number}:read",
                api.read(endpoint, "d", shard, n_bytes=fraction * 300 * TB),
            )
        for _ in range(12):
            closed = yield from attempt_op(f"{number}:close", api.close(cart, endpoint))
            if closed is not None:
                return
            yield env.timeout(7.0)

    env.process(breaches())
    for number, (op, shard, rack, start, fraction) in enumerate(spec["jobs"]):
        env.process(job(number, op, shard, rack, start, fraction))
    env.run()
    return {
        "eid": env._eid,
        "now": env.now,
        "fired": tracer.engine_counters["events_fired"],
        "cancelled": tracer.engine_counters["events_cancelled"],
        "log": log,
        "metrics": system.metrics.snapshot(),
        "spans": [(s.name, s.track, s.start_s, s.end_s, s.args) for s in tracer.spans],
        "instants": tracer.instants,
        "counters": tracer.counters,
        "carts": sorted(
            (c.cart_id, c.state, c.location, c.trips_completed)
            for c in _all_carts(system) + loose
        ),
        "leaks": system.leaked_resources(),
        "staged": staged,
        "probe_leaks": trace_leaked_resources(tracer, system),
        "open_spans": len(tracer.open_spans()),
    }


def start_times(spec):
    """The instants the spec starts something: job starts, breach edges."""
    times = [start for _op, _shard, _rack, start, _fraction in spec["jobs"]]
    now = 0.0
    for gap, length in spec["breaches"]:
        now += gap
        times.append(now)
        now += length
        times.append(now)
    return times


def has_tie(spec):
    """Whether two of the spec's starts may share an instant downstream.

    Starts closer than 1 ns count as tied: ``5e-324 + 8.6 == 8.6``, so a
    job started at a denormal time lands in the same instant as one
    started at zero.
    """
    times = sorted(start_times(spec))
    return any(later - earlier < 1e-9 for earlier, later in zip(times, times[1:]))


def outcomes(result):
    """A run's virtual-time outcomes, with order inside an instant free."""
    return {
        "now": result["now"],
        "cancelled": result["cancelled"],
        "log": sorted(result["log"]),
        "metrics": result["metrics"],
        "spans": sorted(map(repr, result["spans"])),
        "instants": sorted(map(repr, result["instants"])),
        "counters": sorted(map(repr, result["counters"])),
        "carts": result["carts"],
        "leaks": result["leaks"],
    }


def audit(result):
    """What must hold on any run once it drains: no claim held, every
    cart in exactly one place, and a trace that agrees on both."""
    assert set(result["leaks"].values()) == {0}
    assert result["probe_leaks"] == result["leaks"]
    assert result["open_spans"] == 0
    assert [cart_id for cart_id, *_ in result["carts"]] == result["staged"]


def _all_carts(system):
    carts = list(system.library.carts.values())
    for rack in system.racks.values():
        carts.extend(rack.docked_carts)
        carts.extend(rack.stranded)
    return carts


def check_against_oracle(spec):
    """Audit the chains' run; with no tie, match the oracle's outcomes."""
    chains = run_commands(spec, oracle=False)
    audit(chains)
    if has_tie(spec):
        return chains
    oracle = run_commands(spec, oracle=True)
    assert outcomes(chains) == outcomes(oracle)
    # The chains push no kick-offs, so they fire no more events.
    assert chains["fired"] <= oracle["fired"]
    return chains


class TestDifferential:
    @settings(max_examples=100)
    @given(spec=scenarios())
    def test_callbacks_match_the_process_chain(self, spec):
        check_against_oracle(spec)

    def test_scenarios_reach_the_fault_paths(self):
        # The strategy is only worth something if its faults fire: one
        # fixed scenario must retry, stall, abort, time out and breach.
        spec = {
            "shards": 4, "stations": 2, "racks": 2, "attempts": 3,
            "backoff": 3.0, "jitter": 0.3, "deadline": 9.0, "give_up": None,
            "level": TraceLevel.FULL, "stall_p": 0.6, "abort_p": 0.3,
            "breaches": [(5.0, 20.0), (30.0, 10.0)],
            "jobs": [("cycle", s, s, 0.5 * s, 0.5) for s in range(4)]
                    + [("write", 0, 1, 1.0, 0.5), ("shuttle", 0, 0, 2.0, 0.0)],
            "seed": 7,
        }
        result = run_commands(spec, oracle=False)
        audit(result)
        # Two jobs start at t = 1.0, on different carts and racks, and
        # the outcomes still match.
        assert outcomes(result) == outcomes(run_commands(spec, oracle=True))
        counts = {name: values["value"] for name, values in result["metrics"].items()}
        for name in ("shuttle_retries", "shuttle_faults", "cart_stalls",
                     "shuttle_timeouts"):
            assert counts.get(COUNT_PREFIX + name, 0) > 0, name
        assert any(entry[2] == "ShuttleTimeoutError" for entry in result["log"])
        assert any(name == "shuttle" for name, *_ in result["spans"])


def run_race(oracle):
    """Two carts launch at t=0 under a deadline that ends exactly when the
    first cart's dock releases the tube to the second.

    Returns ``(env, system, tracer, log)`` after the run.
    """
    with fresh_cart_ids(), command_path(oracle):
        env = Environment()
        tracer = Tracer()
        env.set_tracer(tracer)
        params = DhlParams()
        travel = DhlSystem(Environment()).tracks[0].hop(0, 1).motion_time_s
        deadline = ((0.0 + params.undock_time) + travel) + params.dock_time
        system = DhlSystem(env, shuttle_policy=ShuttlePolicy(deadline_s=deadline),
                           tracer=tracer)
        log = []

        def launch(cart):
            system.library.checkout(cart.cart_id)
            try:
                yield system.shuttle(cart, 1)
                log.append((env.now, cart.cart_id, "ok"))
            except SchedulingError as error:
                log.append((env.now, cart.cart_id, type(error).__name__))

        for cart in system.add_empty_carts(2):
            env.process(launch(cart))
        env.run()
    return env, system, tracer, log


def race_at_tube_handover(oracle):
    """The race's event count, shuttle log and spans, for chain parity."""
    env, _system, tracer, log = run_race(oracle)
    spans = sorted((span.name, span.start_s, span.end_s) for span in tracer.spans)
    return env._eid, log, spans


class TestDeadlineInterrupt:
    def test_interrupt_preempts_a_same_instant_tube_grant(self):
        # The second cart's deadline fires in the instant the tube frees
        # up.  The interrupt must land at band 0, ahead of the grant.  A
        # band-1 abort would let the grant through and the doomed
        # attempt would start to undock.
        eid, log, spans = race_at_tube_handover(oracle=False)
        oracle_eid, oracle_log, oracle_spans = race_at_tube_handover(oracle=True)
        assert (log, spans) == (oracle_log, oracle_spans)
        # Four kick-offs fewer: each shuttle's own and its attempt's.
        assert (eid, oracle_eid) == (18, 22)
        assert [entry[2] for entry in log] == ["ok", "ShuttleTimeoutError"]
        assert [name for name, *_ in spans].count("undock") == 1


class TestClaimSpanAtHandover:
    @pytest.mark.parametrize("oracle", [False, True], ids=["callbacks", "process"])
    def test_a_claim_released_before_its_grant_ran_opens_no_span(self, oracle):
        # The second cart's tube grant and its deadline abort land in one
        # instant: the abort releases the request before the grant's
        # callback runs, so the probe must not open a claim span for it.
        _env, system, tracer, _log = run_race(oracle)
        assert tracer.open_spans() == []
        assert trace_leaked_resources(tracer, system) == system.leaked_resources()


def open_twice_while_the_docks_are_full(oracle):
    """Two Opens of one cart at t = 20 s, while both dock slots are held.

    Both find the cart in the library and queue for a slot; two Closes
    issued right after them free the slots.  Returns the system and the
    Opens' outcomes in the order they landed.
    """
    with command_path(oracle):
        env = Environment()
        system = DhlSystem(env)
        system.load_dataset(synthetic_dataset(10 * TB, name="d"))
        api = DhlApi(system)
        parked = system.add_empty_carts(2)
        for cart in parked:
            system.dispatch_to_rack(cart.cart_id, 1)
        outcomes = []

        def record(event):
            event._defused = True
            outcomes.append(event._value)

        def issue(_event):
            assert system.rack(1).slots.count == 2
            api.open("d", 0, 1).callbacks.append(record)
            api.open("d", 0, 1).callbacks.append(record)
            for cart in parked:
                api.close(cart, 1)

        env.timeout(20.0).callbacks.append(issue)
        env.run()
    return system, outcomes


class TestDockSlotLeak:
    def test_failed_checkout_releases_its_slot(self):
        # The second Open is granted a slot but finds the cart gone.  It
        # must hand the slot back.
        for oracle in (False, True):
            system, (refused, docked) = open_twice_while_the_docks_are_full(oracle)
            assert isinstance(docked, DockingStation)
            assert isinstance(refused, SchedulingError)
            assert str(refused) == f"cart {docked.cart.cart_id} is not in the library"
            # The docked cart holds its slot; the refused Open holds none.
            assert system.leaked_resources() == {"tube:rail-0": 0, "slots:1": 0}


def open_one_cart_twice_behind_a_held_slot(oracle):
    """One dock slot, held by shard 1 from t = 0 for 1,000 s.

    Shard 0 is Opened at t = 1 s and again at t = 5 s; both queue for the
    slot.  The first docks once shard 1 leaves and Closes at once; the
    second is granted the slot while the cart is away and is refused.
    Returns the tracer, the system and the Opens' log.
    """
    with fresh_cart_ids(), command_path(oracle):
        tracer = Tracer()
        env = Environment(tracer=tracer)
        system = DhlSystem(env, stations_per_rack=1, tracer=tracer)
        system.load_dataset(synthetic_dataset(2 * 256 * TB, name="d"))
        api = DhlApi(system)
        log = []

        def hold():
            station = yield api.open("d", 1, 1)
            yield env.timeout(1000.0)
            yield api.close(station.cart, 1)

        def open_shard_zero(at):
            yield env.timeout(at)
            try:
                station = yield api.open("d", 0, 1)
            except SchedulingError as error:
                log.append((at, env.now, str(error)))
                return
            log.append((at, env.now, "docked"))
            yield api.close(station.cart, 1)

        env.process(hold())
        env.process(open_shard_zero(1.0))
        env.process(open_shard_zero(5.0))
        env.run()
    return tracer, system, log


class TestQueuedDispatchSpans:
    @pytest.mark.parametrize("oracle", [False, True], ids=["callbacks", "process"])
    def test_two_queued_opens_of_one_cart_nest_on_its_track(self, oracle):
        tracer, system, log = open_one_cart_twice_behind_a_held_slot(oracle)
        (first_at, docked_at, docked), (second_at, refused_at, refused) = log
        assert (first_at, docked, second_at) == (1.0, "docked", 5.0)
        assert refused == "cart 0 is not in the library"
        assert refused_at == docked_at  # the slot frees as the cart leaves
        # The queued waits ran 1 s -> 1,008.6 s and 5 s -> the refusal on
        # cart-0's track, partly overlapping: they are async rows now.
        assert span_nesting_violations(tracer.closed_spans()) == []
        assert tracer.open_spans() == []
        dispatches = sorted(
            (span.start_s, span.end_s, span.async_id is None)
            for span in tracer.find_spans("dispatch")
        )
        assert dispatches == [
            (0.0, pytest.approx(8.6), True),  # a free slot: a synchronous span
            (1.0, docked_at, False),
            (5.0, refused_at, False),
        ]
        assert trace_leaked_resources(tracer, system) == system.leaked_resources()
        assert set(system.leaked_resources().values()) == {0}


# -- the tie rule --------------------------------------------------------------

ISSUED_AT = 20.0


def land(first, second):
    """Issue ``first`` then ``second`` in one callback at ``ISSUED_AT``.

    One rail, one rack with two dock slots, one of them held by a cart
    docked beforehand (the cart ``return`` sends home).  Every command
    needs the tube; ``open`` and ``dispatch`` also need the free slot.
    Returns when each command landed, by name.
    """
    with fresh_cart_ids():
        env = Environment()
        system = DhlSystem(env)
        system.load_dataset(synthetic_dataset(10 * TB, name="d"))
        api = DhlApi(system)
        empty, docked = system.add_empty_carts(2)
        system.dispatch_to_rack(docked.cart_id, 1)

        def shuttle():
            system.library.checkout(empty.cart_id)
            return system.shuttle(empty, 1)

        commands = {
            "open": lambda: api.open("d", 0, 1),
            "shuttle": shuttle,
            "dispatch": lambda: system.dispatch_to_rack(empty.cart_id, 1),
            "return": lambda: system.return_to_library(docked, 1),
        }
        landed = {}

        def issue(_event):
            for name in (first, second):
                commands[name]().callbacks.append(
                    lambda event, name=name: landed.setdefault(name, event.env.now)
                )

        env.timeout(ISSUED_AT).callbacks.append(issue)
        env.run()
    assert system.leaked_resources() == {"tube:rail-0": 0, "slots:1": 0}
    return landed


class TestTieRule:
    @pytest.mark.parametrize("first, second", [
        ("open", "shuttle"), ("shuttle", "open"),
        ("open", "dispatch"), ("dispatch", "open"),
        ("dispatch", "return"), ("return", "dispatch"),
    ])
    def test_the_command_issued_first_claims_first(self, first, second):
        # The process chain reached each claim through a different number
        # of zero-delay hops, so a later Shuttle overtook an earlier Open.
        hop = launch_metrics(DhlParams()).time_s
        landed = land(first, second)
        assert landed[first] == pytest.approx(ISSUED_AT + hop, rel=1e-12)
        if {first, second} == {"open", "dispatch"}:
            # One free dock slot: the second waits for it, for good.
            assert second not in landed
        else:
            # One tube: the second launches when the first has docked.
            assert landed[second] == pytest.approx(ISSUED_AT + 2 * hop, rel=1e-12)

    def test_two_rack_1_opens_at_one_instant_are_served_in_issue_order(self):
        # The shrunk tie a differential probe found: one dock slot, an
        # Open (job 0) and a write's dispatch (job 1) both at t = 14.0.
        # The chains serve job 0 first; the process chain let job 1's
        # shorter chain of kick-offs overtake it.
        spec = {
            "shards": 1, "stations": 1, "racks": 1, "attempts": 1,
            "backoff": 0.5, "jitter": 0.0, "deadline": None, "give_up": None,
            "level": TraceLevel.OFF, "stall_p": 0.0, "abort_p": 0.0,
            "breaches": [],
            "jobs": [("cycle", 0, 0, 14.0, 0.5), ("write", 0, 0, 14.0, 0.5)],
            "seed": 0,
        }
        assert has_tie(spec)
        chains = run_commands(spec, oracle=False)
        audit(chains)
        served = [name for _now, name, *_ in chains["log"]]
        assert served == ["0:open", "0:read", "0:close", "1:open", "1:write", "1:close"]
        assert chains["log"][0][0] == pytest.approx(14.0 + 8.6, rel=1e-12)
        oracle = run_commands(spec, oracle=True)
        assert oracle["log"][0][1] == "1:open"


# -- exact proxy gates ---------------------------------------------------------


@contextlib.contextmanager
def counting_zero_timeouts():
    """Count zero-delay ``Environment.timeout`` calls made inside the block."""
    original = Environment.timeout
    zeros = [0]

    def timeout(self, delay, value=None):
        if delay == 0:
            zeros[0] += 1
        return original(self, delay, value)

    Environment.timeout = timeout
    try:
        yield zeros
    finally:
        Environment.timeout = original


def fleet_cost(oracle):
    """Queue pushes, spawns, zero-delay timeouts and the report for the
    default fleet, seed 1.

    The oracle runs the generator lane workers too
    (``tests/fleet/test_lane_workers.py``), so it is the fleet as it ran
    before any of its processes became a callback chain.
    """
    from tests.fleet.test_lane_workers import worker_path  # it imports this module

    scenario = default_scenario(seed=1, horizon_s=3600.0)
    with (command_path(oracle), worker_path(oracle), counting_spawns() as spawned,
          counting_zero_timeouts() as zeros):
        plane = build_plane(scenario)
        report = plane.run(_bind_jobs(scenario))
    return plane.env._eid, spawned[0], zeros[0], report


class TestProxyGates:
    def test_pushes_beside_the_process_chain_and_no_spawns(self):
        pushes, spawns, _zeros, report = fleet_cost(oracle=False)
        oracle_pushes, oracle_spawns, _zeros, oracle_report = fleet_cost(oracle=True)
        assert report.n_jobs == oracle_report.n_jobs == 229
        assert replace(report, scenario=None) == replace(oracle_report, scenario=None)
        # 6.40 pushes per job, 10.25 on the process chain.  The chains
        # pushed the oracle's 2,348 while every command, worker and the
        # intake pushed a kick-off where a process would (2,373 before
        # the intake reached 25 arrivals by ``advance_to``).
        assert (pushes, oracle_pushes) == (1466, 2348)
        assert oracle_spawns / report.n_jobs == pytest.approx(2.75, abs=0.01)
        # Commands and lane workers run as callbacks; only a failover
        # (none here) or a bulk transfer spawns a process.
        assert spawns == 0

    def test_no_zero_delay_kick_offs(self):
        # Commands, lane workers and the intake take their first step
        # when called.  The one zero-delay timeout left starts each
        # cache eviction's Close (``ControlPlane._start_eviction`` says
        # why it stays).
        _pushes, _spawns, zeros, report = fleet_cost(oracle=False)
        assert report.cache_evictions > 0
        assert zeros == report.cache_evictions

    def test_tracing_off_makes_no_tracer_call_per_job(self):
        # Each command latches the system's tracer once; off, it opens
        # no span and ends no ``NULL_SPAN``.  Before, each shuttle made
        # ``span``/``end`` pairs for the shuttle, its attempt and every
        # phase, plus the dispatch and return spans around it.  Every
        # untraced rail shares one off tracer, so building the fleet
        # makes no tracer call either (it made two per rail).
        scenario = default_scenario(seed=1, horizon_s=3600.0)
        jobs = tuple(_bind_jobs(scenario))
        calls = 0

        def profile(frame, event, _arg):
            nonlocal calls
            if event == "call" and frame.f_globals.get("__name__") == "repro.obs.tracer":
                calls += 1

        sys.setprofile(profile)
        try:
            plane = build_plane(scenario)
            report = plane.run(jobs)
        finally:
            sys.setprofile(None)
        assert report.n_jobs == 229
        assert report.launches > 0
        assert calls == 0


# -- the light-load analytic oracle ----------------------------------------------


def light_load(seed, params):
    """One class at 0.5 jobs/h, 2 TB median, 200 h, no cache: nothing queues."""
    base = default_scenario(cache=None, seed=seed, horizon_s=200 * 3600.0)
    return replace(
        base,
        spec=replace(base.spec, params=params),
        classes=(TrafficClass("interactive", rate_per_hour=0.5,
                              median_bytes=2 * TB, sigma=0.5),),
        targets=FLEET_TARGETS[:1],
    )


def analytic_latency(params, read_bytes):
    """Serve time of one job on an idle fleet, from the paper's model.

    A job with no cache costs two launches: Open shuttles the cart out
    and docks it, Close shuttles it home, and the worker reports the job
    served only once the Close lands.  Between them the rack reads the
    bytes at the dock, limited by the cart's SSDs or the PCIe link.
    """
    device = params.ssd_device
    read_bw = min(params.ssds_per_cart * device.read_bw, PCIE6_X64.bandwidth)
    return 2 * launch_metrics(params).time_s + read_bytes / read_bw


class TestLightLoadOracle:
    def test_default_constants(self):
        params = DhlParams()
        assert 2 * launch_metrics(params).time_s == pytest.approx(17.2, abs=1e-12)
        read_bw = min(params.ssds_per_cart * params.ssd_device.read_bw,
                      PCIE6_X64.bandwidth)
        assert read_bw == pytest.approx(227.2e9, rel=1e-12)
        report = run_fleet(light_load(3, params))
        assert report.n_jobs == 83
        assert all(record.outcome == Outcome.SERVED for record in report.records)
        assert report.launches == 2 * 83

    @pytest.mark.parametrize("oracle", [False, True], ids=["callbacks", "process"])
    @pytest.mark.parametrize("params", [
        DhlParams(),
        DhlParams().with_(max_speed=50.0),
        DhlParams().with_(track_length=2000.0),
        DhlParams().with_(ssds_per_cart=16),
        DhlParams().with_(ssds_per_cart=48, max_speed=300.0, track_length=350.0),
    ], ids=["default", "slow", "long", "16-ssd", "48-ssd-fast-short"])
    def test_served_latency_is_two_launches_plus_the_dock_read(self, params, oracle):
        # A job whose stay in the fleet overlaps no other job's saw an
        # idle fleet, so its latency is the closed form exactly; the rare
        # overlapping pair may queue, but never beats the closed form.
        for seed in (3, 4, 5, 11):
            with command_path(oracle):
                report = run_fleet(light_load(seed, params))
            records = report.records
            assert len(records) == report.n_jobs > 80
            isolated = 0
            for record in records:
                assert record.outcome == Outcome.SERVED
                latency = record.completed_s - record.arrival_s
                expected = analytic_latency(params, record.read_bytes)
                if any(
                    other is not record
                    and other.arrival_s < record.completed_s
                    and record.arrival_s < other.completed_s
                    for other in records
                ):
                    assert latency > expected - 1e-9
                    continue
                isolated += 1
                assert latency == pytest.approx(expected, rel=0, abs=1e-9)
            assert isolated >= 0.95 * len(records)
