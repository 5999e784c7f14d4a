"""Lane workers as callback chains, checked against the generator worker.

``ControlPlane`` serves each docking station with a ``_LaneWorker``, a
chain of plain-event callbacks that takes its first job when it is
created.  The generator worker process it replaced —
``_LaneQueue.get``, ``_worker``, ``_serve_plain``, ``_serve_cached``,
``_close_robust`` and ``_evict`` as they were — is kept here, as the
oracle, and nowhere in ``src``.

* The hypothesis differential drives random fleets — every dispatch
  policy, no cache or an LRU/LFU cache, tight and loose cart pools, the
  hardened chaos campaign, failover or shedding — through both and
  demands the same virtual-time outcomes: report, metrics, Chrome
  trace and leaks.  Only the queue-entry counts differ: the chains push
  no kick-offs, so they fire no more events than the oracle.
* The any-load oracle holds single-server lanes to a Lindley recursion
  with the lane's priority order, at every load, on both paths.
"""

import contextlib
import heapq
import itertools
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.bench import CHAOS_SHUTTLE_POLICY
from repro.chaos.campaigns import default_campaign
from repro.core.model import launch_metrics
from repro.core.params import DhlParams
from repro.errors import DataIntegrityError, SchedulingError
from repro.fleet.cache import FETCHING, RESIDENT
from repro.fleet.controlplane import (
    CLOSE_RETRY_S,
    FLEET_MIX,
    POLICIES,
    AdmissionControl,
    ControlPlane,
    _bind_jobs,
    _policy_key,
    build_plane,
    default_scenario,
)
from repro.fleet.health import DegradationPolicy
from repro.fleet.sla import Outcome
from repro.fleet.topology import FleetSpec
from repro.obs.export import to_chrome_trace
from repro.obs.probe import trace_leaked_resources
from repro.obs.tracer import TraceLevel, Tracer
from repro.sim import Event
from repro.storage.ssd_array import PCIE6_X64
from tests.dhlsim.test_command_chains import fresh_cart_ids

# -- the oracle: the generator worker ----------------------------------------


def take(queue):
    """Next job under the policy (blocks when empty)."""
    while not queue._heap:
        waiter = Event(queue.env)
        queue.waiters.append(waiter)
        yield waiter
    return heapq.heappop(queue._heap)[2]


def worker(plane, lane):
    monitor = plane.monitors.get((lane.track_index, lane.endpoint_id))
    while True:
        fjob = yield from take(lane.queue)
        if (
            monitor is not None
            and plane.degradation.divert_queued
            and not monitor.allow()
        ):
            monitor.record_diverted()
            plane._divert(fjob)
            continue
        started = plane.env.now
        if lane.cache is not None:
            ok = yield from serve_cached(plane, lane, fjob)
        else:
            ok = yield from serve_plain(plane, lane, fjob)
        if monitor is not None:
            if ok:
                monitor.record_success()
            else:
                monitor.record_failure()
        completed = plane.env.now
        if plane.tracer is not None and ok:
            plane.tracer.span_at(
                "fleet.job",
                start_s=started,
                end_s=completed,
                track=f"fleet:{lane.name}",
                asynchronous=True,
                job=fjob.job_id,
                kind=fjob.kind,
                dataset=fjob.dataset,
                queue_wait_s=started - fjob.arrival_s,
            )
        if ok:
            plane._finish(fjob, Outcome.SERVED, completed)
        else:
            plane._finish(fjob, Outcome.FAILED, None)


def close_robust(plane, lane, cart):
    while True:
        try:
            yield lane.api.close(cart, lane.endpoint_id)
            return
        except SchedulingError:
            plane._count("count.fleet.close_deferrals")
            yield plane.env.timeout(CLOSE_RETRY_S)


def serve_plain(plane, lane, fjob):
    lock = plane._locks[fjob.dataset].request()
    yield lock
    token = plane.topology.cart_pool.request()
    yield token
    try:
        try:
            station = yield lane.api.open(fjob.dataset, 0, lane.endpoint_id)
        except SchedulingError:
            return False
        try:
            yield lane.api.read(lane.endpoint_id, fjob.dataset, 0,
                                n_bytes=fjob.read_bytes)
            ok = True
        except (SchedulingError, DataIntegrityError):
            ok = False
        yield from close_robust(plane, lane, station.cart)
        return ok
    finally:
        token.release()
        lock.release()


def serve_cached(plane, lane, fjob):
    cache = lane.cache
    for _ in range(3):
        entry = cache.lookup(fjob.dataset)
        if entry is not None:
            cache.record_hit(entry)
            if entry.state == FETCHING:
                yield entry.ready
                entry = cache.lookup(fjob.dataset)
                if entry is None or entry.state != RESIDENT:
                    continue
            cache.acquire(entry)
            try:
                try:
                    yield lane.api.read(lane.endpoint_id, fjob.dataset, 0,
                                        n_bytes=fjob.read_bytes)
                    ok = True
                except (SchedulingError, DataIntegrityError):
                    ok = False
            finally:
                cache.release(entry)
                plane._balance_pool()
            return ok
        cache.record_miss()
        entry = cache.begin_fetch(fjob.dataset)
        if cache.residency > lane.stations:
            victim = cache.evictable()
            if victim is not None:
                plane._start_eviction(lane, victim)
        lock = plane._locks[fjob.dataset].request()
        yield lock
        token = plane.topology.cart_pool.request()
        if not token.triggered:
            plane._balance_pool()
        yield token
        try:
            station = yield lane.api.open(fjob.dataset, 0, lane.endpoint_id)
        except SchedulingError:
            cache.fail_fetch(entry)
            token.release()
            lock.release()
            continue
        cache.finish_fetch(entry, station, token, lock)
        cache.acquire(entry)
        try:
            try:
                yield lane.api.read(lane.endpoint_id, fjob.dataset, 0,
                                    n_bytes=fjob.read_bytes)
                ok = True
            except (SchedulingError, DataIntegrityError):
                ok = False
        finally:
            cache.release(entry)
            plane._balance_pool()
        return ok
    return False


def evict(plane, lane, entry):
    try:
        yield from close_robust(plane, lane, entry.station.cart)
    finally:
        plane._evictions_in_flight -= 1
        entry.token.release()
        entry.lock.release()
        plane._balance_pool()


def start_workers(plane):
    plane.generator_workers = []
    for lane in plane.lanes.values():
        for _ in range(lane.stations):
            generator = worker(plane, lane)
            plane.generator_workers.append(generator)
            plane.env.process(generator)


def stop_workers(plane):
    for generator in plane.generator_workers:
        generator.close()
    plane.generator_workers.clear()


def start_eviction(plane, lane, entry):
    lane.cache.evict(entry)
    plane._evictions_in_flight += 1
    plane.env.process(evict(plane, lane, entry))


GENERATOR_WORKERS = {
    "start_workers": start_workers,
    "stop_workers": stop_workers,
    "_start_eviction": start_eviction,
}


@contextlib.contextmanager
def worker_path(oracle):
    """Run the block on the generator workers (``oracle``) or the chains."""
    if not oracle:
        yield
        return
    saved = {name: getattr(ControlPlane, name) for name in GENERATOR_WORKERS}
    try:
        for name, method in GENERATOR_WORKERS.items():
            setattr(ControlPlane, name, method)
        yield
    finally:
        for name, method in saved.items():
            setattr(ControlPlane, name, method)


# -- the differential --------------------------------------------------------


@st.composite
def fleets(draw):
    n_tracks = draw(st.integers(1, 3))
    chaos = draw(st.booleans()) and n_tracks >= 2
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.sampled_from([0.5, 1.0, 3.0]))
    base = default_scenario(
        policy=draw(st.sampled_from(POLICIES)),
        cache=draw(st.sampled_from([None, "lru", "lfu"])),
        seed=seed,
        horizon_s=draw(st.sampled_from([1200.0, 3600.0])),
        spec=FleetSpec(
            n_tracks=n_tracks,
            stations_per_rack=draw(st.integers(1, 3)),
            cart_pool=n_tracks + draw(st.integers(0, 4)),
            shuttle_policy=CHAOS_SHUTTLE_POLICY if chaos else FleetSpec().shuttle_policy,
        ),
        admission=AdmissionControl(
            max_queue_depth=draw(st.sampled_from([3, 200])),
            failover_links=draw(st.sampled_from([0, 2])),
        ),
        chaos=default_campaign(seed=seed) if chaos else None,
        degradation=DegradationPolicy() if chaos else None,
    )
    return replace(base, classes=scaled(scale))


def scaled(scale):
    return tuple(
        replace(traffic, rate_per_hour=traffic.rate_per_hour * scale)
        for traffic in FLEET_MIX
    )


def run_plane(scenario, oracle):
    """Run one traced fleet and drain it: (everything observable, report)."""
    with fresh_cart_ids(), worker_path(oracle):
        tracer = Tracer(level=TraceLevel.FULL)
        plane = build_plane(scenario, tracer=tracer)
        report = plane.run(_bind_jobs(scenario))
        # Let in-flight evictions (and the campaign) land.
        plane.env.run(until=plane.env.now + 3600.0)
    env, systems = plane.env, plane.topology.systems
    counters = tracer.engine_counters
    return {
        "eid": env._eid,
        "now": env.now,
        "fired": counters["events_fired"],
        "cancelled": counters["events_cancelled"],
        "report": repr(replace(report, scenario=None)),
        "metrics": repr([plane.registry.snapshot()]
                        + [system.metrics.snapshot() for system in systems]),
        "trace": repr(to_chrome_trace(tracer)["traceEvents"]),
        "leaks": [system.leaked_resources() for system in systems],
        "probe_leaks": [trace_leaked_resources(tracer, system) for system in systems],
        "pool": len(plane.topology.cart_pool.users),
    }, report


def check_against_oracle(scenario):
    """Run both paths: equal outcomes, and no more events on the chains."""
    chains, report = run_plane(scenario, oracle=False)
    oracle = run_plane(scenario, oracle=True)[0]
    assert chains["fired"] <= oracle["fired"]
    assert chains["eid"] <= oracle["eid"]
    del chains["eid"], chains["fired"], oracle["eid"], oracle["fired"]
    assert chains == oracle
    return chains, report


class TestDifferential:
    @settings(max_examples=40)
    @given(scenario=fleets())
    def test_callbacks_match_the_generator_worker(self, scenario):
        check_against_oracle(scenario)

    @pytest.mark.parametrize("cache, seed, pool, scale",
                             [(None, 4, 4, 1.0), ("lru", 0, 3, 3.0)])
    def test_fixed_fleets_reach_every_path(self, cache, seed, pool, scale):
        # The strategy is only worth something if its paths fire: under
        # the hardened campaign with shallow queues the fleet must defer
        # closes, divert, fail over, lose reads and (cached) evict and
        # rehome.
        scenario = replace(default_scenario(
            policy="edf", cache=cache, seed=seed, horizon_s=3600.0,
            spec=FleetSpec(cart_pool=pool, shuttle_policy=CHAOS_SHUTTLE_POLICY),
            admission=AdmissionControl(max_queue_depth=3, failover_links=2),
            chaos=default_campaign(seed=seed), degradation=DegradationPolicy(),
        ), classes=scaled(scale))
        chains, report = check_against_oracle(scenario)
        assert "count.fleet.close_deferrals" in chains["metrics"]
        assert min(report.diverted, report.failovers, report.failed) > 0
        if cache is not None:
            assert min(report.cache_evictions, report.rehomed) > 0


# -- the any-load oracle: a Lindley recursion with priority order ------------

PARAMS = {
    "default": DhlParams(),
    "slow": DhlParams().with_(max_speed=50.0),
    "long": DhlParams().with_(track_length=2000.0),
    "16-ssd": DhlParams().with_(ssds_per_cart=16),
    "48-ssd-fast-short": DhlParams().with_(ssds_per_cart=48, max_speed=300.0,
                                           track_length=350.0),
}


def service_time(params, read_bytes):
    """One job on an idle lane: two launches plus the dock read."""
    device = params.ssd_device
    read_bw = min(params.ssds_per_cart * device.read_bw, PCIE6_X64.bandwidth)
    return 2 * launch_metrics(params).time_s + read_bytes / read_bw


def lindley(fjobs, lane_of, key, service):
    """Completion time of every job, one server per lane.

    Each lane serves its jobs one at a time; a server that frees up takes
    the waiting job with the smallest ``key``, or else the lane's next
    arrival: ``start = max(free, arrival)``, ``free = start + service``.
    """
    by_lane = defaultdict(list)
    for fjob in fjobs:
        by_lane[lane_of(fjob)].append(fjob)
    completed = {}
    for arrivals in by_lane.values():
        waiting = []
        seq = itertools.count()
        free = 0.0
        index = 0
        while index < len(arrivals) or waiting:
            if not waiting:
                free = max(free, arrivals[index].arrival_s)
            while index < len(arrivals) and arrivals[index].arrival_s <= free:
                fjob = arrivals[index]
                heapq.heappush(waiting, (key(fjob), next(seq), fjob))
                index += 1
            fjob = heapq.heappop(waiting)[2]
            free = max(free, fjob.arrival_s) + service(fjob)
            completed[fjob.job_id] = free
    return completed


def any_load(seed, scale, policy, n_tracks, pool, params, stations=1):
    """Single-rack tracks, no cache, no chaos, queues deep enough to shed nothing."""
    base = default_scenario(
        policy=policy, cache=None, seed=seed, horizon_s=1800.0,
        spec=FleetSpec(n_tracks=n_tracks, stations_per_rack=stations,
                       cart_pool=pool, params=params),
        admission=AdmissionControl(max_queue_depth=100_000, failover_links=0),
    )
    return replace(base, classes=scaled(scale))


def oracle_and_fleet(scenario, oracle):
    """(Lindley completions, fleet completions) by job id."""
    params = scenario.spec.params
    fjobs = list(_bind_jobs(scenario))
    with worker_path(oracle):
        plane = build_plane(scenario)
        report = plane.run(fjobs)
    assert report.shed == report.failed == 0
    assert report.served == report.n_jobs == len(fjobs) > 0
    homes = plane.topology
    expected = lindley(
        fjobs,
        lambda fjob: homes.home(fjob.dataset).track_index,
        _policy_key(scenario.policy),
        lambda fjob: service_time(params, fjob.read_bytes),
    )
    return expected, {record.job_id: record.completed_s for record in report.records}


any_loads = {
    "seed": st.integers(0, 2**16),
    "scale": st.sampled_from([0.1, 0.4, 1.0, 2.5]),
    "policy": st.sampled_from(POLICIES),
    "n_tracks": st.integers(1, 4),
    "extra_carts": st.integers(0, 3),
    "params": st.sampled_from(sorted(PARAMS)),
}


class TestAnyLoadOracle:
    @pytest.mark.parametrize("oracle", [False, True], ids=["callbacks", "generator"])
    @settings(max_examples=30)
    @given(**any_loads)
    def test_single_server_lanes_follow_the_lindley_recursion(
        self, oracle, seed, scale, policy, n_tracks, extra_carts, params
    ):
        scenario = any_load(seed, scale, policy, n_tracks, n_tracks + extra_carts,
                            PARAMS[params])
        expected, completed = oracle_and_fleet(scenario, oracle)
        assert completed.keys() == expected.keys()
        for job_id, when in completed.items():
            assert when == pytest.approx(expected[job_id], rel=1e-12, abs=0.0), job_id

    def test_the_recursion_sees_queues(self):
        # At 2.5x the mix on one track the lane is overloaded: most jobs
        # wait, and the policy reorders them, so the recursion is tested
        # on queues and not only on an idle lane.
        scenario = any_load(1, 2.5, "sjf", 1, 1, DhlParams())
        expected, completed = oracle_and_fleet(scenario, oracle=False)
        fjobs = {fjob.job_id: fjob for fjob in _bind_jobs(scenario)}
        waited = [
            job_id for job_id, when in completed.items()
            if when - fjobs[job_id].arrival_s
            > service_time(DhlParams(), fjobs[job_id].read_bytes) + 1.0
        ]
        assert len(waited) > len(completed) // 2
        order = sorted(completed, key=completed.get)
        assert order != sorted(order)
        assert completed == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=30)
    @given(**any_loads)
    def test_with_two_stations_no_job_beats_its_own_service(
        self, seed, scale, policy, n_tracks, extra_carts, params
    ):
        # A second station is not a second server the recursion bounds:
        # both stations' carts share the lane's tube, so one station's
        # launch can hold back the other's (seed 0, 0.4x the mix, one
        # track, three spare carts: a job lands 7.9 s after the
        # one-station recursion), and with no spare cart the stations
        # also wait for each other's cart (two tracks, 16 SSDs: 31.8 s).
        # What holds at any load is the floor: no job finishes before
        # its arrival plus its own service.
        scenario = any_load(seed, scale, policy, n_tracks, n_tracks + extra_carts,
                            PARAMS[params], stations=2)
        fjobs = {fjob.job_id: fjob for fjob in _bind_jobs(scenario)}
        _expected, completed = oracle_and_fleet(scenario, oracle=False)
        for job_id, when in completed.items():
            fjob = fjobs[job_id]
            floor = fjob.arrival_s + service_time(PARAMS[params], fjob.read_bytes)
            assert when >= floor * (1 - 1e-12), job_id
