"""Fleet admission and dispatch.

The control plane consumes a seeded :class:`~repro.workloads.generator.
WorkloadGenerator` job stream, assigns each job a dataset (hot-skewed
per the catalog), admits or sheds it, queues it at its dataset's home
lane, and serves it with a per-station worker pool under a pluggable
scheduling policy:

``fcfs``
    arrival order — the baseline every queueing comparison needs;
``sjf``
    shortest read first — minimises mean latency, starves big jobs;
``edf``
    earliest deadline first with class priority — interactive traffic
    preempts (in queue order, not mid-service) bulk traffic.

Admission control bounds each lane's queue.  A saturated lane either
**sheds** the job (a recorded deadline miss) or **fails it over** to
the optical network via :class:`repro.dhlsim.policy.FailoverPolicy` —
slower and energy-hungry for bulk sizes, but bounded, exactly the
DHL-vs-network trade the paper's Fig. 6 quantifies.

Everything is driven by virtual time on one deterministic
:class:`~repro.sim.Environment`: the same scenario always produces the
same report, bit for bit, which is what lets the capacity planner fan
scenarios out across processes and still merge comparable results.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .._lazy import LazyModule
from ..errors import ConfigurationError, DataIntegrityError, SchedulingError
from ..network.transfer import DEFAULT_LINK_GBPS, OpticalLink
from ..obs import Counter, MetricsRegistry, Tracer
from ..sim import Environment, Event
from ..sim.resources import Resource
from ..units import TB, gbps
from ..dhlsim.policy import FailoverPolicy
from ..workloads.generator import TrafficClass, TransferJob, WorkloadGenerator
from .cache import CacheConfig, FETCHING, RackCache, RESIDENT
from .health import DegradationPolicy, LaneHealthMonitor
from .sla import (
    DEFAULT_TARGET,
    ClassTarget,
    JobRecord,
    Outcome,
    SlaReport,
    SlaTracker,
)
from .topology import DatasetCatalog, DatasetHome, FleetSpec, FleetTopology

if TYPE_CHECKING:
    from ..chaos.runner import CampaignRunner
    from .sla import _StreamStats

#: The chaos campaign types, imported on first lookup: the ``chaos``
#: annotations below resolve under ``typing.get_type_hints``, and a
#: fleet run without a campaign never loads the chaos package.
_campaigns = LazyModule("repro.chaos.campaigns")

#: Seconds between retries of a Close that keeps failing: the cart has
#: exactly one way home, so eviction and post-serve returns park at the
#: rack and re-attempt until the repair crew restores the track.
CLOSE_RETRY_S = 30.0

POLICIES = ("fcfs", "sjf", "edf")

#: ``Outcome.SHED`` bound once for ``ControlPlane._shed_unrecorded``,
#: which runs once per shed record or run of shed rows: an enum
#: attribute lookup goes through the metaclass (a dict bump keyed by it
#: took 0.19 µs against 0.07 µs for a module global, Python 3.11
#: timeit).
_SHED = Outcome.SHED

#: Rack-to-rack traffic mix for fleet studies: latency-sensitive
#: interactive reads, scheduled batch pulls, and archive restores.
#: Sizes are per-read slices of cart-resident datasets, so the knee
#: sits where tube round-trips, not SSD drain, dominate.
FLEET_MIX = (
    TrafficClass("interactive", rate_per_hour=170.0, median_bytes=2 * TB, sigma=0.5),
    TrafficClass("batch", rate_per_hour=50.0, median_bytes=6 * TB, sigma=0.6),
    TrafficClass("archive", rate_per_hour=12.0, median_bytes=16 * TB, sigma=0.5),
)

#: SLA contracts for :data:`FLEET_MIX`, tightest class first.
FLEET_TARGETS = (
    ("interactive", ClassTarget(deadline_s=120.0, priority=0)),
    ("batch", ClassTarget(deadline_s=600.0, priority=1)),
    ("archive", ClassTarget(deadline_s=1800.0, priority=2)),
)


@dataclass(frozen=True)
class AdmissionControl:
    """Queue-depth admission: shed or fail over past ``max_queue_depth``."""

    max_queue_depth: int = 200
    failover_links: int = 2
    """Optical links reserved for overflow; 0 sheds instead."""
    link_gbps: float = DEFAULT_LINK_GBPS

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise ConfigurationError("max_queue_depth must be >= 1")
        if self.failover_links < 0:
            raise ConfigurationError("failover_links must be >= 0")


@dataclass(frozen=True)
class FleetScenario:
    """A complete, picklable description of one fleet run."""

    spec: FleetSpec = field(default_factory=FleetSpec)
    catalog: DatasetCatalog = field(default_factory=DatasetCatalog)
    classes: tuple[TrafficClass, ...] = FLEET_MIX
    targets: tuple[tuple[str, ClassTarget], ...] = FLEET_TARGETS
    policy: str = "fcfs"
    cache: CacheConfig | None = None
    admission: AdmissionControl = field(default_factory=AdmissionControl)
    seed: int = 0
    horizon_s: float = 3600.0
    chaos: _campaigns.ChaosCampaign | None = None
    """Fault campaign armed against the fleet's rails; ``None`` keeps
    the historical fault-free run, bit for bit."""
    degradation: DegradationPolicy | None = None
    """Graceful-degradation machinery (lane health monitors + circuit
    breakers); ``None`` serves naively even under chaos."""
    retain_records: bool = True
    """Keep every :class:`~repro.fleet.sla.JobRecord` for the report.
    Trace replays over millions of requests set this ``False`` so the
    run holds only streaming SLA accumulators — ``FleetReport.records``
    then comes back empty while every aggregate KPI stays exact (and
    percentiles stay exact up to the SLA tracker's reservoir cap)."""

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if not math.isfinite(self.horizon_s) or self.horizon_s <= 0:
            raise ConfigurationError(
                f"horizon_s must be positive and finite, got {self.horizon_s}"
            )

    @property
    def cache_label(self) -> str:
        return self.cache.policy if self.cache is not None else "none"

    @property
    def label(self) -> str:
        return f"{self.policy}+{self.cache_label}"


def default_scenario(
    policy: str = "edf",
    cache: str | CacheConfig | None = "lru",
    seed: int = 0,
    horizon_s: float = 3600.0,
    spec: FleetSpec | None = None,
    catalog: DatasetCatalog | None = None,
    admission: AdmissionControl | None = None,
    chaos: _campaigns.ChaosCampaign | None = None,
    degradation: DegradationPolicy | None = None,
) -> FleetScenario:
    """The headline fleet scenario with a few common knobs exposed."""
    cache_config = CacheConfig(policy=cache) if isinstance(cache, str) else cache
    return FleetScenario(
        spec=spec if spec is not None else FleetSpec(),
        catalog=catalog if catalog is not None else DatasetCatalog(),
        policy=policy,
        cache=cache_config,
        admission=admission if admission is not None else AdmissionControl(),
        seed=seed,
        horizon_s=horizon_s,
        chaos=chaos,
        degradation=degradation,
    )


@dataclass(slots=True, eq=False)
class _FleetJob:
    """A workload job bound to a dataset and an SLA.

    Flat and slotted: one object per job on the intake path, compared by
    identity (the lane queues never need value equality).
    """

    job_id: int
    arrival_s: float
    size_bytes: float
    kind: str
    dataset: str
    read_bytes: float
    deadline_at: float
    priority: int
    tenant: str = ""


class _JobColumns:
    """One chunk of trace rows as columns, bound to jobs only on demand.

    ``rows`` is a structured array with the binary trace's fields
    (``arrival_s``, ``tenant``, ``dataset``, ``kind``, ``size_bytes``,
    ``deadline_s``; ids index the name tables ``names = (datasets,
    kinds, tenants)``), arrivals non-decreasing.  :meth:`bind` is the
    one binder of a row to its :class:`_FleetJob`: job id ``start +
    k``, priority from the per-kind-id ``priorities``, read capped at
    ``cart_bytes``.  Iterating a chunk binds every row.

    The intake sheds leading runs of rows straight from the columns
    (:meth:`ControlPlane._shed_rows`) and binds only the rows it
    submits: ``arrival_s`` is the arrival column as floats,
    ``dataset`` the dataset-id column and ``group`` the (kind, tenant)
    id column ``kind * len(tenants) + tenant``, both numpy.
    """

    __slots__ = (
        "start", "names", "priorities", "cart_bytes", "arrival_s",
        "tenant_ids", "dataset_ids", "kind_ids", "size_bytes", "deadline_s",
        "dataset", "group", "inexact",
    )

    def __init__(self, rows: np.ndarray, start: int,
                 names: tuple[Sequence[str], Sequence[str], Sequence[str]],
                 priorities: Sequence[int], cart_bytes: float):
        self.start = start
        self.names = names
        self.priorities = priorities
        self.cart_bytes = cart_bytes
        arrival_s = rows["arrival_s"]
        self.arrival_s = arrival_s.tolist()
        self.tenant_ids = rows["tenant"].tolist()
        self.dataset_ids = rows["dataset"].tolist()
        self.kind_ids = rows["kind"].tolist()
        self.size_bytes = rows["size_bytes"].tolist()
        self.deadline_s = rows["deadline_s"].tolist()
        self.dataset = rows["dataset"]
        self.group = rows["kind"].astype(np.intp) * len(names[2]) + rows["tenant"]
        # Rows the clock cannot reach from the row before as
        # ``before + (arrival - before)`` bit for bit.
        self.inexact = (np.flatnonzero(
            arrival_s[:-1] + np.diff(arrival_s) != arrival_s[1:]
        ) + 1).tolist()

    def __len__(self) -> int:
        return len(self.arrival_s)

    def bind(self, k: int) -> _FleetJob:
        """Row ``k`` as a job."""
        datasets, kinds, tenants = self.names
        kind = self.kind_ids[k]
        size = self.size_bytes[k]
        cart = self.cart_bytes
        return _FleetJob(
            self.start + k, self.arrival_s[k], size, kinds[kind],
            datasets[self.dataset_ids[k]], cart if cart < size else size,
            self.deadline_s[k], self.priorities[kind],
            tenants[self.tenant_ids[k]],
        )

    def __iter__(self) -> Iterator[_FleetJob]:
        return map(self.bind, range(len(self.arrival_s)))


class _ShedIndex:
    """Column ids to lanes and SLA groups, for one set of name tables.

    ``lane`` maps a dataset id to its lane's position in
    ``ControlPlane.lanes``, or to one past the last lane while the
    dataset has none yet; ``groups`` maps a (kind, tenant) id to its SLA
    accumulator group, ``None`` (and ``known`` False) while no job of
    that pair has resolved.  Each table is rebuilt when the plane has
    learnt a dataset's lane, or the tracker a group, since.
    """

    __slots__ = ("names", "n_lanes", "lane", "n_groups", "groups", "known")

    def __init__(self, names):
        self.names = names
        self.n_lanes = self.n_groups = -1


def _policy_key(policy: str):
    if policy == "fcfs":
        return lambda f: (f.arrival_s, f.job_id)
    if policy == "sjf":
        return lambda f: (f.read_bytes, f.arrival_s, f.job_id)
    # edf: class priority first, then the closest absolute deadline.
    return lambda f: (f.priority, f.deadline_at, f.job_id)


class _LaneQueue:
    """Policy-ordered job queue that lane workers take jobs from.

    One binary heap of ``(key, seq, job)`` under the lane's fixed
    dispatch order.  Popping the heap minimum serves exactly the job
    ``min()`` over the pending jobs in arrival order would: equal keys
    (duplicate job ids included) fall back to the push sequence number
    ``seq``, i.e. to the earlier push.  Push and pop are O(log n).  A
    worker that finds the queue empty parks a waiter event in
    ``waiters``; each push fires the oldest one.
    """

    def __init__(self, env: Environment, key: Callable[[_FleetJob], tuple]):
        self.env = env
        self._key = key
        self._seq = itertools.count()
        self._heap: list[tuple[tuple, int, _FleetJob]] = []
        self.waiters: deque[Event] = deque()

    @property
    def depth(self) -> int:
        return len(self._heap)

    def push(self, fjob: _FleetJob) -> None:
        heapq.heappush(self._heap, (self._key(fjob), next(self._seq), fjob))
        if self.waiters:
            self.waiters.popleft().succeed(None)

    def get(self, wake: Callable[[Event], None]) -> _FleetJob | None:
        """The next job under the policy, or ``None`` when there is none.

        On an empty queue a waiter event with ``wake`` as its only
        callback joins ``waiters``; the next push fires it, and ``wake``
        calls ``get`` again (another worker may have taken the job).
        """
        if self._heap:
            return heapq.heappop(self._heap)[2]
        waiter = self.env.event()
        waiter.callbacks.append(wake)
        self.waiters.append(waiter)
        return None


class _LaneIndex(dict):
    """Dataset name -> its home lane, filled on each dataset's first lookup.

    A miss resolves the dataset's home once; an unknown dataset raises
    the topology's :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, topology: FleetTopology,
                 lanes: Mapping[tuple[int, int], "_Lane"]):
        super().__init__()
        self._topology = topology
        self._lanes = lanes

    def __missing__(self, dataset: str) -> "_Lane":
        home = self._topology.home(dataset)
        lane = self[dataset] = self._lanes[
            (home.track_index, home.endpoint_id)
        ]
        return lane


class _Lane:
    """One (track, rack) service point: queue, workers, optional cache."""

    def __init__(self, env, track_index, endpoint_id, api, stations, key,
                 cache_config):
        self.track_index = track_index
        self.endpoint_id = endpoint_id
        self.api = api
        self.stations = stations
        self.queue = _LaneQueue(env, key)
        self.cache = (
            RackCache(env, cache_config) if cache_config is not None else None
        )
        self.name = f"t{track_index}:r{endpoint_id}"


class _RobustClose:
    """Close a cart with unbounded patience, then call ``then()``.

    The cart has one way home.  A failed Close leaves it parked at the
    rack (re-docked or in the recovery bay); abandoning it would strand
    physical capacity forever, so the Close is re-attempted after a
    fixed beat until the repair crew restores the track.  Fault-free
    this is a single first-try Close.  A class, not a pair of closures:
    two closures that call each other form a reference cycle per Close,
    which only the cyclic GC frees.
    """

    __slots__ = ("plane", "lane", "cart", "then")

    def __init__(self, plane: ControlPlane, lane: _Lane, cart,
                 then: Callable[[], None]):
        self.plane = plane
        self.lane = lane
        self.cart = cart
        self.then = then
        self._close(None)

    def _close(self, _event: Event | None) -> None:
        lane = self.lane
        lane.api.close(self.cart, lane.endpoint_id).callbacks.append(self._closed)

    def _closed(self, event: Event) -> None:
        if event._ok:
            self.then()
            return
        event._defused = True
        if not isinstance(event._value, SchedulingError):
            raise event._value
        plane = self.plane
        plane._count("count.fleet.close_deferrals")
        plane.env.timeout(CLOSE_RETRY_S).callbacks.append(self._close)


class _LaneWorker:
    """One docking station's worker, as a chain of plain-event callbacks.

    It takes its lane's next job under the policy, serves it — through
    the rack cache when the lane has one — resolves it and takes the
    next; on an empty queue it parks a waiter (:meth:`_LaneQueue.get`).
    It takes its first job when it is created, and then waits only on
    the lock, cart-token, ``entry.ready`` and command events it needs
    and on each ``CLOSE_RETRY_S`` timeout, so its virtual-time outcomes
    are the generator worker process's (kept in the tests as the
    oracle).  An error the serve does not expect aborts the run from
    the callback, as a failed process does when its failure fires.
    """

    __slots__ = ("plane", "lane", "monitor", "fjob", "started", "passes",
                 "entry", "lock", "token", "station", "ok")

    def __init__(self, plane: ControlPlane, lane: _Lane):
        self.plane = plane
        self.lane = lane
        self.monitor = plane.monitors.get((lane.track_index, lane.endpoint_id))
        self._take()

    def _take(self, _event: Event | None = None) -> None:
        """Serve the lane's next job, or wait for one."""
        plane, lane, monitor = self.plane, self.lane, self.monitor
        while True:
            fjob = lane.queue.get(self._take)
            if fjob is None:
                return
            if (
                monitor is not None
                and plane.degradation.divert_queued
                and not monitor.allow()
            ):
                monitor.record_diverted()
                plane._divert(fjob)
                continue
            self.fjob = fjob
            self.started = plane.env._now
            if lane.cache is None:
                lock = self.lock = plane._locks[fjob.dataset].request()
                lock.callbacks.append(self._plain_locked)
            else:
                self.passes = 0
                self._cached()
            return

    def _served(self, ok: bool) -> None:
        """Resolve the job, then take the next."""
        plane, fjob, monitor = self.plane, self.fjob, self.monitor
        if monitor is not None:
            if ok:
                monitor.record_success()
            else:
                monitor.record_failure()
        completed = plane.env._now
        if plane.tracer is not None and ok:
            started = self.started
            plane.tracer.span_at(
                "fleet.job",
                start_s=started,
                end_s=completed,
                track=f"fleet:{self.lane.name}",
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
        self._take()

    def _read(self) -> Event:
        lane, fjob = self.lane, self.fjob
        return lane.api.read(lane.endpoint_id, fjob.dataset, 0,
                             n_bytes=fjob.read_bytes)

    # -- no cache: lock, borrow a cart, launch, read, return, repay --------------

    def _plain_locked(self, _event: Event) -> None:
        plane = self.plane
        token = self.token = plane.topology.cart_pool.request()
        if not token.triggered:
            plane.pool_waits += 1
        token.callbacks.append(self._plain_borrowed)

    def _plain_borrowed(self, _event: Event) -> None:
        lane = self.lane
        lane.api.open(self.fjob.dataset, 0, lane.endpoint_id).callbacks.append(
            self._plain_opened
        )

    def _plain_opened(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if not isinstance(event._value, SchedulingError):
                raise event._value
            self.ok = False
            self._plain_repay()
            return
        self.station = event._value
        self._read().callbacks.append(self._plain_read)

    def _plain_read(self, event: Event) -> None:
        ok = self.ok = event._ok
        if not ok:
            # The read is lost (dead drives, degraded dock) but the
            # cart is docked and must still go home.
            event._defused = True
            if not isinstance(event._value, (SchedulingError, DataIntegrityError)):
                raise event._value
        _RobustClose(self.plane, self.lane, self.station.cart, self._plain_repay)

    def _plain_repay(self) -> None:
        self.token.release()
        self.lock.release()
        self._served(self.ok)

    # -- the cache path: a hit reads in place, a miss fetches (and may evict) ----
    #
    # At most three passes: a pass that waited on a coalesced fetch, or
    # whose own fetch failed, starts over.  In a fault-free fleet the
    # first pass always lands.

    def _cached(self, _event: Event | None = None) -> None:
        if self.passes == 3:
            self._served(False)
            return
        self.passes += 1
        plane, lane, dataset = self.plane, self.lane, self.fjob.dataset
        cache = lane.cache
        entry = cache.lookup(dataset)
        if entry is not None:
            cache.record_hit(entry)
            if entry.state == FETCHING:
                entry.ready.callbacks.append(self._coalesced)
            else:
                self._read_resident(entry)
            return
        cache.record_miss()
        self.entry = cache.begin_fetch(dataset)
        if cache.residency > lane.stations:
            # Worker-per-station guarantees an idle victim exists
            # whenever residency exceeds the stations (at most one
            # entry per worker can be busy, and this worker's is the
            # new one).
            victim = cache.evictable()
            if victim is not None:
                plane._start_eviction(lane, victim)
        lock = self.lock = plane._locks[dataset].request()
        lock.callbacks.append(self._fetch_locked)

    def _coalesced(self, _event: Event) -> None:
        entry = self.lane.cache.lookup(self.fjob.dataset)
        if entry is None or entry.state != RESIDENT:
            self._cached()  # the fetch failed under us; retry
            return
        self._read_resident(entry)

    def _fetch_locked(self, _event: Event) -> None:
        plane = self.plane
        token = self.token = plane.topology.cart_pool.request()
        if not token.triggered:
            plane.pool_waits += 1
            plane._balance_pool()
        token.callbacks.append(self._fetch_borrowed)

    def _fetch_borrowed(self, _event: Event) -> None:
        lane = self.lane
        lane.api.open(self.fjob.dataset, 0, lane.endpoint_id).callbacks.append(
            self._fetched
        )

    def _fetched(self, event: Event) -> None:
        cache, entry = self.lane.cache, self.entry
        if not event._ok:
            event._defused = True
            if not isinstance(event._value, SchedulingError):
                raise event._value
            cache.fail_fetch(entry)
            self.token.release()
            self.lock.release()
            self._cached()
            return
        cache.finish_fetch(entry, event._value, self.token, self.lock)
        self._read_resident(entry)

    def _read_resident(self, entry) -> None:
        self.entry = entry
        self.lane.cache.acquire(entry)
        self._read().callbacks.append(self._cached_read)

    def _cached_read(self, event: Event) -> None:
        ok = event._ok
        if not ok:
            event._defused = True
        self.lane.cache.release(self.entry)
        self.plane._balance_pool()
        if not ok and not isinstance(event._value,
                                     (SchedulingError, DataIntegrityError)):
            raise event._value
        self._served(ok)


@dataclass(frozen=True)
class FleetReport:
    """Everything a fleet run measured."""

    scenario: FleetScenario
    sla: SlaReport
    records: tuple[JobRecord, ...]
    n_jobs: int
    served: int
    shed: int
    failovers: int
    failed: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    launches: int
    launch_energy_j: float
    failover_energy_j: float
    makespan_s: float
    diverted: int = 0
    """Jobs a tripped circuit breaker routed off their home lane."""
    breaker_trips: int = 0
    rehomed: int = 0
    """Cache residents migrated home after cache-node losses."""
    lane_health: tuple[dict, ...] = ()
    """Per-lane :meth:`~repro.fleet.health.LaneHealthMonitor.summary`
    rows (empty when the scenario had no degradation policy)."""
    chaos_entries: tuple[tuple[float, str, str, str], ...] = ()
    """The campaign log: (time, kind, target, detail) rows."""
    peak_in_system: int = 0
    """Most jobs simultaneously live in the plane (admitted but not yet
    resolved) — the memory proxy trace replay bounds via admission
    control plus its one-chunk decode window."""
    tenant_sla: SlaReport | None = None
    """Per-tenant SLA breakdown (``None`` when no job carried a
    tenant, i.e. for every pre-traffic synthetic scenario)."""

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def p99_s(self) -> float:
        return self.sla.overall.p99_s

    @property
    def deadline_miss_rate(self) -> float:
        return self.sla.overall.deadline_miss_rate

    @property
    def goodput_bytes_per_s(self) -> float:
        return self.sla.overall.goodput_bytes_per_s


class ControlPlane:
    """Admission, dispatch and caching over a :class:`FleetTopology`.

    Every lane runs one worker per docking station (:class:`_LaneWorker`)
    and every cache eviction runs one close-and-repay step; both are
    chains of plain-event callbacks, not processes.  Only a job that
    fails over to the optical network runs as a process.
    """

    def __init__(
        self,
        env: Environment,
        topology: FleetTopology,
        scenario: FleetScenario,
        tracer: Tracer | None = None,
    ):
        self.env = env
        self.topology = topology
        self.scenario = scenario
        self.tracer = tracer
        self.registry = MetricsRegistry(env)
        self.targets = dict(scenario.targets)
        self.sla = SlaTracker(self.registry, self.targets,
                              retain_records=scenario.retain_records)
        key = _policy_key(scenario.policy)
        self.lanes: dict[tuple[int, int], _Lane] = {}
        for track_index, endpoint_id in topology.lanes:
            self.lanes[(track_index, endpoint_id)] = _Lane(
                env,
                track_index,
                endpoint_id,
                topology.apis[track_index],
                scenario.spec.stations_per_rack,
                key,
                scenario.cache,
            )
        # Each dataset's lane, resolved through its home on first use.
        self._lane_of = _LaneIndex(topology, self.lanes)
        # One lock per dataset serialises fetch / evict / exclusive use,
        # so two jobs can never launch the same cart twice.
        self._locks = {
            name: Resource(env, capacity=1) for name in topology.homes
        }
        admission = scenario.admission
        self._max_queue_depth = admission.max_queue_depth
        if admission.failover_links > 0:
            from ..network.routes import ROUTE_B

            link = OpticalLink(route=ROUTE_B,
                               rate_bytes_per_s=gbps(admission.link_gbps))
            self._failover_policy = FailoverPolicy(link=link)
            self._failover_streams = Resource(
                env, capacity=admission.failover_links
            )
        else:
            self._failover_policy = None
            self._failover_streams = None
        self._done = Event(env)
        # Streaming intake/outcome accounting: the plane never needs
        # the whole job list, only how many came in and how many
        # resolved — which is what lets a lazy iterator drive it.
        self._submitted = 0
        self._resolved = 0
        self._intake_closed = False
        self._in_system = 0
        self.peak_in_system = 0
        self._counts: dict[str, int] = {outcome: 0 for outcome in Outcome}
        self._max_completed_s = 0.0
        self._evictions_in_flight = 0
        # Cart-token requests the pool could not grant at once.  While
        # it reads 0 the pool never queued, so any larger pool would
        # have run the same events (the capacity planner's reuse rule).
        self.pool_waits = 0
        self.failover_energy_j = 0.0
        # Counter handles by name, fetched on first use so registry
        # names, creation order and values match per-record lookups.
        self._counters: dict[str, Counter] = {}
        # A shed-only plane that keeps no records resolves a shed job by
        # bumping counters.  The handles come from the first shed, which
        # takes the full ``_finish`` path and so creates them in order.
        self._shed_handles: tuple[Counter, Counter, Counter] | None = None
        # The tables the intake's bulk shed looks column ids up in.
        self._shed_index: _ShedIndex | None = None
        # Degradation machinery: one health monitor + breaker per lane,
        # fed by the track's fault-to-repair windows and serve outcomes.
        # Absent a policy nothing is created, so the fault-free fleet is
        # bit-identical to the pre-chaos control plane.
        # Sharded runs subscribe here to learn each resolution as it
        # lands (remote-outcome notifications); ``None`` costs nothing.
        self.outcome_hook: Callable[[JobRecord], None] | None = None
        self.degradation = scenario.degradation
        self.monitors: dict[tuple[int, int], LaneHealthMonitor] = {}
        if self.degradation is not None:
            for (track_index, endpoint_id), lane in self.lanes.items():
                self.monitors[(track_index, endpoint_id)] = LaneHealthMonitor(
                    lane.name,
                    self.degradation,
                    topology.systems[track_index].tracks[0].health,
                    env,
                )
        self._campaign: CampaignRunner | None = None

    # -- chaos wiring ------------------------------------------------------------

    def attach_campaign(self, runner: CampaignRunner) -> None:
        """Subscribe to a campaign: cache-node losses rehome residency."""
        self._campaign = runner
        runner.cache_loss_hooks.append(self._on_cache_node_loss)

    def _on_cache_node_loss(self, track_index: int,
                            endpoint_id: int | None) -> None:
        for (lane_track, lane_endpoint), lane in self.lanes.items():
            if lane_track != track_index or lane.cache is None:
                continue
            if endpoint_id is not None and lane_endpoint != endpoint_id:
                continue
            self._count("count.fleet.cache_node_losses")
            for entry in lane.cache.rehome():
                self._start_eviction(lane, entry)

    def _count(self, name: str, by: float = 1.0) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(name)
        counter.inc(by)

    # -- lane lookup -------------------------------------------------------------

    def lane_for(self, dataset: str) -> _Lane:
        return self._lane_of[dataset]

    # -- job intake --------------------------------------------------------------

    def submit(self, fjob: _FleetJob) -> None:
        """Admit one job right now: queue it, shed it, or fail it over.

        Factored out of the arrival process so the stateful fuzzer can
        dispatch jobs at arbitrary virtual times through the exact
        admission path production traffic takes.
        """
        self._submitted += 1
        self._in_system += 1
        if self._in_system > self.peak_in_system:
            self.peak_in_system = self._in_system
        lane = self._lane_of[fjob.dataset]
        if self.tracer is not None:
            self.tracer.instant(
                "job.admit",
                track=f"fleet:{lane.name}",
                job=fjob.job_id,
                kind=fjob.kind,
                dataset=fjob.dataset,
            )
        if len(lane.queue._heap) < self._max_queue_depth:
            lane.queue.push(fjob)
            return
        handles = self._shed_handles
        if (
            handles is not None
            and self.outcome_hook is None
            and (group := self.sla._groups.get((fjob.kind, fjob.tenant)))
            is not None
        ):
            self._shed_unrecorded(group)
            return
        self._count("count.fleet.admission_rejections")
        if self._failover_streams is not None:
            self.env.process(self._failover_job(fjob))
            return
        self._finish(fjob, Outcome.SHED, None)
        if handles is None and not self.sla.retain_records:
            # The first shed created every handle the shortcut bumps.
            self._shed_handles = (
                self._counters["count.fleet.admission_rejections"],
                self.sla._counters[Outcome.SHED],
                self.sla._counters["deadline_missed"],
            )

    def _shed_unrecorded(self, group: tuple[_StreamStats, ...],
                         n: int = 1) -> None:
        """Resolve ``n`` submitted jobs of one SLA accumulator ``group``
        as shed.

        Everything ``_finish`` and ``SlaTracker.observe`` would do for
        shed jobs that nothing keeps a record of, on the handles the
        first full shed created.  The full queue that sheds them holds
        unresolved jobs, so the plane cannot be done yet and
        ``_maybe_done`` has nothing to do.  Counters hold whole numbers,
        so bumping them by ``n`` equals ``n`` bumps of one.
        """
        rejections, shed, missed = self._shed_handles
        rejections.value += n
        shed.value += n
        missed.value += n
        for stats in group:
            stats.n_jobs += n
            stats.misses += n
        self._counts[_SHED] += n
        self._resolved += n
        self._in_system -= n

    def _shed_rows(self, rows: _JobColumns, i: int) -> int:
        """Shed rows ``i, i + 1, ...`` of a column chunk in one go, and
        return the first row left for the per-row step.

        The run is the leading rows the per-row step would each hand to
        ``submit``'s shortcut with nothing else happening in between:

        * its arrival is the clock's, or ``advance_to`` would jump
          there (strictly before the queue head and within the run's
          deadline), reached bit for bit as ``now + (arrival - now)``;
        * its dataset's lane is known and its queue full, and its
          (kind, tenant) group already exists.

        Shedding schedules nothing and queues nothing, so the checks
        hold for the whole run at once.  The intake calls this only once
        the first full shed has created the shortcut's handles, which
        ``submit`` does only on a streaming, shed-only plane; of those,
        a hookless, untraced plane sheds rows here.
        """
        env = self.env
        if self.outcome_hook is not None or self.tracer is not None:
            return i
        arrivals = rows.arrival_s
        now = env._now
        head, deadline = env.advance_bounds()
        due = bisect_right(arrivals, now, i)
        end = min(bisect_left(arrivals, head, due),
                  bisect_right(arrivals, deadline, due))
        if end > due:
            first = arrivals[due]
            if now + (first - now) != first:
                end = due
            else:
                inexact = rows.inexact
                k = bisect_right(inexact, due)
                if k < len(inexact) and inexact[k] < end:
                    end = inexact[k]
        if end == i:
            return i
        index = self._index_for(rows)
        full = np.array(
            [len(lane.queue._heap) >= self._max_queue_depth
             for lane in self.lanes.values()] + [False]
        )
        shed = (full[index.lane][rows.dataset[i:end]]
                & index.known[rows.group[i:end]])
        n = int(shed.argmin())
        if shed[n]:
            n = end - i
        if n == 0:
            return i
        stop = i + n
        self._submitted += n
        if self._in_system >= self.peak_in_system:
            # Each shed job is live for a moment inside ``submit``.
            self.peak_in_system = self._in_system + 1
        self._in_system += n
        shed_unrecorded = self._shed_unrecorded
        counts = np.bincount(rows.group[i:stop]).tolist()
        for group, count in zip(index.groups, counts):
            if count:
                shed_unrecorded(group, count)
        last = arrivals[stop - 1]
        if last > now:
            env._now = last
        return stop

    def _index_for(self, rows: _JobColumns) -> _ShedIndex:
        """The plane's :class:`_ShedIndex` for ``rows``'s name tables."""
        index = self._shed_index
        if index is None or index.names is not rows.names:
            index = self._shed_index = _ShedIndex(rows.names)
        datasets, kinds, tenants = rows.names
        lane_of = self._lane_of
        if index.n_lanes != len(lane_of):
            position = {lane: k for k, lane in enumerate(self.lanes.values())}
            unknown = len(position)
            index.lane = np.array(
                [position.get(lane_of.get(name), unknown) for name in datasets],
                dtype=np.intp,
            )
            index.n_lanes = len(lane_of)
        if index.n_groups != len(self.sla._groups):
            index.groups = self.sla.known_groups(kinds, tenants)
            index.known = np.array([group is not None for group in index.groups])
            index.n_groups = len(self.sla._groups)
        return index

    def _start_intake(
        self, fjobs: Iterable[_FleetJob | _JobColumns]
    ) -> None:
        """Submit ``fjobs`` as the DES clock reaches each arrival.

        Intake is a chain of plain callbacks, not a process, and it
        starts when it is called: jobs already due are submitted at
        once.  Each step submits every job already due and moves on to
        the next arrival: straight there with
        :meth:`Environment.advance_to` when nothing else is due first,
        else through one timeout whose callback carries on.  A shedding
        replay thus runs long stretches of arrivals in one callback
        with no queue entry.

        An item of ``fjobs`` is a bound job or a chunk of rows as
        :class:`_JobColumns`.  A chunk's leading rows that would only
        be shed are shed from its columns in one go
        (:meth:`_shed_rows`); the first row left is bound, takes the
        per-row step, and the chunk's remaining rows go the same way.
        The stream is only advanced after the previous job has been
        submitted, so at most one chunk of rows, and of those at most
        one bound job, is ever held ahead of the DES clock — a
        trace-driven day streams through without the job list ever
        existing in memory.

        The next arrival is reached at ``now + (arrival_s - now)``, not
        at ``arrival_s``: that float sum is the timestamp the run has
        always used, so reports stay bit-identical.
        """
        env = self.env
        submit = self.submit
        advance_to = env.advance_to
        shed_rows = self._shed_rows
        items = iter(fjobs)
        jobs = items  # ``items``, or the unshed rows of the chunk in hand

        def unshed(rows: _JobColumns) -> Iterator[_FleetJob]:
            bind = rows.bind
            k, n = 0, len(rows)
            while k < n:
                # Until the first full shed creates the shortcut's
                # handles, which a plane that keeps records or fails
                # over never does, ``_shed_rows`` would shed nothing.
                if self._shed_handles is not None and (
                    k := shed_rows(rows, k)
                ) == n:
                    return
                yield bind(k)
                k += 1

        def intake(event: Event | None = None) -> None:
            nonlocal jobs
            if event is not None:
                submit(event._value)
            while True:
                for fjob in jobs:
                    if fjob.__class__ is _JobColumns:
                        jobs = unshed(fjob)
                        break
                    now = env._now
                    if fjob.arrival_s > now:
                        delay = fjob.arrival_s - now
                        if not advance_to(now + delay):
                            env.timeout(delay, fjob).callbacks.append(intake)
                            return
                    submit(fjob)
                else:
                    if jobs is items:
                        break
                    jobs = items
            self._intake_closed = True
            self._maybe_done()

        intake()

    def _divert(self, fjob: _FleetJob) -> None:
        """Route a job off a degraded lane per its SLA class."""
        self._count("count.fleet.diverted")
        if (
            self._failover_streams is None
            or fjob.kind in self.degradation.shed_classes
        ):
            self._finish(fjob, Outcome.SHED, None)
        else:
            self.env.process(self._failover_job(fjob))

    def _failover_job(self, fjob: _FleetJob):
        stream = self._failover_streams.request()
        yield stream
        try:
            energy = self._failover_policy.transfer_energy(fjob.read_bytes)
            self.failover_energy_j += energy
            self._count("energy_j.fleet.network_failover", energy)
            yield self.env.timeout(
                self._failover_policy.transfer_time(fjob.read_bytes)
            )
        finally:
            stream.release()
        self._finish(fjob, Outcome.FAILOVER, self.env.now)

    # -- cart-pool balancing -----------------------------------------------------

    def _start_eviction(self, lane: _Lane, entry) -> None:
        """Send an idle resident home, then hand back its token and lock.

        The Close starts from a zero-delay timeout, not inline, and this
        step changes outcomes.  An eviction is issued from inside another
        step: a worker's cache miss, or :meth:`_balance_pool` when a cart
        request queues or a read ends.  Started inline, its Close would
        detach the cart and claim the tube ahead of steps already due
        in that instant.  Under the hardened campaign that reorders
        same-instant claims: the cached-chaos differential in
        ``tests/fleet/test_lane_workers.py`` (lru, seed 0, pool 3, 3x
        load) first diverges at t = 1,557.68 s, where two carts turn
        READY in the other order, and ends at 18,614.30 s, not
        18,604.25 s.  The timeout starts the Close after them, where
        the generator eviction process started it.
        """
        lane.cache.evict(entry)
        self._evictions_in_flight += 1
        env = self.env

        def evicted() -> None:
            self._evictions_in_flight -= 1
            entry.token.release()
            entry.lock.release()
            self._balance_pool()

        def start(_event: Event) -> None:
            _RobustClose(self, lane, entry.station.cart, evicted)

        env.timeout(0.0).callbacks.append(start)

    def _balance_pool(self) -> None:
        """Evict idle residents while cart requests outnumber evictions
        already in flight — the event-driven loop that keeps a bounded
        pool from deadlocking under cache residency."""
        if self.scenario.cache is None:
            return
        pool = self.topology.cart_pool
        while len(pool.queue) > self._evictions_in_flight:
            best = None
            best_lane = None
            for lane in self.lanes.values():
                candidate = lane.cache.evictable()
                if candidate is not None and (
                    best is None or candidate.last_access_s < best.last_access_s
                ):
                    best = candidate
                    best_lane = lane
            if best is None:
                return
            self._start_eviction(best_lane, best)

    # -- bookkeeping -------------------------------------------------------------

    def _finish(self, fjob: _FleetJob, outcome: str,
                completed_s: float | None) -> None:
        """Resolve one job: SLA accounting, counts, outcome hook.

        A :class:`JobRecord` is built only where something keeps it —
        the retained record list or an attached ``outcome_hook``; a
        streaming run hands the SLA tracker the fields alone.
        """
        hook = self.outcome_hook
        record = None
        if self.scenario.retain_records or hook is not None:
            record = JobRecord(
                job_id=fjob.job_id,
                kind=fjob.kind,
                dataset=fjob.dataset,
                arrival_s=fjob.arrival_s,
                deadline_s=fjob.deadline_at,
                read_bytes=fjob.read_bytes,
                outcome=outcome,
                completed_s=completed_s,
                tenant=fjob.tenant,
            )
        self.sla.observe(fjob.kind, fjob.tenant, outcome, fjob.arrival_s,
                         fjob.deadline_at, fjob.read_bytes, completed_s,
                         record)
        self._counts[outcome] += 1
        if completed_s is not None and completed_s > self._max_completed_s:
            self._max_completed_s = completed_s
        self._resolved += 1
        self._in_system -= 1
        if hook is not None:
            hook(record)
        self._maybe_done()

    def _maybe_done(self) -> None:
        if (
            self._intake_closed
            and self._resolved >= self._submitted
            and not self._done.triggered
        ):
            self._done.succeed(None)

    # -- sharded intake ----------------------------------------------------------
    #
    # A shard pod (:mod:`repro.fleet.shard`) cannot hand the plane a
    # lazy job stream: it reads its own arrivals and the jobs other
    # pods forwarded from a spool file, one window of virtual time at a
    # time.  These methods expose the exact intake path ``run``
    # drives, one event at a time, with ``_maybe_done`` semantics
    # unchanged.

    def start_workers(self) -> None:
        """Start every lane's per-station workers."""
        for lane in self.lanes.values():
            for _ in range(lane.stations):
                _LaneWorker(self, lane)

    def stop_workers(self) -> None:
        """Drop the idle lane workers' waiters once the plane is done.

        An idle worker is one waiter event in its lane's
        :attr:`_LaneQueue.waiters`, for a job that never comes.
        Dropping the waiters leaves nothing that refers to a worker.
        """
        for lane in self.lanes.values():
            lane.queue.waiters.clear()

    def inject(self, fjob: _FleetJob, at: float) -> None:
        """Schedule ``submit(fjob)`` at absolute virtual time ``at``.

        Injection order is creation order for equal timestamps (the
        engine breaks ties FIFO by event id), which is what makes a
        pod's fixed canonical injection order (each window's forwarded
        jobs, then its own arrivals) reproduce bit-identically whether
        the pod runs in this process or in a worker.
        """
        event = self.env.event()

        def _deliver(_event, fjob=fjob):
            self.submit(fjob)

        event.callbacks.append(_deliver)
        event._ok = True
        event._value = None
        self.env.schedule_at(event, at)

    def close_intake(self) -> None:
        """No further jobs will arrive; the run may quiesce."""
        self._intake_closed = True
        self._maybe_done()

    # -- orchestration -----------------------------------------------------------

    def run(self, fjobs: Iterable[_FleetJob]) -> FleetReport:
        """Drive the fleet over any job stream — list or lazy iterator."""
        iterator = iter(fjobs)
        try:
            first = next(iterator)
        except StopIteration:
            raise ConfigurationError(
                "no jobs arrived within the horizon"
            ) from None
        self.start_workers()
        self._start_intake(itertools.chain((first,), iterator))
        self.env.run(until=self._done)
        self.stop_workers()
        return self._build_report()

    def _build_report(self) -> FleetReport:
        records = tuple(sorted(self.sla.records, key=lambda r: r.job_id))
        caches = [
            lane.cache for lane in self.lanes.values() if lane.cache is not None
        ]
        monitors = tuple(self.monitors.values())
        return FleetReport(
            scenario=self.scenario,
            sla=self.sla.report(self.scenario.horizon_s),
            records=records,
            n_jobs=self._resolved,
            served=self._counts[Outcome.SERVED],
            shed=self._counts[Outcome.SHED],
            failovers=self._counts[Outcome.FAILOVER],
            failed=self._counts[Outcome.FAILED],
            cache_hits=sum(cache.hits for cache in caches),
            cache_misses=sum(cache.misses for cache in caches),
            cache_evictions=sum(cache.evictions for cache in caches),
            launches=self.topology.total_launches,
            launch_energy_j=self.topology.total_launch_energy_j,
            failover_energy_j=self.failover_energy_j,
            makespan_s=self._max_completed_s,
            diverted=sum(monitor.diverted for monitor in monitors),
            breaker_trips=sum(monitor.breaker.trips for monitor in monitors),
            rehomed=sum(cache.rehomed for cache in caches),
            lane_health=tuple(monitor.summary() for monitor in monitors),
            chaos_entries=(
                tuple(self._campaign.log.entries)
                if self._campaign is not None
                else ()
            ),
            peak_in_system=self.peak_in_system,
            tenant_sla=self.sla.tenant_report(self.scenario.horizon_s),
        )


#: Raw 64-bit words :func:`_dataset_draws` reads from its bit generator
#: per refill: large enough that the refill call is rare, small enough
#: that a short stream draws little it never uses.
_RAW_CHUNK = 4096

_U32 = 0xFFFFFFFF

#: ``2**-53``: ``Generator.random`` scales a word's top 53 bits by it.
_TWO_M53 = 1.0 / 9007199254740992.0


def _raw_words(seed: int) -> Iterator[int]:
    """The raw PCG64 output of ``np.random.default_rng(seed)``, forever."""
    random_raw = np.random.default_rng(seed).bit_generator.random_raw
    while True:
        yield from random_raw(_RAW_CHUNK).tolist()


def _dataset_draws(
    seed: int,
    hot: Sequence[str],
    cold: Sequence[str],
    hot_fraction: float,
) -> Iterator[str]:
    """The dataset each successive job binds to, drawn exactly as
    ``rng = np.random.default_rng(seed)`` would draw it per job::

        if hot and (not cold or rng.random() < hot_fraction):
            dataset = hot[rng.integers(len(hot))]
        else:
            dataset = cold[rng.integers(len(cold))]

    but from raw words read in chunks, with no numpy call per job.
    ``random()`` is the top 53 bits of one word.  ``integers(n)`` is
    Lemire's bounded draw on a 32-bit value: the low half of a fresh
    word, whose high half the bit generator keeps for the next 32-bit
    draw (``random()`` leaves it alone); a draw whose low product word
    falls below ``2**32 % n`` is rejected and redrawn, and ``n == 1``
    draws nothing.  Lists longer than ``2**32`` take numpy's 64-bit
    path, which this does not emulate.
    """
    if len(hot) > _U32 + 1 or len(cold) > _U32 + 1:
        raise ConfigurationError("dataset lists are limited to 2**32 names")
    next_word = _raw_words(seed).__next__
    split_hot = bool(hot) and bool(cold)
    high = -1  # the buffered high half; -1 when none is buffered
    while True:
        if split_hot:
            names = hot if (next_word() >> 11) * _TWO_M53 < hot_fraction else cold
        else:
            names = hot or cold
        n = len(names)
        if n == 1:
            yield names[0]
            continue
        threshold = (_U32 + 1) % n
        while True:
            if high < 0:
                word = next_word()
                product = (word & _U32) * n
                high = word >> 32
            else:
                product = high * n
                high = -1
            if product & _U32 >= threshold:
                break
        yield names[product >> 32]


def _bind_jobs(
    scenario: FleetScenario,
    jobs: Iterable[TransferJob] | None = None,
) -> Iterator[_FleetJob]:
    """Lazily bind datasets + SLAs to each job of a stream.

    ``jobs`` defaults to the scenario's seeded synthetic stream; any
    other :class:`~repro.workloads.generator.TransferJob` iterable (a
    fuzzer's, a test's) binds identically.  A trace replay binds its own
    records (:func:`repro.traffic.replay.bound_jobs`) and never comes
    through here.  Dataset draws use their
    own substream (``seed + 1``) so adding a traffic class never
    reshuffles which datasets existing jobs touch, and binding happens
    one job at a time as the control plane consumes the stream
    (:func:`_dataset_draws` reads raw words ahead in chunks, but draws
    a dataset only for a job that arrived).  Every
    dataset is homed at the catalog's ``dataset_bytes``, so a read is
    capped there without consulting any topology.
    """
    if jobs is None:
        generator = WorkloadGenerator(classes=scenario.classes,
                                      seed=scenario.seed)
        jobs = generator.generate(scenario.horizon_s)
    catalog = scenario.catalog
    datasets = _dataset_draws(scenario.seed + 1, catalog.hot_names,
                              catalog.cold_names, catalog.hot_fraction)
    dataset_bytes = catalog.dataset_bytes
    targets = dict(scenario.targets)
    for job, dataset in zip(jobs, datasets):
        arrival_s, size_bytes, kind = job.arrival_s, job.size_bytes, job.kind
        target = targets.get(kind, DEFAULT_TARGET)
        yield _FleetJob(
            job.job_id, arrival_s, size_bytes, kind, dataset,
            dataset_bytes if dataset_bytes < size_bytes else size_bytes,
            arrival_s + target.deadline_s, target.priority,
        )


def build_plane(scenario: FleetScenario, *,
                tracer: Tracer | None = None,
                homes: Mapping[str, DatasetHome] | None = None) -> ControlPlane:
    """Assemble one fleet: clock, topology, control plane, armed chaos.

    The one way a fleet is built: a fresh :class:`~repro.sim.Environment`
    (traced by ``tracer``, engine counters included), the scenario's
    :class:`FleetTopology` (``homes`` overrides dataset placement, as a
    shard pod's local reindexing does) and a :class:`ControlPlane`.  The
    scenario's chaos campaign is armed before any worker
    starts.  Reach the clock and topology as ``plane.env`` and
    ``plane.topology``; drive the plane with :meth:`ControlPlane.run` or
    by hand (``start_workers``, then ``submit`` or ``inject``).
    """
    env = Environment(tracer=tracer)
    topology = FleetTopology(env, scenario.spec, scenario.catalog,
                             tracer=tracer, homes=homes)
    plane = ControlPlane(env, topology, scenario, tracer=tracer)
    if scenario.chaos is not None:
        from ..chaos.runner import install_campaign

        plane.attach_campaign(
            install_campaign(env, topology.systems, scenario.chaos)
        )
    return plane


def run_fleet(scenario: FleetScenario,
              tracer: Tracer | None = None,
              jobs: Iterable[TransferJob] | None = None) -> FleetReport:
    """Simulate one fleet scenario end to end.

    Module-level and driven entirely by the scenario value, so it is
    picklable into :func:`repro.core.chunks.map_chunks` process workers
    and returns bit-identical reports under any engine.  ``jobs``
    optionally replaces the scenario's synthetic stream with any lazy
    :class:`~repro.workloads.generator.TransferJob` iterator — the
    control plane consumes it incrementally on the DES clock, so the
    full job list never needs to exist in memory.
    """
    plane = build_plane(scenario, tracer=tracer)
    return plane.run(_bind_jobs(scenario, jobs=jobs))
