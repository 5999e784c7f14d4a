"""Sharded multi-process fleet co-simulation.

One shared DES clock caps :mod:`repro.fleet` at a single core.  This
module partitions a large :class:`~repro.fleet.topology.FleetSpec` into
weakly-coupled **pods** — contiguous track ranges, each simulated by
its own :class:`~repro.sim.Environment` + control plane — that
exchange work only at inter-pod boundaries, and runs the pods on a
serial or persistent-multiprocess epoch executor.

**Conservative time windows.**  Every cross-pod interaction (a job
forwarded to the pod owning its dataset, an outcome notification sent
back) pays at least ``interpod_latency_s`` of virtual time.  Pods can
therefore run ``interpod_latency_s`` of virtual time completely
independently: epoch *k* executes the window ``(k*W, (k+1)*W]`` on
every pod, and messages produced during epoch *k* are timestamped
strictly later than ``(k+1)*W``, so delivering them at a later epoch
barrier never schedules into a pod's past.  This is the classic
conservative (CMB-style) synchronisation scheme with the lookahead
fixed at the physical inter-pod latency.

**Determinism contract.**  For a fixed :class:`ShardPlan`, the epoch
schedule, message set and canonical per-barrier injection order are
computed by the parent alone, so the serial executor and the process
executor (at *any* worker count) produce byte-identical
:class:`~repro.fleet.controlplane.FleetReport` signatures — the same
idiom as the existing serial==process sweep gates.  Changing
``n_pods`` changes the *model* (split cart pools, forwarding latency),
exactly like changing ``n_tracks`` would; ``n_pods == 1`` delegates to
the monolithic :func:`~repro.fleet.controlplane.run_fleet` and matches
it bit for bit.

See ``docs/scaling.md`` for the partitioning rules, the window maths,
the metric-merge semantics and a copy-pasteable N-core recipe.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Mapping

from ..chaos.campaigns import ChaosCampaign
from ..chaos.runner import install_campaign
from ..errors import ConfigurationError, SimulationError
from ..obs import merge_snapshots_additive
from ..sim import Environment
from ..workloads.generator import TransferJob
from .controlplane import (
    ControlPlane,
    FleetReport,
    FleetScenario,
    _bind_jobs,
    _FleetJob,
)
from .sla import (
    JobRecord,
    SlaReport,
    SlaState,
    merge_sla_states,
    report_from_state,
    tenant_report_from_state,
)
from .topology import DatasetHome, FleetSpec, FleetTopology, assign_homes

#: Default inter-pod boundary latency (seconds of virtual time): the
#: conservative window W.  Cross-pod hops cost at least this much, and
#: every pod runs W of virtual time per epoch with no synchronisation.
DEFAULT_INTERPOD_LATENCY_S = 5.0

#: Epoch executors ``run_sharded`` accepts.
SHARD_ENGINES = ("serial", "process")

#: Counter name for jobs whose ingress pod did not own their dataset.
FORWARDED_COUNTER = "count.fleet.shard.forwarded"

#: Counter-name prefix for outcome notes delivered back to ingress pods.
REMOTE_OUTCOME_PREFIX = "count.fleet.shard.remote_outcome."

# A cross-pod message is a plain picklable tuple
#     (deliver_s, rank, job_id, dest_pod, payload)
# with rank 0 for forwarded jobs (payload: _FleetJob) and rank 1 for
# outcome notes (payload: outcome string).  Sorting messages by tuple
# order IS the canonical injection order: deliver-time first, jobs
# before notes, then job id — payloads are never compared because
# (rank, job_id) is unique.
_JOB_RANK = 0
_NOTE_RANK = 1

_TRACK_TARGET = re.compile(r"^t(\d+)")


def _globalise_target(target: str, offset: int) -> str:
    """Rewrite a pod-local ``t<track>...`` target to global track numbering."""
    return _TRACK_TARGET.sub(
        lambda match: f"t{int(match.group(1)) + offset}", target, count=1
    )


@dataclass(frozen=True)
class ShardPlan:
    """How one fleet scenario is carved into pods.

    The plan is pure data (picklable, hashable-by-value) and fully
    determines the sharded model: contiguous track ranges per pod via
    largest-remainder splitting, a proportional cart-pool share per
    pod, per-pod chaos campaigns, and the conservative window
    ``interpod_latency_s``.  Everything the executors need derives from
    the plan, which is what makes serial and process runs of the same
    plan byte-identical.
    """

    scenario: FleetScenario = field(default_factory=FleetScenario)
    n_pods: int = 2
    interpod_latency_s: float = DEFAULT_INTERPOD_LATENCY_S

    def __post_init__(self) -> None:
        spec = self.scenario.spec
        if self.n_pods < 1:
            raise ConfigurationError(f"n_pods must be >= 1, got {self.n_pods}")
        if self.n_pods > spec.n_tracks:
            raise ConfigurationError(
                f"n_pods ({self.n_pods}) exceeds the {spec.n_tracks} "
                "track(s) available to shard — a pod needs at least one rail"
            )
        if self.interpod_latency_s <= 0:
            raise ConfigurationError(
                f"interpod_latency_s must be positive, got "
                f"{self.interpod_latency_s}"
            )
        chaos = self.scenario.chaos
        if chaos is not None:
            for event in chaos.events:
                if event.track is not None and not (
                    0 <= event.track < spec.n_tracks
                ):
                    raise ConfigurationError(
                        f"chaos event targets track {event.track} but the "
                        f"fleet has {spec.n_tracks} tracks"
                    )

    @property
    def window_s(self) -> float:
        """The conservative epoch window W (== the inter-pod latency)."""
        return self.interpod_latency_s

    @property
    def track_ranges(self) -> tuple[tuple[int, int], ...]:
        """Per-pod ``(first_track, n_tracks)`` contiguous ranges."""
        base, remainder = divmod(self.scenario.spec.n_tracks, self.n_pods)
        ranges: list[tuple[int, int]] = []
        start = 0
        for pod in range(self.n_pods):
            count = base + (1 if pod < remainder else 0)
            ranges.append((start, count))
            start += count
        return tuple(ranges)

    @property
    def cart_shares(self) -> tuple[int, ...]:
        """Cart-pool split, proportional to tracks (largest remainder).

        Because the global spec guarantees ``cart_pool >= n_tracks``,
        every share is at least the pod's track count, so each pod's
        :class:`~repro.fleet.topology.FleetSpec` stays valid.
        """
        pool = self.scenario.spec.cart_pool
        n_tracks = self.scenario.spec.n_tracks
        shares = [(pool * count) // n_tracks for _, count in self.track_ranges]
        remainders = [(pool * count) % n_tracks for _, count in self.track_ranges]
        order = sorted(range(self.n_pods), key=lambda p: (-remainders[p], p))
        for pod in order[: pool - sum(shares)]:
            shares[pod] += 1
        return tuple(shares)

    def pod_of_track(self, track_index: int) -> int:
        """The pod owning a global track index."""
        for pod, (start, count) in enumerate(self.track_ranges):
            if start <= track_index < start + count:
                return pod
        raise ConfigurationError(
            f"track {track_index} is outside the fleet's "
            f"{self.scenario.spec.n_tracks} tracks"
        )

    def dataset_owners(self) -> dict[str, int]:
        """Dataset name -> owning pod, from the global round-robin homing."""
        homes = assign_homes(self.scenario.spec, self.scenario.catalog)
        return {
            name: self.pod_of_track(home.track_index)
            for name, home in homes.items()
        }

    def pod_spec(self, pod: int) -> FleetSpec:
        """The pod's own :class:`FleetSpec`: its tracks, its cart share."""
        _start, count = self.track_ranges[pod]
        return replace(
            self.scenario.spec, n_tracks=count, cart_pool=self.cart_shares[pod]
        )

    def pod_homes(self, pod: int) -> dict[str, DatasetHome]:
        """The pod's slice of the global homing, re-indexed to local tracks."""
        start, count = self.track_ranges[pod]
        return {
            name: replace(home, track_index=home.track_index - start)
            for name, home in assign_homes(
                self.scenario.spec, self.scenario.catalog
            ).items()
            if start <= home.track_index < start + count
        }

    def pod_chaos(self, pod: int) -> ChaosCampaign | None:
        """The pod's slice of the chaos campaign.

        Track-scoped events move to the owning pod with local track
        indices; pod-wide events (``track=None``) replicate to every
        pod (the runner fans them out over the pod's local tracks, so
        global coverage is preserved).  The background spec's seed is
        offset by ``1000 * first_track`` so the runner's per-track seed
        derivation reproduces the *global* per-track seeds exactly.
        """
        campaign = self.scenario.chaos
        if campaign is None:
            return None
        start, count = self.track_ranges[pod]
        events = []
        for event in campaign.ordered_events:
            if event.track is None:
                events.append(event)
            elif start <= event.track < start + count:
                events.append(replace(event, track=event.track - start))
        background = campaign.background
        if background is not None:
            background = replace(background, seed=background.seed + 1000 * start)
        if not events and background is None:
            return None
        return replace(campaign, events=tuple(events), background=background)

    def pod_scenario(self, pod: int) -> FleetScenario:
        """The complete per-pod scenario a :class:`_PodRunner` simulates."""
        return replace(
            self.scenario, spec=self.pod_spec(pod), chaos=self.pod_chaos(pod)
        )


@dataclass(frozen=True)
class _PodState:
    """Everything a finished pod ships back to the parent."""

    pod_index: int
    track_offset: int
    report: FleetReport
    sla_state: SlaState
    metrics: dict[str, dict[str, Any]]
    leftover_notes: tuple[tuple, ...]


class _HomesView:
    """Duck-typed stand-in for ``FleetTopology.home`` used by the parent.

    Parent-side job binding only needs ``home(dataset)``; building a
    full topology (N simulators, staged carts) just for that would
    dwarf the cost of binding itself.
    """

    __slots__ = ("_homes",)

    def __init__(self, homes: Mapping[str, DatasetHome]):
        self._homes = homes

    def home(self, dataset: str) -> DatasetHome:
        try:
            return self._homes[dataset]
        except KeyError:
            raise ConfigurationError(f"unknown dataset {dataset!r}") from None


class _Pump:
    """One-ahead buffer over the bound job stream.

    Keeps at most one job materialised beyond the current epoch, so a
    trace-driven day streams through the sharded runner with the same
    bounded-memory contract the monolithic lazy intake gives.
    """

    __slots__ = ("_iterator", "_next", "exhausted")

    def __init__(self, iterator: Iterator[_FleetJob]):
        self._iterator = iterator
        self._next: _FleetJob | None = None
        self.exhausted = False
        self._advance()

    def _advance(self) -> None:
        try:
            self._next = next(self._iterator)
        except StopIteration:
            self._next = None
            self.exhausted = True

    def pull(self, until: float) -> list[_FleetJob]:
        """All not-yet-pulled jobs arriving at or before ``until``."""
        out: list[_FleetJob] = []
        while not self.exhausted and self._next.arrival_s <= until:
            out.append(self._next)
            self._advance()
        return out


class _PodRunner:
    """One pod: an isolated environment + control plane, run in epochs."""

    def __init__(self, plan: ShardPlan, pod_index: int):
        self.plan = plan
        self.pod_index = pod_index
        self.track_offset = plan.track_ranges[pod_index][0]
        self.window_s = plan.window_s
        self.n_pods = plan.n_pods
        self.owners = plan.dataset_owners()
        scenario = plan.pod_scenario(pod_index)
        self.env = Environment()
        topology = FleetTopology(
            self.env, scenario.spec, scenario.catalog,
            homes=plan.pod_homes(pod_index),
        )
        self.plane = ControlPlane(self.env, topology, scenario)
        if scenario.chaos is not None:
            self.plane.attach_campaign(
                install_campaign(self.env, topology.systems, scenario.chaos)
            )
        self.plane.start_workers()
        self.outbox: list[tuple] = []
        self.plane.outcome_hook = self._on_outcome

    def _on_outcome(self, record: JobRecord) -> None:
        # Jobs whose ingress pod differs from ours were forwarded here;
        # the resolution travels back as a note, one boundary hop later.
        ingress = record.job_id % self.n_pods
        if ingress != self.pod_index:
            self.outbox.append((
                self.env.now + self.window_s,
                _NOTE_RANK,
                record.job_id,
                ingress,
                str(record.outcome),
            ))

    def deliver(self, messages: Iterable[tuple],
                arrivals: Iterable[_FleetJob]) -> None:
        """Apply one barrier's messages and local arrivals, in canonical order."""
        for deliver_s, rank, job_id, _dest, payload in messages:
            if rank == _JOB_RANK:
                self.plane.inject(payload, deliver_s)
            else:
                self.plane.registry.counter(
                    REMOTE_OUTCOME_PREFIX + payload
                ).inc()
        for fjob in arrivals:
            owner = self.owners[fjob.dataset]
            if owner == self.pod_index:
                self.plane.inject(fjob, fjob.arrival_s)
            else:
                self.plane.registry.counter(FORWARDED_COUNTER).inc()
                self.outbox.append((
                    fjob.arrival_s + self.window_s,
                    _JOB_RANK,
                    fjob.job_id,
                    owner,
                    fjob,
                ))

    def run_epoch(self, epoch_end: float) -> list[tuple]:
        """Advance the pod to ``epoch_end`` and drain its outbox."""
        self.env.run(until=epoch_end)
        out, self.outbox = self.outbox, []
        return out

    def finish(self) -> _PodState:
        """Close intake, drain to quiescence and export the pod's state."""
        self.plane.close_intake()
        self.env.run(until=self.plane._done)
        return _PodState(
            pod_index=self.pod_index,
            track_offset=self.track_offset,
            report=self.plane._build_report(),
            sla_state=self.plane.sla.export_state(),
            metrics=self.plane.registry.snapshot(),
            leftover_notes=tuple(self.outbox),
        )


class _SerialExecutor:
    """Runs every pod in-process, one after another, per epoch."""

    def __init__(self, plan: ShardPlan):
        self.runners = [_PodRunner(plan, pod) for pod in range(plan.n_pods)]

    def step(self, epoch_end: float, work: dict) -> list[tuple]:
        outbox: list[tuple] = []
        for pod, runner in enumerate(self.runners):
            messages, arrivals = work.get(pod, ((), ()))
            runner.deliver(messages, arrivals)
            outbox.extend(runner.run_epoch(epoch_end))
        return outbox

    def finish(self) -> list[_PodState]:
        return [runner.finish() for runner in self.runners]

    def close(self) -> None:
        pass


def _shard_worker(plan: ShardPlan, pod_indices: list[int], conn) -> None:
    """Process-executor worker: owns ``pod_indices`` for the whole run.

    Pod environments hold live generators and are unpicklable, so the
    worker is persistent: it builds its pods once and then answers
    ``step``/``finish`` commands over the pipe until told to stop.
    """
    try:
        runners = {pod: _PodRunner(plan, pod) for pod in pod_indices}
        while True:
            command = conn.recv()
            if command[0] == "step":
                _tag, epoch_end, work = command
                outbox: list[tuple] = []
                for pod in pod_indices:
                    messages, arrivals = work.get(pod, ((), ()))
                    runner = runners[pod]
                    runner.deliver(messages, arrivals)
                    outbox.extend(runner.run_epoch(epoch_end))
                conn.send(("ok", outbox))
            elif command[0] == "finish":
                conn.send(
                    ("ok", [runners[pod].finish() for pod in pod_indices])
                )
            else:  # "stop"
                return
    except EOFError:  # pragma: no cover - parent died mid-run
        return
    except BaseException as error:  # noqa: BLE001 - relayed to the parent
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class _ProcessExecutor:
    """Persistent spawn-context workers, each owning ``pod % workers`` pods.

    The pod→worker assignment only decides *where* a pod runs, never
    what it sees: barriers are global and injection order canonical, so
    any worker count yields byte-identical results.
    """

    def __init__(self, plan: ShardPlan, workers: int):
        context = multiprocessing.get_context("spawn")
        assignments = [
            [pod for pod in range(plan.n_pods) if pod % workers == w]
            for w in range(workers)
        ]
        self.assignments = [pods for pods in assignments if pods]
        self.conns = []
        self.procs = []
        for pods in self.assignments:
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_shard_worker, args=(plan, pods, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)

    @staticmethod
    def _receive(conn) -> Any:
        status, payload = conn.recv()
        if status != "ok":
            raise SimulationError(f"shard worker failed: {payload}")
        return payload

    def step(self, epoch_end: float, work: dict) -> list[tuple]:
        for pods, conn in zip(self.assignments, self.conns):
            conn.send((
                "step",
                epoch_end,
                {pod: work[pod] for pod in pods if pod in work},
            ))
        outbox: list[tuple] = []
        for conn in self.conns:
            outbox.extend(self._receive(conn))
        return outbox

    def finish(self) -> list[_PodState]:
        for conn in self.conns:
            conn.send(("finish",))
        states: list[_PodState] = []
        for conn in self.conns:
            states.extend(self._receive(conn))
        return sorted(states, key=lambda state: state.pod_index)

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()


@dataclass(frozen=True)
class ShardReport:
    """A sharded run: the merged fleet report plus shard-level accounting."""

    plan: ShardPlan
    fleet: FleetReport
    engine: str
    workers: int
    epochs: int
    forwarded: int
    """Jobs whose ingress pod had to forward them across a boundary."""
    remote_outcomes: dict[str, int]
    """Outcome notes delivered back to ingress pods, by outcome."""
    pod_rows: tuple[dict[str, Any], ...]
    """Per-pod summary rows (pod, tracks, carts, job counts, makespan)."""
    metrics: dict[str, dict[str, Any]]
    """The additively merged registry snapshot of all pods."""
    wall_s: float

    @property
    def pod_jobs(self) -> tuple[int, ...]:
        """Per-pod resolved-job counts, in pod order."""
        return tuple(row["n_jobs"] for row in self.pod_rows)


def report_signature(report: FleetReport) -> dict[str, Any]:
    """Canonical JSON-able digest of everything a fleet run measured.

    Two runs are considered byte-identical when
    :func:`render_signature` of their signatures matches — the gate the
    shard bench and the determinism tests use.  Engine choice, worker
    count and wall-clock are deliberately absent.
    """
    def sla_row(row) -> dict[str, Any]:
        return {
            "kind": row.kind,
            "n_jobs": row.n_jobs,
            "n_completed": row.n_completed,
            "p50_s": row.p50_s,
            "p95_s": row.p95_s,
            "p99_s": row.p99_s,
            "deadline_miss_rate": row.deadline_miss_rate,
            "goodput_bytes_per_s": row.goodput_bytes_per_s,
        }

    def sla_block(sla: SlaReport | None) -> dict[str, Any] | None:
        if sla is None:
            return None
        return {
            "horizon_s": sla.horizon_s,
            "classes": [sla_row(row) for row in sla.classes],
            "overall": sla_row(sla.overall),
        }

    return {
        "label": report.scenario.label,
        "n_jobs": report.n_jobs,
        "served": report.served,
        "shed": report.shed,
        "failovers": report.failovers,
        "failed": report.failed,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "cache_evictions": report.cache_evictions,
        "launches": report.launches,
        "launch_energy_j": report.launch_energy_j,
        "failover_energy_j": report.failover_energy_j,
        "makespan_s": report.makespan_s,
        "diverted": report.diverted,
        "breaker_trips": report.breaker_trips,
        "rehomed": report.rehomed,
        "peak_in_system": report.peak_in_system,
        "sla": sla_block(report.sla),
        "tenant_sla": sla_block(report.tenant_sla),
        "lane_health": [dict(row) for row in report.lane_health],
        "chaos_entries": [list(entry) for entry in report.chaos_entries],
        "records": [
            [
                record.job_id,
                record.kind,
                record.dataset,
                record.arrival_s,
                record.deadline_s,
                record.read_bytes,
                str(record.outcome),
                record.completed_s,
                record.tenant,
            ]
            for record in report.records
        ],
    }


def render_signature(signature: dict[str, Any]) -> str:
    """Render a signature to its canonical byte-comparable string."""
    return json.dumps(signature, indent=2, sort_keys=True) + "\n"


def signature_digest(report: FleetReport) -> str:
    """SHA-256 hex digest of the rendered signature (for bench payloads)."""
    rendered = render_signature(report_signature(report))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _merge_states(
    plan: ShardPlan, states: list[_PodState]
) -> tuple[FleetReport, dict[str, dict[str, Any]]]:
    """Fold per-pod states into one fleet report + merged metrics snapshot."""
    sla_state = merge_sla_states([state.sla_state for state in states])
    horizon_s = plan.scenario.horizon_s
    metrics = merge_snapshots_additive([state.metrics for state in states])
    # Notes still in flight when the pods drained are counter-only;
    # apply them to the merged snapshot so forwarded == remote notes.
    for state in states:
        for _deliver_s, _rank, _job_id, _dest, outcome in state.leftover_notes:
            name = REMOTE_OUTCOME_PREFIX + outcome
            entry = metrics.setdefault(name, {"type": "counter", "value": 0.0})
            entry["value"] += 1.0
    metrics = {name: metrics[name] for name in sorted(metrics)}
    lane_health: list[dict] = []
    chaos_entries: list[tuple[float, str, str, str]] = []
    for state in states:
        offset = state.track_offset
        for row in state.report.lane_health:
            globalised = dict(row)
            globalised["lane"] = _globalise_target(str(row["lane"]), offset)
            lane_health.append(globalised)
        for when, kind, target, detail in state.report.chaos_entries:
            chaos_entries.append(
                (when, kind, _globalise_target(target, offset), detail)
            )
    chaos_entries.sort()
    reports = [state.report for state in states]
    fleet = FleetReport(
        scenario=plan.scenario,
        sla=report_from_state(sla_state, horizon_s),
        records=sla_state.records,
        n_jobs=sum(report.n_jobs for report in reports),
        served=sum(report.served for report in reports),
        shed=sum(report.shed for report in reports),
        failovers=sum(report.failovers for report in reports),
        failed=sum(report.failed for report in reports),
        cache_hits=sum(report.cache_hits for report in reports),
        cache_misses=sum(report.cache_misses for report in reports),
        cache_evictions=sum(report.cache_evictions for report in reports),
        launches=sum(report.launches for report in reports),
        launch_energy_j=sum(report.launch_energy_j for report in reports),
        failover_energy_j=sum(report.failover_energy_j for report in reports),
        makespan_s=max(report.makespan_s for report in reports),
        diverted=sum(report.diverted for report in reports),
        breaker_trips=sum(report.breaker_trips for report in reports),
        rehomed=sum(report.rehomed for report in reports),
        lane_health=tuple(lane_health),
        chaos_entries=tuple(chaos_entries),
        # Per-pod peaks need not coincide in virtual time, so the sum
        # is an upper bound on the true fleet-wide peak.
        peak_in_system=sum(report.peak_in_system for report in reports),
        tenant_sla=(
            tenant_report_from_state(sla_state, horizon_s)
            if sla_state.by_tenant
            else None
        ),
    )
    return fleet, metrics


def _counter_value(metrics: Mapping[str, Mapping[str, Any]], name: str) -> int:
    entry = metrics.get(name)
    return int(entry["value"]) if entry is not None else 0


def run_sharded(
    plan: ShardPlan,
    engine: str = "serial",
    workers: int | None = None,
    jobs: Iterable[TransferJob] | None = None,
) -> ShardReport:
    """Run one sharded fleet co-simulation end to end.

    ``engine`` picks the epoch executor (``serial`` or ``process``);
    ``workers`` bounds the process pool (default: one worker per pod,
    capped at the CPU count).  ``jobs`` optionally replaces the
    scenario's synthetic stream with any lazy
    :class:`~repro.workloads.generator.TransferJob` (or pre-bound
    fleet-job) iterator, exactly as :func:`run_fleet` accepts — this is
    how trace replay routes a 1M-request day through all cores.

    With ``n_pods == 1`` the monolithic single-clock path runs instead
    (no windows, no boundary hops) and the returned fleet report is bit
    identical to :func:`run_fleet` on the same scenario.
    """
    if engine not in SHARD_ENGINES:
        raise ConfigurationError(
            f"engine must be one of {SHARD_ENGINES}, got {engine!r}"
        )
    scenario = plan.scenario
    started = time.perf_counter()
    if plan.n_pods == 1:
        # Inline run_fleet so the registry snapshot can ride along.
        env = Environment()
        topology = FleetTopology(env, scenario.spec, scenario.catalog)
        plane = ControlPlane(env, topology, scenario)
        if scenario.chaos is not None:
            plane.attach_campaign(
                install_campaign(env, topology.systems, scenario.chaos)
            )
        fleet = plane.run(_bind_jobs(scenario, topology, jobs=jobs))
        return ShardReport(
            plan=plan,
            fleet=fleet,
            engine=engine,
            workers=1,
            epochs=0,
            forwarded=0,
            remote_outcomes={},
            pod_rows=(
                {
                    "pod": 0,
                    "tracks": scenario.spec.n_tracks,
                    "carts": scenario.spec.cart_pool,
                    "n_jobs": fleet.n_jobs,
                    "served": fleet.served,
                    "shed": fleet.shed,
                    "failovers": fleet.failovers,
                    "failed": fleet.failed,
                    "makespan_s": fleet.makespan_s,
                },
            ),
            metrics=plane.registry.snapshot(),
            wall_s=time.perf_counter() - started,
        )
    homes = assign_homes(scenario.spec, scenario.catalog)
    pump = _Pump(iter(_bind_jobs(scenario, _HomesView(homes), jobs=jobs)))
    if pump.exhausted:
        raise ConfigurationError("no jobs arrived within the horizon")
    if engine == "process":
        if workers is None:
            workers = min(plan.n_pods, os.cpu_count() or 1)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        executor: _SerialExecutor | _ProcessExecutor = _ProcessExecutor(
            plan, workers
        )
    else:
        workers = 1
        executor = _SerialExecutor(plan)
    window = plan.window_s
    pending: list[tuple] = []
    epochs = 0
    try:
        while not (pump.exhausted and not pending):
            epoch_end = (epochs + 1) * window
            arrivals = pump.pull(epoch_end)
            deliverable = sorted(
                message for message in pending if message[0] <= epoch_end
            )
            pending = [message for message in pending if message[0] > epoch_end]
            work: dict[int, tuple[list, list]] = {}
            for message in deliverable:
                work.setdefault(message[3], ([], []))[0].append(message)
            for fjob in arrivals:
                ingress = fjob.job_id % plan.n_pods
                work.setdefault(ingress, ([], []))[1].append(fjob)
            pending.extend(executor.step(epoch_end, work))
            epochs += 1
        states = executor.finish()
    finally:
        executor.close()
    fleet, metrics = _merge_states(plan, states)
    remote_outcomes = {
        name[len(REMOTE_OUTCOME_PREFIX):]: _counter_value(metrics, name)
        for name in metrics
        if name.startswith(REMOTE_OUTCOME_PREFIX)
    }
    pod_rows = tuple(
        {
            "pod": state.pod_index,
            "tracks": plan.track_ranges[state.pod_index][1],
            "carts": plan.cart_shares[state.pod_index],
            "n_jobs": state.report.n_jobs,
            "served": state.report.served,
            "shed": state.report.shed,
            "failovers": state.report.failovers,
            "failed": state.report.failed,
            "makespan_s": state.report.makespan_s,
        }
        for state in states
    )
    return ShardReport(
        plan=plan,
        fleet=fleet,
        engine=engine,
        workers=workers,
        epochs=epochs,
        forwarded=_counter_value(metrics, FORWARDED_COUNTER),
        remote_outcomes=remote_outcomes,
        pod_rows=pod_rows,
        metrics=metrics,
        wall_s=time.perf_counter() - started,
    )
