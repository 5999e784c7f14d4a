"""Sharded fleet co-simulation: one independent task per pod.

One shared DES clock caps :mod:`repro.fleet` at a single core.  This
module partitions a large :class:`~repro.fleet.topology.FleetSpec` into
**pods** — contiguous track ranges, each simulated by its own
:class:`~repro.sim.Environment` + control plane — and runs every pod as
one task over :func:`~repro.core.chunks.map_chunks`, serially or on a
process pool.

**Forwarding, not synchronisation.**  A job enters at pod
``job_id % n_pods``; if another pod owns its dataset, it is forwarded
there and arrives ``interpod_latency_s`` (W) later.  Both the target
pod and the delivery time follow from the bound job stream alone, and
nothing a pod simulates feeds back into any other pod.  So the parent
binds the stream once, routes each job, and spools every pod's inputs
(its own arrivals plus the jobs forwarded to it) to a per-pod file,
one W-wide input window at a time; each pod then runs alone.  Inside
its task a pod replays the windows in order: inject the due forwarded
jobs (by delivery time, then job id), then its own arrivals, then run
to the window's end.  The owning pod counts each forwarded job's
outcome as a remote-outcome note.

**Determinism contract.**  A pod's inputs and call order depend only
on the :class:`ShardPlan` and the job stream, so the serial and process
engines (at *any* worker count) produce byte-identical
:class:`~repro.fleet.controlplane.FleetReport` signatures — the same
idiom as the existing serial==process sweep gates.  Changing
``n_pods`` changes the *model* (split cart pools, forwarding latency),
exactly like changing ``n_tracks`` would; ``n_pods == 1`` delegates to
the monolithic :func:`~repro.fleet.controlplane.run_fleet` and matches
it bit for bit.

See ``docs/scaling.md`` for the partitioning rules, the forwarding
model, the metric-merge semantics and a copy-pasteable N-core recipe.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import pickle
import re
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, BinaryIO, Iterable, Iterator, Mapping, Sequence

from ..core.chunks import map_chunks
from ..errors import ConfigurationError
from ..obs import merge_snapshots_additive
from ..workloads.generator import TransferJob
from .controlplane import (
    FleetReport,
    FleetScenario,
    _bind_jobs,
    _FleetJob,
    build_plane,
)
from .sla import (
    JobRecord,
    SlaReport,
    SlaState,
    merge_sla_states,
    report_from_state,
    tenant_report_from_state,
)
from .topology import DatasetHome, FleetSpec, assign_homes

if TYPE_CHECKING:
    from ..chaos.campaigns import ChaosCampaign

#: Default inter-pod forwarding latency W (seconds of virtual time).
#: A forwarded job reaches its owning pod W after it arrived.
DEFAULT_INTERPOD_LATENCY_S = 5.0

#: Engines ``run_sharded`` accepts (those of ``map_chunks``).
SHARD_ENGINES = ("serial", "process")

#: Counter name for jobs whose ingress pod did not own their dataset.
FORWARDED_COUNTER = "count.fleet.shard.forwarded"

#: Counter-name prefix for the outcomes of forwarded jobs, by outcome.
REMOTE_OUTCOME_PREFIX = "count.fleet.shard.remote_outcome."

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
    pod, per-pod chaos campaigns, and the forwarding latency
    ``interpod_latency_s``.  Every pod's inputs derive from the plan and
    the job stream, which is what makes serial and process runs of the
    same plan byte-identical.
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
        latency = self.interpod_latency_s
        if not math.isfinite(latency) or latency <= 0:
            raise ConfigurationError(
                f"interpod_latency_s must be positive and finite, got {latency}"
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
        """The input-window width W (== the inter-pod latency)."""
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
        """The complete per-pod scenario :func:`_run_pod` simulates."""
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
    windows: int
    """Input windows the pod stepped before draining."""


def _spool(plan: ShardPlan, fjobs: Iterable[_FleetJob],
           directory: str) -> tuple[tuple[str, ...], int]:
    """Route the bound stream into one input file per pod.

    Job ``j`` arriving at ``a`` lands in input window ``k``, the first
    with ``a <= (k+1)*W``.  Each pod's file holds one pickled
    ``(k, own, forwarded)`` batch per non-empty window: ``own`` are the
    window's arrivals that enter at their owning pod, ``forwarded`` the
    ones another pod took in, in stream order.  Only one window of bound
    jobs is held at a time, so a trace-driven day streams through with
    bounded memory.  Returns the file paths and the number of jobs.
    """
    owners = plan.dataset_owners()
    n_pods, window = plan.n_pods, plan.window_s
    paths = tuple(
        os.path.join(directory, f"pod{pod}.spool") for pod in range(n_pods)
    )
    batches: list[tuple[list, list]] = [([], []) for _ in range(n_pods)]
    k = n_jobs = 0
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "wb")) for path in paths]

        def flush() -> None:
            for pod, (own, forwarded) in enumerate(batches):
                if own or forwarded:
                    pickle.dump((k, own, forwarded), handles[pod],
                                pickle.HIGHEST_PROTOCOL)
                    batches[pod] = ([], [])

        for fjob in fjobs:
            if fjob.arrival_s > (k + 1) * window:
                flush()
                while fjob.arrival_s > (k + 1) * window:
                    k += 1
            owner = owners[fjob.dataset]
            forwarded = fjob.job_id % n_pods != owner
            batches[owner][forwarded].append(fjob)
            n_jobs += 1
        flush()
    return paths, n_jobs


def _read_batches(handle: BinaryIO) -> Iterator[tuple[int, list, list]]:
    while True:
        try:
            yield pickle.load(handle)
        except EOFError:
            return


def _run_pod(plan: ShardPlan, pod_index: int, spool: str) -> _PodState:
    """Simulate one pod from its spooled inputs, window by window.

    Window ``k`` injects the forwarded jobs due by its end (delivery
    time, then job id), then the pod's own arrivals, then runs to
    ``(k+1)*W``.  Once its inputs are drained the pod closes intake and
    runs to quiescence.
    """
    plane = build_plane(
        plan.pod_scenario(pod_index), homes=plan.pod_homes(pod_index)
    )
    plane.start_workers()
    env = plane.env
    registry = plane.registry
    n_pods, window = plan.n_pods, plan.window_s

    def count_remote_outcome(record: JobRecord) -> None:
        if record.job_id % n_pods != pod_index:
            registry.counter(REMOTE_OUTCOME_PREFIX + str(record.outcome)).inc()

    plane.outcome_hook = count_remote_outcome
    in_flight: list[tuple[float, int, _FleetJob]] = []
    windows = 0
    with open(spool, "rb") as handle:
        batches = _read_batches(handle)
        batch = next(batches, None)
        while batch is not None or in_flight:
            window_end = (windows + 1) * window
            while in_flight and in_flight[0][0] <= window_end:
                deliver_s, _job_id, fjob = heapq.heappop(in_flight)
                plane.inject(fjob, deliver_s)
            if batch is not None and batch[0] == windows:
                _k, own, forwarded = batch
                for fjob in own:
                    plane.inject(fjob, fjob.arrival_s)
                if forwarded:
                    registry.counter(FORWARDED_COUNTER).inc(len(forwarded))
                for fjob in forwarded:
                    heapq.heappush(
                        in_flight, (fjob.arrival_s + window, fjob.job_id, fjob)
                    )
                batch = next(batches, None)
            env.run(until=window_end)
            windows += 1
    plane.close_intake()
    env.run(until=plane._done)
    plane.stop_workers()
    return _PodState(
        pod_index=pod_index,
        track_offset=plan.track_ranges[pod_index][0],
        report=plane._build_report(),
        sla_state=plane.sla.export_state(),
        metrics=registry.snapshot(),
        windows=windows,
    )


def _run_pods(plan: ShardPlan,
              spools: tuple[tuple[int, str], ...]) -> list[_PodState]:
    """``map_chunks`` task: run each ``(pod, spool)`` pair in turn."""
    return [_run_pod(plan, pod, spool) for pod, spool in spools]


@dataclass(frozen=True)
class ShardReport:
    """A sharded run: the merged fleet report plus shard-level accounting."""

    plan: ShardPlan
    fleet: FleetReport
    engine: str
    workers: int
    epochs: int
    """The most input windows any pod stepped (0 for one pod)."""
    forwarded: int
    """Jobs whose ingress pod had to forward them across a boundary."""
    remote_outcomes: dict[str, int]
    """Outcomes of forwarded jobs, by outcome."""
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
    plan: ShardPlan, states: Sequence[_PodState]
) -> tuple[FleetReport, dict[str, dict[str, Any]]]:
    """Fold per-pod states into one fleet report + merged metrics snapshot."""
    sla_state = merge_sla_states([state.sla_state for state in states])
    horizon_s = plan.scenario.horizon_s
    metrics = merge_snapshots_additive([state.metrics for state in states])
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
        tenant_sla=tenant_report_from_state(sla_state, horizon_s),
    )
    return fleet, metrics


def _counter_value(metrics: Mapping[str, Mapping[str, Any]], name: str) -> int:
    entry = metrics.get(name)
    return int(entry["value"]) if entry is not None else 0


def _pod_row(pod: int, tracks: int, carts: int,
             report: FleetReport) -> dict[str, Any]:
    return {
        "pod": pod,
        "tracks": tracks,
        "carts": carts,
        "n_jobs": report.n_jobs,
        "served": report.served,
        "shed": report.shed,
        "failovers": report.failovers,
        "failed": report.failed,
        "makespan_s": report.makespan_s,
    }


def run_sharded(
    plan: ShardPlan,
    engine: str = "serial",
    workers: int | None = None,
    jobs: Iterable[TransferJob] | None = None,
) -> ShardReport:
    """Run one sharded fleet co-simulation end to end.

    ``engine`` picks how the per-pod tasks run (``serial`` or
    ``process``, via :func:`~repro.core.chunks.map_chunks`); ``workers``
    bounds the process pool (default: one worker per pod, capped at the
    CPU count).  ``jobs`` optionally replaces the scenario's synthetic
    stream with any lazy :class:`~repro.workloads.generator.TransferJob`
    iterator, exactly as :func:`run_fleet` accepts.

    With ``n_pods == 1`` the monolithic single-clock path runs instead
    (no windows, no forwarding) and the returned fleet report is bit
    identical to :func:`run_fleet` on the same scenario.
    """
    return _run_bound_sharded(
        plan, _bind_jobs(plan.scenario, jobs=jobs), engine=engine, workers=workers,
    )


def _run_bound_sharded(
    plan: ShardPlan,
    fjobs: Iterable[_FleetJob],
    engine: str = "serial",
    workers: int | None = None,
) -> ShardReport:
    """:func:`run_sharded` over an already-bound fleet-job stream.

    Routes each job to its pod, spools every pod's inputs and runs the
    pods.  Trace replay (:func:`repro.traffic.replay.replay_fleet_sharded`)
    binds its own records and enters here, so a 1M-request day is bound
    once and routed through all cores.
    """
    if engine not in SHARD_ENGINES:
        raise ConfigurationError(
            f"engine must be one of {SHARD_ENGINES}, got {engine!r}"
        )
    scenario = plan.scenario
    started = time.perf_counter()
    if plan.n_pods == 1:
        # Inline run_fleet so the registry snapshot can ride along.
        plane = build_plane(scenario)
        fleet = plane.run(fjobs)
        return ShardReport(
            plan=plan,
            fleet=fleet,
            engine=engine,
            workers=1,
            epochs=0,
            forwarded=0,
            remote_outcomes={},
            pod_rows=(
                _pod_row(0, scenario.spec.n_tracks, scenario.spec.cart_pool,
                         fleet),
            ),
            metrics=plane.registry.snapshot(),
            wall_s=time.perf_counter() - started,
        )
    if engine == "process":
        if workers is None:
            workers = min(plan.n_pods, os.cpu_count() or 1)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
    else:
        workers = 1
    with tempfile.TemporaryDirectory(prefix="repro-shard-") as directory:
        spools, n_jobs = _spool(plan, fjobs, directory)
        if n_jobs == 0:
            raise ConfigurationError("no jobs arrived within the horizon")
        states = map_chunks(
            partial(_run_pods, plan), tuple(enumerate(spools)),
            engine=engine, workers=workers, chunk_size=1,
        )
    fleet, metrics = _merge_states(plan, states)
    remote_outcomes = {
        name[len(REMOTE_OUTCOME_PREFIX):]: _counter_value(metrics, name)
        for name in metrics
        if name.startswith(REMOTE_OUTCOME_PREFIX)
    }
    return ShardReport(
        plan=plan,
        fleet=fleet,
        engine=engine,
        workers=workers,
        epochs=max(state.windows for state in states),
        forwarded=_counter_value(metrics, FORWARDED_COUNTER),
        remote_outcomes=remote_outcomes,
        pod_rows=tuple(
            _pod_row(state.pod_index, plan.track_ranges[state.pod_index][1],
                     plan.cart_shares[state.pod_index], state.report)
            for state in states
        ),
        metrics=metrics,
        wall_s=time.perf_counter() - started,
    )
