"""Open-loop trace replay into the fleet control plane.

The replay path is the whole point of the trace layer: demand arrives
at the control plane *as the DES clock reaches it*, so admission
control, shedding, circuit breakers and caches react to offered load
the way a live fleet would — not to a pre-built job list.

Two bounds keep a 10M-request day in constant memory:

* the control plane's lazy intake pulls the next bound job only after
  submitting the previous one (see ``ControlPlane._start_intake``);
* the :class:`JobBinder` in front of it decodes and binds records one
  chunk of ``chunk_records`` at a time, so at most one chunk of bound
  jobs exists ahead of the clock.  ``peak_pending`` records the largest
  chunk held, the live-object count the traffic bench gates on.

A binary trace reader hands the binder validated numpy row chunks
(:meth:`~repro.traffic.codec.BinaryRecordReader.chunks`), which it binds
column-wise with no per-record :class:`TraceRecord`; any other record
iterable (a synthesis stream, a JSONL reader, a list) is pulled in
slices of the same size and bound from its tuples.

Replay is open-loop: the trace is the offered load, full stop.  Jobs
the fleet sheds do not come back as retries — exactly the
assume-nothing baseline the paper's contention studies need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fleet.shard import ShardPlan, ShardReport

from ..errors import ConfigurationError, ReproError
from ..obs import Tracer
from ..fleet.controlplane import FleetReport, FleetScenario, build_plane
from ..fleet.controlplane import _FleetJob
from ..fleet.sla import DEFAULT_TARGET, ClassTarget, SlaReport
from .schema import TraceHeader, TraceRecord


@dataclass(frozen=True)
class ReplayConfig:
    """How far replay may decode ahead of the DES clock."""

    chunk_records: int = 256
    """Records decoded and bound per chunk: the most records
    materialised ahead of the DES clock."""

    def __post_init__(self) -> None:
        if self.chunk_records < 1:
            raise ConfigurationError(
                f"chunk_records must be >= 1, got {self.chunk_records}"
            )


class JobBinder:
    """Trace records bound to pre-bound fleet jobs, one chunk at a time.

    :meth:`jobs` is the stream of ``_FleetJob``\\ s the control plane's
    intake pulls; each chunk of ``chunk_records`` records is bound in
    one pass when the intake reaches it.  Unlike the synthetic path
    there is no random binding draw: the trace already names dataset,
    tenant and deadline.  Job ids number records in arrival order,
    priorities come from the scenario's targets per kind (so scheduling
    policy and trace stay decoupled) and a read is capped at
    ``cart_bytes``.

    A source with a ``chunks(n)`` method and a ``header`` (a binary
    trace reader) is bound from its validated row columns: names from
    the header tables, priorities from one table per kind id.  Any
    other iterable yields records, already checked by their
    construction, and is bound from their tuples.  Both give
    bit-identical jobs, and both hand out the jobs before a bad record
    before its error propagates.
    """

    def __init__(
        self,
        records: Iterable[TraceRecord],
        targets: dict[str, ClassTarget],
        cart_bytes: float,
        chunk_records: int = ReplayConfig.chunk_records,
        default: ClassTarget = DEFAULT_TARGET,
    ):
        self.records = records
        self.targets = targets
        self.cart_bytes = cart_bytes
        self.chunk_records = chunk_records
        self.default = default
        self.n_records = 0
        """Records bound so far."""
        self.peak_pending = 0
        """Most records in one chunk: the most bound ahead of the clock."""

    def _priority(self, kind: str) -> int:
        return self.targets.get(kind, self.default).priority

    def _row_chunks(self) -> Iterator[list[_FleetJob]]:
        header = self.records.header
        tenants, datasets, kinds = header.tenants, header.datasets, header.kinds
        priorities = [self._priority(kind) for kind in kinds]
        start = 0
        for rows in self.records.chunks(self.chunk_records):
            kind_ids = rows["kind"].tolist()
            sizes = rows["size_bytes"]
            stop = start + len(kind_ids)
            yield list(map(
                _FleetJob,
                range(start, stop),
                rows["arrival_s"].tolist(),
                sizes.tolist(),
                map(kinds.__getitem__, kind_ids),
                map(datasets.__getitem__, rows["dataset"].tolist()),
                sizes.clip(max=self.cart_bytes).tolist(),
                rows["deadline_s"].tolist(),
                map(priorities.__getitem__, kind_ids),
                map(tenants.__getitem__, rows["tenant"].tolist()),
            ))
            start = stop

    def _record_chunks(self) -> Iterator[list[_FleetJob]]:
        priorities: dict[str, int] = {}
        cart = repeat(self.cart_bytes)

        def bind(chunk: list[TraceRecord], start: int) -> list[_FleetJob]:
            arrivals, tenants, datasets, sizes, kinds, deadlines = zip(*chunk)
            for kind in set(kinds).difference(priorities):
                priorities[kind] = self._priority(kind)
            return list(map(
                _FleetJob, range(start, start + len(chunk)), arrivals, sizes,
                kinds, datasets, map(min, sizes, cart), deadlines,
                map(priorities.__getitem__, kinds), tenants,
            ))

        records = iter(self.records)
        start = 0
        while True:
            chunk: list[TraceRecord] = []
            try:
                chunk.extend(islice(records, self.chunk_records))
            except ReproError:
                # The records before a bad one are still handed out.
                if chunk:
                    yield bind(chunk, start)
                raise
            if not chunk:
                return
            yield bind(chunk, start)
            start += len(chunk)

    def _chunks(self) -> Iterator[list[_FleetJob]]:
        chunks = (
            self._row_chunks() if hasattr(self.records, "chunks")
            else self._record_chunks()
        )
        for jobs in chunks:
            self.n_records += len(jobs)
            if len(jobs) > self.peak_pending:
                self.peak_pending = len(jobs)
            yield jobs

    def jobs(self) -> Iterator[_FleetJob]:
        """Every bound job, in arrival order, bound a chunk at a time."""
        return chain.from_iterable(self._chunks())


def bound_jobs(
    records: Iterable[TraceRecord],
    targets: dict[str, ClassTarget],
    cart_bytes: float,
    default: ClassTarget = DEFAULT_TARGET,
) -> Iterator[_FleetJob]:
    """Lazily turn trace records into pre-bound fleet jobs.

    The :class:`JobBinder` stream without its accounting, in chunks of
    the default size.
    """
    return JobBinder(records, targets, cart_bytes, default=default).jobs()


@dataclass(frozen=True)
class ReplayResult:
    """One trace replay: the fleet report plus replay-side accounting."""

    fleet: FleetReport
    n_records: int
    peak_pending: int
    config: ReplayConfig
    wall_s: float
    header: TraceHeader | None = field(default=None)

    @property
    def tenant_sla(self) -> SlaReport:
        if self.fleet.tenant_sla is None:
            raise ConfigurationError(
                "the replay observed no tenants — was the trace empty?"
            )
        return self.fleet.tenant_sla

    @property
    def peak_in_system(self) -> int:
        return self.fleet.peak_in_system


def check_compatible(header: TraceHeader, scenario: FleetScenario) -> None:
    """Fail fast when a trace names datasets the fleet does not serve."""
    known = set(scenario.catalog.names)
    unknown = [name for name in header.datasets if name not in known]
    if unknown:
        raise ConfigurationError(
            f"trace datasets {unknown} are not in the scenario catalog "
            f"({scenario.catalog.n_datasets} datasets)"
        )


def _binder(scenario: FleetScenario, records: Iterable[TraceRecord],
            config: ReplayConfig) -> JobBinder:
    return JobBinder(records, dict(scenario.targets),
                     scenario.catalog.dataset_bytes, config.chunk_records)


def replay_fleet(
    scenario: FleetScenario,
    records: Iterable[TraceRecord],
    config: ReplayConfig | None = None,
    header: TraceHeader | None = None,
    tracer: Tracer | None = None,
) -> ReplayResult:
    """Stream a trace through one fleet built by
    :func:`~repro.fleet.controlplane.build_plane`.

    ``records`` may be a live synthesis stream or a codec reader; either
    way a :class:`JobBinder` consumes it one chunk at a time, straight
    into the plane's intake.  Pass the trace ``header`` when available
    to validate dataset compatibility before the first launch.
    Day-scale traces should use a scenario with ``retain_records=False``
    so SLA accounting stays constant-memory too.
    """
    config = config if config is not None else ReplayConfig()
    if header is not None:
        check_compatible(header, scenario)
    binder = _binder(scenario, records, config)
    started = time.perf_counter()
    report = build_plane(scenario, tracer=tracer).run(binder.jobs())
    return ReplayResult(
        fleet=report,
        n_records=binder.n_records,
        peak_pending=binder.peak_pending,
        config=config,
        wall_s=time.perf_counter() - started,
        header=header,
    )


def replay_fleet_sharded(
    plan: "ShardPlan",
    records: Iterable[TraceRecord],
    config: ReplayConfig | None = None,
    header: TraceHeader | None = None,
    engine: str = "process",
    workers: int | None = None,
) -> tuple[ReplayResult, "ShardReport"]:
    """Stream a trace through the sharded multi-process fleet runner.

    The same chunked :class:`JobBinder` feeds the parent, which routes
    each bound job to its pod and spools every pod's inputs to a file,
    one input window at a time.  So the memory contract is unchanged:
    at most ``chunk_records`` bound records plus one window of bound
    jobs exist in the parent at any moment, and each pod reads its
    spool batch by batch.
    Returns the familiar :class:`ReplayResult` (built from the merged
    fleet report) alongside the full
    :class:`~repro.fleet.shard.ShardReport`.  This is how a 1M-request
    day finally uses every core — see ``docs/scaling.md``.
    """
    from ..fleet.shard import _run_bound_sharded

    config = config if config is not None else ReplayConfig()
    if header is not None:
        check_compatible(header, plan.scenario)
    binder = _binder(plan.scenario, records, config)
    started = time.perf_counter()
    shard_report = _run_bound_sharded(
        plan, binder.jobs(), engine=engine, workers=workers
    )
    result = ReplayResult(
        fleet=shard_report.fleet,
        n_records=binder.n_records,
        peak_pending=binder.peak_pending,
        config=config,
        wall_s=time.perf_counter() - started,
        header=header,
    )
    return result, shard_report
