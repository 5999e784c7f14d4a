"""Open-loop trace replay into the fleet control plane.

The replay path is the whole point of the trace layer: demand arrives
at the control plane *as the DES clock reaches it*, so admission
control, shedding, circuit breakers and caches react to offered load
the way a live fleet would — not to a pre-built job list.

Two bounds keep a 10M-request day in constant memory:

* the control plane's lazy intake holds at most **one** bound job ahead
  of the clock (see ``ControlPlane._start_intake``);
* the :class:`LookaheadCursor` in front of it decodes records in small
  chunks, never buffering more than ``max_pending`` records nor more
  than ``lookahead_s`` of virtual time past the last record it handed
  out.  ``peak_pending`` records the high-water mark, the live-object
  count the traffic bench gates on.

Replay is open-loop: the trace is the offered load, full stop.  Jobs
the fleet sheds do not come back as retries — exactly the
assume-nothing baseline the paper's contention studies need.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fleet.shard import ShardPlan, ShardReport

from ..errors import ConfigurationError
from ..obs import Tracer
from ..fleet.controlplane import FleetReport, FleetScenario, build_plane
from ..fleet.controlplane import _FleetJob
from ..fleet.sla import DEFAULT_TARGET, ClassTarget, SlaReport
from .schema import TraceHeader, TraceRecord


@dataclass(frozen=True)
class ReplayConfig:
    """Bounds on how far replay may decode ahead of the DES clock."""

    max_pending: int = 4096
    """Hard cap on decoded-but-not-yet-injected records."""
    lookahead_s: float = 60.0
    """Virtual-time horizon: never decode past the last injected
    arrival by more than this."""
    chunk_records: int = 256
    """Records decoded per refill — the injection batch size."""

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        if self.lookahead_s <= 0:
            raise ConfigurationError("lookahead_s must be positive")
        if not 1 <= self.chunk_records <= self.max_pending:
            raise ConfigurationError(
                f"chunk_records must be within [1, max_pending="
                f"{self.max_pending}], got {self.chunk_records}"
            )


class LookaheadCursor:
    """Bounded decode-ahead over a streaming record iterator.

    Chunked: a refill decodes up to ``chunk_records`` records at once
    (amortising codec overhead), but stops early at the lookahead
    horizon, carrying the first over-horizon record until the clock
    catches up.  Because the control plane pulls the next record only
    after submitting the previous one, the last record handed out is a
    faithful proxy for the DES clock — no back-reference into the
    environment is needed, which keeps the cursor a plain iterator.
    """

    def __init__(self, records: Iterable[TraceRecord],
                 config: ReplayConfig | None = None):
        self.config = config if config is not None else ReplayConfig()
        self._records = iter(records)
        self._buffer: deque[TraceRecord] = deque()
        self._carry: TraceRecord | None = None
        self._exhausted = False
        self._last_out: float | None = None
        self.n_records = 0
        self.peak_pending = 0

    @property
    def pending(self) -> int:
        """Decoded records waiting for injection (carry included)."""
        return len(self._buffer) + (1 if self._carry is not None else 0)

    def _refill(self) -> None:
        horizon = (
            None if self._last_out is None
            else self._last_out + self.config.lookahead_s
        )
        if self._carry is not None:
            if horizon is not None and self._carry.arrival_s > horizon:
                # Still beyond the window; hand it out alone so the
                # clock can advance to it.
                self._buffer.append(self._carry)
                self._carry = None
                return
            self._buffer.append(self._carry)
            self._carry = None
        while len(self._buffer) < self.config.chunk_records:
            if self._exhausted:
                break
            try:
                record = next(self._records)
            except StopIteration:
                self._exhausted = True
                break
            if (
                horizon is not None
                and record.arrival_s > horizon
                and self._buffer
            ):
                self._carry = record
                break
            self._buffer.append(record)
        if self.pending > self.peak_pending:
            self.peak_pending = self.pending

    def __iter__(self) -> Iterator[TraceRecord]:
        return self

    def __next__(self) -> TraceRecord:
        if not self._buffer:
            self._refill()
        if not self._buffer:
            raise StopIteration
        record = self._buffer.popleft()
        self._last_out = record.arrival_s
        self.n_records += 1
        return record


def bound_jobs(
    records: Iterable[TraceRecord],
    targets: dict[str, ClassTarget],
    cart_bytes: float,
    default: ClassTarget = DEFAULT_TARGET,
) -> Iterator[_FleetJob]:
    """Lazily turn trace records into pre-bound fleet jobs.

    Unlike the synthetic path there is no random binding draw: the
    trace already names dataset, tenant and deadline.  Job ids number
    records in arrival order.  Priorities still come from the
    scenario's targets (looked up once per kind) so scheduling policy
    and trace stay decoupled.  Each record unpacks straight into one
    flat fleet job; the record's own construction already checked
    every field.
    """
    priorities: dict[str, int] = {}
    for job_id, (arrival_s, tenant, dataset, size_bytes, kind,
                 deadline_s) in enumerate(records):
        priority = priorities.get(kind)
        if priority is None:
            priority = priorities[kind] = targets.get(kind, default).priority
        yield _FleetJob(
            job_id, arrival_s, size_bytes, kind, dataset,
            cart_bytes if cart_bytes < size_bytes else size_bytes,
            deadline_s, priority, tenant,
        )


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
    way it is consumed incrementally behind a :class:`LookaheadCursor`
    and bound by :func:`bound_jobs` straight into the plane's intake.
    Pass the trace ``header`` when available to validate dataset
    compatibility before the first launch.  Day-scale traces should use
    a scenario with ``retain_records=False`` so SLA accounting stays
    constant-memory too.
    """
    config = config if config is not None else ReplayConfig()
    if header is not None:
        check_compatible(header, scenario)
    cursor = LookaheadCursor(records, config)
    started = time.perf_counter()
    report = build_plane(scenario, tracer=tracer).run(bound_jobs(
        cursor, dict(scenario.targets), scenario.catalog.dataset_bytes
    ))
    return ReplayResult(
        fleet=report,
        n_records=cursor.n_records,
        peak_pending=cursor.peak_pending,
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

    The same bounded-lookahead cursor feeds the parent, which routes
    each bound job to its pod and spools every pod's inputs to a file,
    one input window at a time.  So the memory contract is unchanged:
    at most ``max_pending`` decoded records plus one window of bound
    jobs exist in the parent at any moment, and each pod reads its
    spool batch by batch.
    Returns the familiar :class:`ReplayResult` (built from the merged
    fleet report) alongside the full
    :class:`~repro.fleet.shard.ShardReport`.  This is how a 1M-request
    day finally uses every core — see ``docs/scaling.md``.
    """
    from ..fleet.shard import _run_bound_sharded

    config = config if config is not None else ReplayConfig()
    scenario = plan.scenario
    if header is not None:
        check_compatible(header, scenario)
    cursor = LookaheadCursor(records, config)
    started = time.perf_counter()
    shard_report = _run_bound_sharded(
        plan,
        bound_jobs(cursor, dict(scenario.targets), scenario.catalog.dataset_bytes),
        engine=engine,
        workers=workers,
    )
    result = ReplayResult(
        fleet=shard_report.fleet,
        n_records=cursor.n_records,
        peak_pending=cursor.peak_pending,
        config=config,
        wall_s=time.perf_counter() - started,
        header=header,
    )
    return result, shard_report
