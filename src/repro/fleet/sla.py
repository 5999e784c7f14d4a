"""Per-traffic-class SLA tracking for fleet runs.

Each resolved (completed, failed or shed) job is observed once by the
:class:`SlaTracker`, which streams it into the fleet's
:class:`~repro.obs.metrics.MetricsRegistry` — latency histograms per
class, outcome counters — and either keeps the job's :class:`JobRecord`
or folds it into streaming accumulators.

Percentiles come from :mod:`repro.core.percentiles`, the same
linear-interpolation rule the service study uses, so "p95" means one
thing across the whole repo.  The registry histograms remain available
for live/streaming views at bucket resolution.

Two retention modes serve two scales.  The default
(``retain_records=True``) keeps every :class:`JobRecord`, so the final
report quotes exact percentiles — right for hour-long fleet studies.
For trace-driven days with millions of requests (:mod:`repro.traffic`),
``retain_records=False`` keeps no records, only constant-memory
accumulators overall, per class and per **tenant** (the multi-tenant
dimension trace replay introduces).  Their counts, goodput bytes and
deadline misses are exact, and latency percentiles come from a
deterministic bounded reservoir that is *also* exact until a class
exceeds ``DEFAULT_SAMPLE_CAP`` completions.  Either way, a tracker, a
merge of sharded trackers and the per-tenant view all report through
one summariser over a :class:`SlaState`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.percentiles import percentiles
from ..errors import ConfigurationError
from ..obs import Counter, Histogram, MetricsRegistry
from ..units import assert_positive

try:
    from enum import StrEnum as _StrEnum
except ImportError:  # pragma: no cover - Python 3.10 fallback
    from enum import Enum

    class _StrEnum(str, Enum):
        __str__ = str.__str__
        __format__ = str.__format__


class Outcome(_StrEnum):
    """Every way a fleet job can end.

    A ``StrEnum`` rather than loose strings so the control plane, the
    chaos degradation reports and the SLA accounting all spell outcomes
    identically — a typo'd outcome is an ``AttributeError`` at the call
    site, not a silently miscounted category.  Members compare and
    serialise as their lowercase string values, so existing reports and
    committed bench baselines are unaffected.
    """

    SERVED = "served"
    FAILOVER = "failover"
    SHED = "shed"
    FAILED = "failed"


#: Histogram bounds for per-class latency (seconds).
LATENCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                   200.0, 500.0, 1000.0, 2000.0, 5000.0)


@dataclass(frozen=True)
class ClassTarget:
    """SLA contract for one traffic class."""

    deadline_s: float
    priority: int = 0
    """EDF tie-breaking rank: lower values are scheduled first."""

    def __post_init__(self) -> None:
        assert_positive("deadline_s", self.deadline_s)


#: Fallback contract for classes without an explicit target.
DEFAULT_TARGET = ClassTarget(deadline_s=3600.0, priority=9)


@dataclass(frozen=True)
class JobRecord:
    """Final accounting for one admitted job."""

    job_id: int
    kind: str
    dataset: str
    arrival_s: float
    deadline_s: float
    """Absolute virtual time by which the job should have completed."""
    read_bytes: float
    outcome: str
    completed_s: float | None = None
    tenant: str = ""
    """Owning tenant for multi-tenant traces; empty for the synthetic
    single-tenant workloads, which keeps their records byte-identical
    to the pre-traffic fleet."""

    @property
    def latency_s(self) -> float:
        if self.completed_s is None:
            raise ConfigurationError(
                f"job {self.job_id} ({self.outcome}) never completed"
            )
        return self.completed_s - self.arrival_s

    @property
    def met_deadline(self) -> bool:
        return (
            self.outcome in (Outcome.SERVED, Outcome.FAILOVER)
            and self.completed_s is not None
            and self.completed_s <= self.deadline_s
        )


@dataclass(frozen=True)
class ClassSla:
    """Measured service of one traffic class (or the whole fleet)."""

    kind: str
    n_jobs: int
    n_completed: int
    p50_s: float
    p95_s: float
    p99_s: float
    deadline_miss_rate: float
    """Fraction of jobs missing their deadline — sheds and failures
    count as misses, so load shedding cannot launder the tail."""
    goodput_bytes_per_s: float
    """Bytes delivered within deadline, per second of horizon."""


@dataclass(frozen=True)
class SlaReport:
    """Per-class and overall SLA outcome of one fleet run."""

    horizon_s: float
    classes: tuple[ClassSla, ...]
    overall: ClassSla

    def for_kind(self, kind: str) -> ClassSla:
        for class_sla in self.classes:
            if class_sla.kind == kind:
                return class_sla
        raise ConfigurationError(f"no SLA data for class {kind!r}")


#: Latency samples retained per class/tenant in streaming mode; the
#: reservoir is exact up to this many completions, sampled beyond.
DEFAULT_SAMPLE_CAP = 8192


class LatencyReservoir:
    """Deterministic bounded reservoir of latency samples (Algorithm R).

    Exact — insertion order preserved, nothing dropped — while ``n``
    stays within ``cap``, so small runs report the same percentiles the
    retained-records path would.  Past the cap each further sample
    replaces a uniformly random slot via a seeded generator, keeping
    the estimate unbiased and the whole thing bit-reproducible for a
    fixed observation order.
    """

    __slots__ = ("cap", "n", "samples", "_rng")

    def __init__(self, cap: int = DEFAULT_SAMPLE_CAP, seed: int = 0):
        if cap <= 0:
            raise ConfigurationError(f"reservoir cap must be >= 1, got {cap}")
        self.cap = cap
        self.n = 0
        self.samples: list[float] = []
        self._rng = np.random.default_rng(seed)

    def observe(self, value: float) -> None:
        """Admit one sample, evicting a random one once full."""
        self.n += 1
        if len(self.samples) < self.cap:
            self.samples.append(value)
            return
        slot = int(self._rng.integers(0, self.n))
        if slot < self.cap:
            self.samples[slot] = value

    @property
    def exact(self) -> bool:
        """Whether the reservoir still holds every observed sample."""
        return self.n <= self.cap


class _StreamStats:
    """Constant-memory accumulator for one class (or tenant, or overall)."""

    __slots__ = ("n_jobs", "n_completed", "misses", "good_bytes", "reservoir")

    def __init__(self, key: str):
        self.n_jobs = 0
        self.n_completed = 0
        self.misses = 0
        self.good_bytes = 0.0
        self.reservoir = LatencyReservoir(DEFAULT_SAMPLE_CAP, _stream_seed(key))

    def observe(self, latency_s: float | None, met_deadline: bool,
                read_bytes: float) -> None:
        """Count one record; ``latency_s`` is ``None`` if it never completed."""
        self.n_jobs += 1
        if latency_s is not None:
            self.n_completed += 1
            self.reservoir.observe(latency_s)
        if not met_deadline:
            self.misses += 1
        else:
            self.good_bytes += read_bytes

    def export(self) -> StreamStatsState:
        return StreamStatsState(
            n_jobs=self.n_jobs,
            n_completed=self.n_completed,
            misses=self.misses,
            good_bytes=self.good_bytes,
            samples=tuple(self.reservoir.samples),
            n_observed=self.reservoir.n,
        )


def _stream_seed(key: str) -> int:
    """Stable per-key reservoir seed (``hash()`` is salted per process)."""
    return zlib.crc32(key.encode("utf-8"))


class SlaTracker:
    """Streams job records into metrics and builds the final report.

    ``retain_records=True`` (the default) keeps every record and quotes
    exact percentiles from them.  ``retain_records=False`` keeps no
    records, only streaming accumulators (overall, per kind and per
    named tenant) with bounded reservoirs, so memory stays constant no
    matter how many jobs flow through — the contract trace replay
    relies on.  Each mode keeps one of the two, and both report through
    :meth:`export_state`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        targets: Mapping[str, ClassTarget],
        default: ClassTarget = DEFAULT_TARGET,
        retain_records: bool = True,
    ):
        self.registry = registry
        self.targets = dict(targets)
        self.default = default
        self.retain_records = retain_records
        self.records: list[JobRecord] = []
        self._by_kind: dict[str, _StreamStats] = {}
        self._by_tenant: dict[str, _StreamStats] = {}
        self._overall = _StreamStats("overall")
        # Streaming mode: the accumulators one (kind, tenant) pair
        # feeds — overall, its kind and (when named) its tenant.
        self._groups: dict[tuple[str, str], tuple[_StreamStats, ...]] = {}
        # Registry handles, fetched on first use so the registry's
        # metric names and creation order match per-record lookups.
        self._counters: dict[str, Counter] = {}
        self._latency_histograms: dict[str, Histogram] = {}

    def target_for(self, kind: str) -> ClassTarget:
        return self.targets.get(kind, self.default)

    def _count(self, suffix: str) -> None:
        counter = self._counters.get(suffix)
        if counter is None:
            counter = self.registry.counter(f"count.fleet.{suffix}")
            self._counters[suffix] = counter
        counter.value += 1.0

    def _stats(self, table: dict[str, _StreamStats], key: str) -> _StreamStats:
        stats = table.get(key)
        if stats is None:
            stats = table[key] = _StreamStats(key)
        return stats

    def _group(self, kind: str, tenant: str) -> tuple[_StreamStats, ...]:
        group = (self._overall, self._stats(self._by_kind, kind))
        if tenant:
            group += (self._stats(self._by_tenant, tenant),)
        self._groups[(kind, tenant)] = group
        return group

    def known_groups(
        self, kinds: Sequence[str], tenants: Sequence[str]
    ) -> list[tuple[_StreamStats, ...] | None]:
        """The streaming group of every (kind, tenant) pair, kind-major.

        A pair no job has resolved yet maps to ``None``: this never
        creates a group.  A pair's first job takes :meth:`observe`,
        which creates its accumulators in the order per-job accounting
        always has; record-less sheds (``ControlPlane._shed_unrecorded``)
        only ever bump groups that already exist.
        """
        groups = self._groups
        return [groups.get((kind, tenant)) for kind in kinds for tenant in tenants]

    def observe(
        self,
        kind: str,
        tenant: str,
        outcome: str,
        arrival_s: float,
        deadline_s: float,
        read_bytes: float,
        completed_s: float | None,
        record: JobRecord | None = None,
    ) -> None:
        """Account one resolved job, given its outcome's fields.

        The fields are those of the job's :class:`JobRecord`, and the
        accounting is exactly what that record's ``latency_s`` and
        ``met_deadline`` imply.  ``record`` itself is only needed — and
        then required — when the tracker retains records.
        """
        if self.retain_records:
            if record is None:
                raise ConfigurationError(
                    "a record-retaining SlaTracker needs the JobRecord"
                )
            self.records.append(record)
        self._count(outcome)
        if completed_s is None:
            latency_s = None
            met = False
        else:
            latency_s = completed_s - arrival_s
            histogram = self._latency_histograms.get(kind)
            if histogram is None:
                histogram = self.registry.histogram(
                    f"fleet.latency_s.{kind}", LATENCY_BUCKETS
                )
                self._latency_histograms[kind] = histogram
            histogram.observe(latency_s)
            met = (completed_s <= deadline_s
                   and outcome in (Outcome.SERVED, Outcome.FAILOVER))
        if not met:
            self._count("deadline_missed")
        if not self.retain_records:
            group = self._groups.get((kind, tenant))
            if group is None:
                group = self._group(kind, tenant)
            if latency_s is None:
                # Never completed: no latency sample and a certain miss.
                for stats in group:
                    stats.n_jobs += 1
                    stats.misses += 1
            else:
                for stats in group:
                    stats.observe(latency_s, met, read_bytes)

    # -- reporting ---------------------------------------------------------------

    def export_state(self) -> SlaState:
        """Snapshot the tracker as a picklable :class:`SlaState`.

        The sharded fleet runner (:mod:`repro.fleet.shard`) exports one
        state per pod, ships them across process boundaries, and folds
        them with :func:`merge_sla_states` — the registry reference is
        deliberately left behind (metrics travel separately as
        snapshots).  A record-retaining tracker exports its records and
        empty accumulators; a streaming one the reverse.
        """
        return SlaState(
            retain_records=self.retain_records,
            records=tuple(self.records),
            by_kind={
                kind: stats.export()
                for kind, stats in sorted(self._by_kind.items())
            },
            by_tenant={
                tenant: stats.export()
                for tenant, stats in sorted(self._by_tenant.items())
            },
            overall=self._overall.export(),
        )

    def report(self, horizon_s: float) -> SlaReport:
        """One :class:`ClassSla` per traffic class, plus ``overall``."""
        return report_from_state(self.export_state(), horizon_s)

    def tenant_report(self, horizon_s: float) -> SlaReport | None:
        """One :class:`ClassSla` per tenant (``None`` if no job had one)."""
        return tenant_report_from_state(self.export_state(), horizon_s)


# -- picklable state, merging and the one summariser -----------------------------


@dataclass(frozen=True)
class StreamStatsState:
    """Frozen snapshot of one :class:`_StreamStats` accumulator.

    ``samples`` carries the reservoir contents in observation order and
    ``n_observed`` the total completions the reservoir has seen, so a
    merge can tell an exact reservoir (``n_observed == len(samples)``)
    from a subsampled one.
    """

    n_jobs: int
    n_completed: int
    misses: int
    good_bytes: float
    samples: tuple[float, ...]
    n_observed: int


@dataclass(frozen=True)
class SlaState:
    """Everything a :class:`SlaTracker` knows, in picklable form.

    One per pod in sharded runs; :func:`merge_sla_states` folds any
    number of them (in pod order) into one fleet-wide state that
    :func:`report_from_state` / :func:`tenant_report_from_state` turn
    into the same :class:`SlaReport` a monolithic tracker would emit.
    """

    retain_records: bool
    records: tuple[JobRecord, ...]
    by_kind: Mapping[str, StreamStatsState]
    by_tenant: Mapping[str, StreamStatsState]
    overall: StreamStatsState


def _merge_streams(key: str, parts: Sequence[StreamStatsState]) -> StreamStatsState:
    """Fold per-pod accumulators for one key, deterministically.

    Counters and byte totals add exactly.  Reservoirs concatenate in
    pod order while together they fit ``DEFAULT_SAMPLE_CAP`` samples,
    which is exactly what one uncapped reservoir would hold.  Beyond
    that, a generator seeded from the key (the :func:`_stream_seed`
    rule per-pod reservoirs use) splits the cap across the pods by a
    multivariate hypergeometric draw over their ``n_observed``, then
    keeps a uniform subset of that size from each pod's reservoir.  The
    result is a uniform sample of every completion the pods observed,
    bit-reproducible for a fixed pod order.
    """
    samples = [sample for part in parts for sample in part.samples]
    if len(samples) > DEFAULT_SAMPLE_CAP:
        rng = np.random.default_rng(_stream_seed(key))
        quotas = rng.multivariate_hypergeometric(
            [part.n_observed for part in parts], DEFAULT_SAMPLE_CAP
        )
        samples = []
        for part, quota in zip(parts, quotas.tolist()):
            keep = rng.choice(len(part.samples), size=quota, replace=False)
            samples.extend(part.samples[index] for index in sorted(keep.tolist()))
    return StreamStatsState(
        n_jobs=sum(part.n_jobs for part in parts),
        n_completed=sum(part.n_completed for part in parts),
        misses=sum(part.misses for part in parts),
        good_bytes=sum(part.good_bytes for part in parts),
        samples=tuple(samples),
        n_observed=sum(part.n_observed for part in parts),
    )


def merge_sla_states(states: Sequence[SlaState]) -> SlaState:
    """Merge per-pod SLA states (in pod order) into one fleet state."""
    if not states:
        raise ConfigurationError("merge_sla_states needs >= 1 state")
    retain_records = states[0].retain_records
    if any(state.retain_records != retain_records for state in states):
        raise ConfigurationError(
            "cannot merge SLA states with mixed retain_records modes"
        )

    def merge_tables(
        tables: Sequence[Mapping[str, StreamStatsState]],
    ) -> dict[str, StreamStatsState]:
        keys = sorted({key for table in tables for key in table})
        return {
            key: _merge_streams(key, [table[key] for table in tables if key in table])
            for key in keys
        }

    return SlaState(
        retain_records=retain_records,
        records=tuple(
            sorted(
                (record for state in states for record in state.records),
                key=lambda record: record.job_id,
            )
        ),
        by_kind=merge_tables([state.by_kind for state in states]),
        by_tenant=merge_tables([state.by_tenant for state in states]),
        overall=_merge_streams("overall", [state.overall for state in states]),
    )


def _fold_records(records: Sequence[JobRecord]) -> StreamStatsState:
    """The state an uncapped accumulator would reach on ``records``."""
    samples = tuple(
        record.latency_s for record in records if record.completed_s is not None
    )
    met = [record for record in records if record.met_deadline]
    return StreamStatsState(
        n_jobs=len(records),
        n_completed=len(samples),
        misses=len(records) - len(met),
        good_bytes=sum((record.read_bytes for record in met), 0.0),
        samples=samples,
        n_observed=len(samples),
    )


def _class_sla(kind: str, stats: StreamStatsState, horizon_s: float) -> ClassSla:
    if stats.samples:
        points = percentiles(stats.samples)
        p50, p95, p99 = points[50.0], points[95.0], points[99.0]
    else:
        # No completions: the tail is unbounded, which reads as
        # infeasible to the capacity planner.
        p50 = p95 = p99 = float("inf")
    return ClassSla(
        kind=kind,
        n_jobs=stats.n_jobs,
        n_completed=stats.n_completed,
        p50_s=p50,
        p95_s=p95,
        p99_s=p99,
        deadline_miss_rate=stats.misses / stats.n_jobs if stats.n_jobs else 0.0,
        goodput_bytes_per_s=stats.good_bytes / horizon_s,
    )


def _report(state: SlaState, horizon_s: float, field: str) -> SlaReport | None:
    """Summarise ``state`` with one row per ``field`` value plus ``overall``.

    ``field`` is ``"kind"`` or ``"tenant"``.  Retained records are
    grouped here; a streaming state carries its groups.  Records without
    a tenant join no tenant row but still count in ``overall``, so the
    two reports reconcile.  With no tenant rows there is no tenant
    report (``None``).
    """
    assert_positive("horizon_s", horizon_s)
    if state.retain_records:
        groups: dict[str, list[JobRecord]] = {}
        for record in state.records:
            key = getattr(record, field)
            if key or field == "kind":
                groups.setdefault(key, []).append(record)
        rows = {key: _fold_records(records) for key, records in groups.items()}
        overall = _fold_records(state.records)
    else:
        rows = state.by_kind if field == "kind" else state.by_tenant
        overall = state.overall
    if field == "tenant" and not rows:
        return None
    return SlaReport(
        horizon_s=horizon_s,
        classes=tuple(_class_sla(key, rows[key], horizon_s) for key in sorted(rows)),
        overall=_class_sla("overall", overall, horizon_s),
    )


def report_from_state(state: SlaState, horizon_s: float) -> SlaReport:
    """The per-class :class:`SlaReport` a tracker with this state emits."""
    return _report(state, horizon_s, "kind")


def tenant_report_from_state(state: SlaState, horizon_s: float) -> SlaReport | None:
    """The per-tenant :class:`SlaReport` (``None`` without tenant rows)."""
    return _report(state, horizon_s, "tenant")
