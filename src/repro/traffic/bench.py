"""Traffic benchmarking: the ``repro traffic`` artefact.

Synthesises a scaled-down internet day (same shape as the headline
million-request trace: three tenants, diurnal curves, one flash
crowd), encodes it through the binary codec, replays it open-loop into
the fleet control plane, and serialises the KPIs to
``BENCH_traffic.json`` — the committed baseline CI re-runs and gates
on every push.

As with the fleet bench, every gated KPI is **virtual-time** output of
a seeded deterministic pipeline, so the regression gate compares
values directly; synthesis and replay throughput (events/s) and wall
time are recorded as informational context only.  The payload also
pins the layer's structural invariants as booleans: codec round-trip
identity, the chunk cap on records bound ahead of the clock, and the
admission bound on live jobs — the constant-memory contract.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import ConfigurationError
from ..fleet.cache import CacheConfig
from ..fleet.controlplane import AdmissionControl, FleetScenario
from ..fleet.sla import ClassSla
from .codec import (
    BinaryTraceWriter,
    JsonlTraceWriter,
    read_binary_header,
    read_binary_records,
    read_jsonl_header,
    read_jsonl_records,
)
from .replay import ReplayConfig, ReplayResult, replay_fleet
from .schema import TraceHeader, TraceRecord
from .synth import TraceSpec, default_spec, expected_records, synthesise, trace_header

SCHEMA = "repro-bench-traffic/1"

DEFAULT_SEED = 0
DEFAULT_HORIZON_S = 3600.0
#: Bench-sized request target: big enough that shedding, the flash
#: crowd and the reservoirs all engage, small enough for a CI smoke.
DEFAULT_REQUESTS = 25_000

#: Records round-tripped through both codecs for the identity check.
ROUNDTRIP_SAMPLE = 512

DEFAULT_REPLAY_CONFIG = ReplayConfig(chunk_records=256)


def bench_scenario(spec: TraceSpec, horizon_s: float) -> FleetScenario:
    """The fleet the bench replays into: EDF + LRU, shed past the queue.

    ``failover_links=0`` makes overflow shed instead of queueing on
    optical links, which is what makes the live-job bound of
    :func:`in_system_bound` airtight; ``retain_records=False`` keeps
    SLA accounting constant-memory, the mode any day-scale replay uses.
    """
    return FleetScenario(
        catalog=spec.catalog,
        targets=spec.targets,
        policy="edf",
        cache=CacheConfig(policy="lru"),
        admission=AdmissionControl(max_queue_depth=64, failover_links=0),
        seed=spec.seed,
        horizon_s=horizon_s,
        retain_records=False,
    )


def in_system_bound(scenario: FleetScenario) -> int:
    """Worst-case simultaneously-live jobs under shed-overflow admission.

    Every lane queues at most ``max_queue_depth``, every station serves
    at most one, and one job can transiently sit in ``submit`` before
    the shed decision resolves it.  A run of rows the intake sheds in
    one step counts the same one: each of them would have been that
    transient job in turn, never two at once.
    """
    spec = scenario.spec
    return (
        spec.n_racks * scenario.admission.max_queue_depth
        + spec.total_stations
        + 1
    )


def _roundtrip_identical(header: TraceHeader,
                         sample: list[TraceRecord]) -> bool:
    """Encode + decode the sample through both codecs; demand identity."""
    binary = io.BytesIO()
    writer = BinaryTraceWriter(binary, header)
    for record in sample:
        writer.write(record)
    binary.seek(0)
    from_binary = list(
        read_binary_records(binary, read_binary_header(binary))
    )
    text = io.StringIO()
    jsonl = JsonlTraceWriter(text, header)
    for record in sample:
        jsonl.write(record)
    text.seek(0)
    from_jsonl = list(read_jsonl_records(text, read_jsonl_header(text)))
    return from_binary == sample and from_jsonl == sample


class _StreamMeter:
    """Counts tenants/kinds/bytes of a record stream as it passes."""

    def __init__(self) -> None:
        self.tenant_counts: dict[str, int] = {}
        self.kind_counts: dict[str, int] = {}
        self.offered_bytes = 0.0

    def tap(self, records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
        for record in records:
            self.tenant_counts[record.tenant] = (
                self.tenant_counts.get(record.tenant, 0) + 1
            )
            self.kind_counts[record.kind] = (
                self.kind_counts.get(record.kind, 0) + 1
            )
            self.offered_bytes += record.size_bytes
            yield record


@dataclass(frozen=True)
class TrafficBenchReport:
    """One synthesis + encode + replay pass with its accounting."""

    seed: int
    horizon_s: float
    requests: int
    rate_scale: float
    spec: TraceSpec
    scenario: FleetScenario
    n_records: int
    offered_bytes: float
    trace_bytes: int
    tenant_counts: tuple[tuple[str, int], ...]
    kind_counts: tuple[tuple[str, int], ...]
    synth_wall_s: float
    roundtrip_ok: bool
    result: ReplayResult

    @property
    def in_system_bound(self) -> int:
        return in_system_bound(self.scenario)

    @property
    def invariants(self) -> dict[str, bool]:
        tenant_sla = self.result.fleet.tenant_sla
        return {
            "codec_roundtrip_identical": self.roundtrip_ok,
            "peak_pending_within_cap": (
                self.result.peak_pending <= self.result.config.chunk_records
            ),
            "peak_in_system_bounded": (
                self.result.peak_in_system <= self.in_system_bound
            ),
            "all_records_replayed": (
                self.result.n_records == self.n_records
                and self.result.fleet.n_jobs == self.n_records
            ),
            "every_tenant_accounted": (
                tenant_sla is not None
                and len(tenant_sla.classes) == len(self.spec.tenants)
            ),
        }


def run_traffic_bench(
    seed: int = DEFAULT_SEED,
    horizon_s: float = DEFAULT_HORIZON_S,
    requests: int = DEFAULT_REQUESTS,
    config: ReplayConfig = DEFAULT_REPLAY_CONFIG,
) -> TrafficBenchReport:
    """Synthesise, encode and replay one bench-sized day slice."""
    if requests < 100:
        raise ConfigurationError(
            f"the bench needs >= 100 requests to exercise anything, "
            f"got {requests}"
        )
    base = default_spec(seed=seed, horizon_s=horizon_s, rate_scale=1.0)
    rate_scale = requests / expected_records(base)
    spec = default_spec(seed=seed, horizon_s=horizon_s, rate_scale=rate_scale)
    header = trace_header(spec)

    meter = _StreamMeter()
    encoded = io.BytesIO()
    writer = BinaryTraceWriter(encoded, header)
    sample: list[TraceRecord] = []
    started = time.perf_counter()
    for record in meter.tap(synthesise(spec)):
        if len(sample) < ROUNDTRIP_SAMPLE:
            sample.append(record)
        writer.write(record)
    synth_wall_s = time.perf_counter() - started

    roundtrip_ok = _roundtrip_identical(header, sample)

    encoded.seek(0)
    decoded_header = read_binary_header(encoded)
    scenario = bench_scenario(spec, horizon_s)
    result = replay_fleet(
        scenario,
        read_binary_records(encoded, decoded_header),
        config=config,
        header=decoded_header,
    )
    return TrafficBenchReport(
        seed=seed,
        horizon_s=horizon_s,
        requests=requests,
        rate_scale=rate_scale,
        spec=spec,
        scenario=scenario,
        n_records=writer.count,
        offered_bytes=meter.offered_bytes,
        trace_bytes=encoded.getbuffer().nbytes,
        tenant_counts=tuple(sorted(meter.tenant_counts.items())),
        kind_counts=tuple(sorted(meter.kind_counts.items())),
        synth_wall_s=synth_wall_s,
        roundtrip_ok=roundtrip_ok,
        result=result,
    )


def _sla_kpis(sla: ClassSla) -> dict[str, object]:
    return {
        "n_jobs": sla.n_jobs,
        "n_completed": sla.n_completed,
        "p50_s": round(sla.p50_s, 3),
        "p95_s": round(sla.p95_s, 3),
        "p99_s": round(sla.p99_s, 3),
        "deadline_miss_rate": round(sla.deadline_miss_rate, 6),
        "goodput_gb_per_s": round(sla.goodput_bytes_per_s / 1e9, 3),
    }


def report_payload(bench: TrafficBenchReport) -> dict[str, object]:
    """The JSON-serialisable form (``BENCH_traffic.json``)."""
    fleet = bench.result.fleet
    replay_wall = bench.result.wall_s
    return {
        "schema": SCHEMA,
        "seed": bench.seed,
        "horizon_s": bench.horizon_s,
        "requests_target": bench.requests,
        "rate_scale": round(bench.rate_scale, 9),
        "synthesis": {
            "n_records": bench.n_records,
            "offered_pb": round(bench.offered_bytes / 1e15, 6),
            "trace_mb": round(bench.trace_bytes / 1e6, 6),
            "tenants": {name: count for name, count in bench.tenant_counts},
            "kinds": {name: count for name, count in bench.kind_counts},
            "events_per_s_informational": round(
                bench.n_records / bench.synth_wall_s, 0
            ) if bench.synth_wall_s > 0 else 0.0,
        },
        "replay": {
            "n_jobs": fleet.n_jobs,
            "served": fleet.served,
            "shed": fleet.shed,
            "failovers": fleet.failovers,
            "failed": fleet.failed,
            "p50_s": round(fleet.sla.overall.p50_s, 3),
            "p95_s": round(fleet.sla.overall.p95_s, 3),
            "p99_s": round(fleet.p99_s, 3),
            "deadline_miss_rate": round(fleet.deadline_miss_rate, 6),
            "goodput_gb_per_s": round(fleet.goodput_bytes_per_s / 1e9, 3),
            "cache_hit_rate": round(fleet.hit_rate, 6),
            "launches": fleet.launches,
            "makespan_s": round(fleet.makespan_s, 3),
            "peak_in_system": fleet.peak_in_system,
            "in_system_bound": bench.in_system_bound,
            "peak_pending": bench.result.peak_pending,
            "events_per_s_informational": round(
                fleet.n_jobs / replay_wall, 0
            ) if replay_wall > 0 else 0.0,
        },
        "tenants": {
            sla.kind: _sla_kpis(sla)
            for sla in bench.result.tenant_sla.classes
        },
        "invariants": bench.invariants,
        "wall_s_informational": round(bench.synth_wall_s + replay_wall, 3),
    }
