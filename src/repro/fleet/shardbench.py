"""Sharded-fleet benchmarking: the ``repro bench --mode shard`` artefact.

Runs the 10× ``BENCH_fleet`` topology (20 tracks, 60 carts, a
120-dataset catalog) under 4× its design load through the sharded
runner, once with the ``serial`` engine and once with the ``process``
engine, and serialises the results to ``BENCH_shard.json``.

Two things are gated:

* **Determinism** — the serial and process runs must produce
  byte-identical merged :class:`~repro.fleet.controlplane.FleetReport`
  signatures (compared as SHA-256 digests of the canonical rendering),
  on every machine, always.
* **Speedup** — the process engine must beat the serial engine by
  ``SPEEDUP_TARGET``× wall-clock, asserted only where it is measurable
  (``cpu_count >= n_pods``); single-core machines record the skip in
  the payload the same way ``BENCH_sweep.json`` does.

Virtual-time KPIs are deterministic and compared exactly against the
committed baseline; wall-clock numbers are informational except for the
conditional speedup invariant.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from .bench import _kpis
from .controlplane import FLEET_MIX, FleetScenario, default_scenario
from .shard import ShardPlan, ShardReport, run_sharded, signature_digest
from .topology import DatasetCatalog, FleetSpec

SCHEMA = "repro-bench-shard/1"

DEFAULT_SEED = 0
DEFAULT_HORIZON_S = 3600.0
DEFAULT_N_PODS = 4
#: Forwarding latency W for the bench plan; each pod steps its inputs
#: in 60 s windows.
DEFAULT_WINDOW_S = 60.0
#: Traffic multiplier over :data:`~repro.fleet.controlplane.FLEET_MIX`.
#: 40× the base mix over 10× the tracks is 4× the per-track design
#: load — a saturation stress that keeps every pod busy all run.
DEFAULT_RATE_MULTIPLIER = 40.0
#: Required process-over-serial wall-clock win where cores allow it.
SPEEDUP_TARGET = 3.0


def bench_scenario(
    seed: int = DEFAULT_SEED,
    horizon_s: float = DEFAULT_HORIZON_S,
    rate_multiplier: float = DEFAULT_RATE_MULTIPLIER,
) -> FleetScenario:
    """The 10× ``BENCH_fleet`` topology under ``rate_multiplier``× load."""
    scenario = default_scenario(
        spec=FleetSpec(n_tracks=20, cart_pool=60),
        catalog=DatasetCatalog(n_datasets=120, hot_count=20),
        seed=seed,
        horizon_s=horizon_s,
    )
    classes = tuple(
        replace(klass, rate_per_hour=klass.rate_per_hour * rate_multiplier)
        for klass in FLEET_MIX
    )
    return replace(scenario, classes=classes)


def bench_plan(
    seed: int = DEFAULT_SEED,
    horizon_s: float = DEFAULT_HORIZON_S,
    n_pods: int = DEFAULT_N_PODS,
    interpod_latency_s: float = DEFAULT_WINDOW_S,
) -> ShardPlan:
    """The committed bench plan: 4 pods of 5 tracks, 60 s windows."""
    return ShardPlan(
        scenario=bench_scenario(seed=seed, horizon_s=horizon_s),
        n_pods=n_pods,
        interpod_latency_s=interpod_latency_s,
    )


@dataclass(frozen=True)
class ShardBenchReport:
    """Both engine runs of one shard bench, plus the identity verdict."""

    plan: ShardPlan
    serial: ShardReport
    process: ShardReport
    serial_digest: str
    process_digest: str
    wall_s: float

    @property
    def identical(self) -> bool:
        """Whether the two engines produced byte-identical reports."""
        return self.serial_digest == self.process_digest

    @property
    def speedup(self) -> float:
        """Process-over-serial wall-clock ratio (>1 means process wins)."""
        return (
            self.serial.wall_s / self.process.wall_s
            if self.process.wall_s > 0
            else float("inf")
        )


def run_shard_bench(
    seed: int = DEFAULT_SEED,
    horizon_s: float = DEFAULT_HORIZON_S,
    n_pods: int = DEFAULT_N_PODS,
    interpod_latency_s: float = DEFAULT_WINDOW_S,
    workers: int | None = None,
) -> ShardBenchReport:
    """Run the bench plan on both engines and digest the reports."""
    plan = bench_plan(
        seed=seed,
        horizon_s=horizon_s,
        n_pods=n_pods,
        interpod_latency_s=interpod_latency_s,
    )
    started = time.perf_counter()
    serial = run_sharded(plan, engine="serial")
    process = run_sharded(plan, engine="process", workers=workers)
    return ShardBenchReport(
        plan=plan,
        serial=serial,
        process=process,
        serial_digest=signature_digest(serial.fleet),
        process_digest=signature_digest(process.fleet),
        wall_s=time.perf_counter() - started,
    )


def report_payload(bench: ShardBenchReport) -> dict[str, object]:
    """The JSON-serialisable form of a shard bench (``BENCH_shard.json``)."""
    plan = bench.plan
    cpu_count = os.cpu_count() or 1
    speedup_measurable = cpu_count >= plan.n_pods
    skipped: dict[str, str] = {}
    invariants: dict[str, bool] = {
        "serial_process_identical": bench.identical,
        "forwarded_equals_remote_outcomes": (
            bench.serial.forwarded
            == sum(bench.serial.remote_outcomes.values())
        ),
        "every_job_resolved": (
            bench.serial.fleet.n_jobs
            == sum(row["n_jobs"] for row in bench.serial.pod_rows)
        ),
    }
    if speedup_measurable:
        invariants[f"process_speedup_ge_{SPEEDUP_TARGET:g}x"] = (
            bench.speedup >= SPEEDUP_TARGET
        )
    else:
        skipped["speedup"] = f"cpu_count == {cpu_count} < n_pods == {plan.n_pods}"
    return {
        "schema": SCHEMA,
        "seed": plan.scenario.seed,
        "horizon_s": plan.scenario.horizon_s,
        "n_pods": plan.n_pods,
        "n_tracks": plan.scenario.spec.n_tracks,
        "cart_pool": plan.scenario.spec.cart_pool,
        "interpod_latency_s": plan.interpod_latency_s,
        "epochs": bench.serial.epochs,
        "kpis": _kpis(bench.serial.fleet),
        "shards": {
            "forwarded": bench.serial.forwarded,
            "remote_outcomes": dict(
                sorted(bench.serial.remote_outcomes.items())
            ),
            "pod_jobs": list(bench.serial.pod_jobs),
            "track_ranges": [list(r) for r in plan.track_ranges],
            "cart_shares": list(plan.cart_shares),
        },
        "identity": {
            "serial_sha256": bench.serial_digest,
            "process_sha256": bench.process_digest,
        },
        "invariants": invariants,
        "skipped": skipped,
        "timings_informational": {
            "serial_wall_s": round(bench.serial.wall_s, 3),
            "process_wall_s": round(bench.process.wall_s, 3),
            "process_workers": bench.process.workers,
            "speedup": round(bench.speedup, 3),
        },
    }
