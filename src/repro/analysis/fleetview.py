"""CLI tables for fleet and traffic runs: policies, SLA, chaos, tenants.

Rendered through the same :func:`repro.analysis.formatting.render_table`
pipeline as the paper tables, so ``repro fleet`` and ``repro chaos``
output sits next to ``repro table6`` output with identical formatting
conventions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..fleet.bench import FleetBenchReport
from ..fleet.capacity import CapacityPlan
from ..fleet.controlplane import FleetReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from typing import Mapping

    from ..chaos.bench import ChaosBenchReport
    from ..fleet.shard import ShardReport
    from ..traffic.bench import TrafficBenchReport
    from ..traffic.replay import ReplayResult


def fleet_policy_table(
    bench: FleetBenchReport,
) -> tuple[list[str], list[list[object]]]:
    """One row per (policy, cache) combo: the headline comparison."""
    headers = [
        "Policy",
        "Cache",
        "Jobs",
        "p50 (s)",
        "p99 (s)",
        "Miss rate",
        "Hit rate",
        "Launches",
        "Launch MJ",
        "Goodput (GB/s)",
    ]
    rows: list[list[object]] = []
    for label, report in bench.reports:
        policy, cache = label.split("+", 1)
        rows.append([
            policy,
            cache,
            report.n_jobs,
            f"{report.sla.overall.p50_s:.1f}",
            f"{report.p99_s:.1f}",
            f"{report.deadline_miss_rate:.1%}",
            f"{report.hit_rate:.1%}" if cache != "none" else "-",
            report.launches,
            f"{report.launch_energy_j / 1e6:.2f}",
            f"{report.goodput_bytes_per_s / 1e9:.1f}",
        ])
    return headers, rows


def fleet_sla_table(report: FleetReport) -> tuple[list[str], list[list[object]]]:
    """Per-traffic-class SLA attainment of one fleet run."""
    headers = [
        "Class",
        "Jobs",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "Miss rate",
        "Goodput (GB/s)",
    ]
    rows: list[list[object]] = []
    for class_sla in (*report.sla.classes, report.sla.overall):
        rows.append([
            class_sla.kind,
            class_sla.n_jobs,
            f"{class_sla.p50_s:.1f}",
            f"{class_sla.p95_s:.1f}",
            f"{class_sla.p99_s:.1f}",
            f"{class_sla.deadline_miss_rate:.1%}",
            f"{class_sla.goodput_bytes_per_s / 1e9:.1f}",
        ])
    return headers, rows


def chaos_mode_table(
    bench: "ChaosBenchReport",
) -> tuple[list[str], list[list[object]]]:
    """One row per chaos bench mode: the graceful-degradation headline."""
    headers = [
        "Mode",
        "Jobs",
        "Served",
        "Failed",
        "Failover",
        "Shed",
        "Diverted",
        "Trips",
        "p99 (s)",
        "Miss rate",
    ]
    rows: list[list[object]] = []
    for mode, report in bench.reports:
        rows.append([
            mode,
            report.n_jobs,
            report.served,
            report.failed,
            report.failovers,
            report.shed,
            report.diverted,
            report.breaker_trips,
            f"{report.p99_s:.1f}",
            f"{report.deadline_miss_rate:.1%}",
        ])
    return headers, rows


def lane_health_table(
    report: FleetReport,
) -> tuple[list[str], list[list[object]]]:
    """Per-lane degradation report: breaker state and fault history."""
    if not report.lane_health:
        raise ConfigurationError(
            "the fleet run had no degradation policy, so no lane health "
            "was recorded"
        )
    headers = [
        "Lane",
        "Breaker",
        "Trips",
        "Fault windows",
        "Serve failures",
        "Diverted",
    ]
    rows: list[list[object]] = []
    for summary in report.lane_health:
        rows.append([
            summary["lane"],
            summary["state"],
            summary["trips"],
            summary["fault_windows"],
            summary["serve_failures"],
            summary["diverted"],
        ])
    return headers, rows


def traffic_synthesis_table(
    bench: "TrafficBenchReport",
) -> tuple[list[str], list[list[object]]]:
    """What the synthesised trace offered: per-tenant demand shares."""
    headers = ["Tenant", "Records", "Share", "Peak req/s", "Zipf alpha"]
    total = max(bench.n_records, 1)
    profiles = {profile.name: profile for profile in bench.spec.tenants}
    rows: list[list[object]] = []
    for name, count in bench.tenant_counts:
        profile = profiles[name]
        rows.append([
            name,
            count,
            f"{count / total:.1%}",
            f"{profile.peak_rate_per_s:.2f}",
            f"{profile.zipf_alpha:.2f}",
        ])
    rows.append([
        "total", bench.n_records, "100.0%", "-", "-",
    ])
    return headers, rows


def traffic_tenant_table(
    result: "ReplayResult",
) -> tuple[list[str], list[list[object]]]:
    """Per-tenant SLA attainment of one trace replay."""
    tenant_sla = result.tenant_sla
    headers = [
        "Tenant",
        "Jobs",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "Miss rate",
        "Goodput (GB/s)",
    ]
    rows: list[list[object]] = []
    for class_sla in (*tenant_sla.classes, tenant_sla.overall):
        rows.append([
            class_sla.kind,
            class_sla.n_jobs,
            f"{class_sla.p50_s:.1f}",
            f"{class_sla.p95_s:.1f}",
            f"{class_sla.p99_s:.1f}",
            f"{class_sla.deadline_miss_rate:.1%}",
            f"{class_sla.goodput_bytes_per_s / 1e9:.1f}",
        ])
    return headers, rows


def shard_pod_table(
    report: "ShardReport",
) -> tuple[list[str], list[list[object]]]:
    """Per-pod accounting of one sharded run, with the merged total."""
    headers = [
        "Pod",
        "Tracks",
        "Carts",
        "Jobs",
        "Served",
        "Shed",
        "Failover",
        "Failed",
        "Makespan (s)",
    ]
    rows: list[list[object]] = []
    for row in report.pod_rows:
        rows.append([
            row["pod"],
            row["tracks"],
            row["carts"],
            row["n_jobs"],
            row["served"],
            row["shed"],
            row["failovers"],
            row["failed"],
            f"{row['makespan_s']:.1f}",
        ])
    fleet = report.fleet
    rows.append([
        "total",
        report.plan.scenario.spec.n_tracks,
        report.plan.scenario.spec.cart_pool,
        fleet.n_jobs,
        fleet.served,
        fleet.shed,
        fleet.failovers,
        fleet.failed,
        f"{fleet.makespan_s:.1f}",
    ])
    return headers, rows


def shard_timing_table(
    payload: "Mapping[str, object]",
) -> tuple[list[str], list[list[object]]]:
    """Engine wall-clock comparison from a ``BENCH_shard.json`` payload.

    Wall times are machine-dependent (informational); the byte-identity
    of the two engines is the part every machine must reproduce.
    """
    timings = dict(payload.get("timings_informational", {}))
    if not timings:
        raise ConfigurationError(
            "the shard payload carries no timings_informational block"
        )
    headers = ["Engine", "Workers", "Wall (s)", "Speedup"]
    rows: list[list[object]] = [
        ["serial", 1, f"{timings['serial_wall_s']:.2f}", "1.00x"],
        [
            "process",
            timings["process_workers"],
            f"{timings['process_wall_s']:.2f}",
            f"{timings['speedup']:.2f}x",
        ],
    ]
    return headers, rows


def capacity_table(plan: CapacityPlan) -> tuple[list[str], list[list[object]]]:
    """Every evaluated candidate, cheapest first, winner marked."""
    if not plan.evaluations:
        raise ConfigurationError("the capacity plan evaluated no candidates")
    headers = [
        "Tracks",
        "Carts",
        "Policy",
        "Cache",
        "p99 (s)",
        "Miss rate",
        "Launch MJ",
        "Feasible",
    ]
    rows: list[list[object]] = []
    for evaluation in plan.evaluations:
        marker = " <- plan" if evaluation == plan.best else ""
        rows.append([
            evaluation.n_tracks,
            evaluation.cart_pool,
            evaluation.policy,
            evaluation.cache_policy,
            f"{evaluation.p99_s:.1f}",
            f"{evaluation.deadline_miss_rate:.1%}",
            f"{evaluation.launch_energy_j / 1e6:.2f}",
            ("yes" if evaluation.feasible else "no") + marker,
        ])
    return headers, rows
