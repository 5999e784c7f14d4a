"""Fleet-scenario benchmarking: the ``repro fleet`` artefact.

Runs the headline fleet scenario under the policy/cache combinations
that bracket the design space and serialises the per-combo KPIs to
``BENCH_fleet.json``, the committed baseline CI re-runs and gates on
every push.  Unlike the sweep bench (wall-clock timings, machine-dependent),
every KPI here is **virtual-time** output of a seeded deterministic
simulation — so the regression gate compares values directly: any
drift means the simulated system changed, not the machine.  Wall time
is recorded as informational context only.

The payload also pins the PR's headline invariants as booleans:
cache-enabled EDF must beat cache-less FCFS on both p99 latency and
launch energy for the hot-dataset mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ConfigurationError
from .controlplane import FleetReport, _bind_jobs, build_plane, default_scenario

SCHEMA = "repro-bench-fleet/1"

#: (policy, cache) combinations bracketing the fleet design space.
BENCH_COMBOS: tuple[tuple[str, str | None], ...] = (
    ("fcfs", None),
    ("fcfs", "lru"),
    ("edf", None),
    ("edf", "lru"),
)

DEFAULT_HORIZON_S = 3600.0
DEFAULT_SEED = 0


def _combo_label(policy: str, cache: str | None) -> str:
    return f"{policy}+{cache or 'none'}"


@dataclass(frozen=True)
class FleetBenchReport:
    """All combo runs of one fleet bench, keyed by ``policy+cache``."""

    seed: int
    horizon_s: float
    reports: tuple[tuple[str, FleetReport], ...]
    wall_s: float

    def report(self, label: str) -> FleetReport:
        for key, report in self.reports:
            if key == label:
                return report
        raise ConfigurationError(f"combo {label!r} was not benched")

    @property
    def cache_beats_baseline(self) -> tuple[bool, bool]:
        """(p99 wins, launch-energy wins) of edf+lru over fcfs+none."""
        cached = self.report("edf+lru")
        baseline = self.report("fcfs+none")
        return (
            cached.p99_s < baseline.p99_s,
            cached.launch_energy_j < baseline.launch_energy_j,
        )


def run_fleet_bench(
    seed: int = DEFAULT_SEED,
    horizon_s: float = DEFAULT_HORIZON_S,
    combos: tuple[tuple[str, str | None], ...] = BENCH_COMBOS,
) -> FleetBenchReport:
    """Run every combo on the same seeded workload."""
    if not combos:
        raise ConfigurationError("at least one (policy, cache) combo is required")
    started = time.perf_counter()
    # The combos vary only policy and cache, so they share one bound
    # job stream (no run mutates a bound job).
    jobs = tuple(_bind_jobs(default_scenario(seed=seed, horizon_s=horizon_s)))
    reports = tuple(
        (
            _combo_label(policy, cache),
            build_plane(default_scenario(policy=policy, cache=cache, seed=seed,
                                         horizon_s=horizon_s)).run(jobs),
        )
        for policy, cache in combos
    )
    return FleetBenchReport(
        seed=seed,
        horizon_s=horizon_s,
        reports=reports,
        wall_s=time.perf_counter() - started,
    )


def _kpis(report: FleetReport) -> dict[str, object]:
    """The deterministic per-combo KPIs the regression gate compares."""
    return {
        "n_jobs": report.n_jobs,
        "served": report.served,
        "shed": report.shed,
        "failovers": report.failovers,
        "failed": report.failed,
        "p50_s": round(report.sla.overall.p50_s, 3),
        "p95_s": round(report.sla.overall.p95_s, 3),
        "p99_s": round(report.p99_s, 3),
        "deadline_miss_rate": round(report.deadline_miss_rate, 6),
        "goodput_gb_per_s": round(report.goodput_bytes_per_s / 1e9, 3),
        "cache_hit_rate": round(report.hit_rate, 6),
        "cache_evictions": report.cache_evictions,
        "launches": report.launches,
        "launch_energy_mj": round(report.launch_energy_j / 1e6, 6),
        "failover_energy_mj": round(report.failover_energy_j / 1e6, 6),
        "makespan_s": round(report.makespan_s, 3),
    }


def report_payload(bench: FleetBenchReport) -> dict[str, object]:
    """The JSON-serialisable form of a fleet bench (``BENCH_fleet.json``)."""
    p99_wins, energy_wins = bench.cache_beats_baseline
    return {
        "schema": SCHEMA,
        "seed": bench.seed,
        "horizon_s": bench.horizon_s,
        "combos": {label: _kpis(report) for label, report in bench.reports},
        "invariants": {
            "edf_lru_beats_fcfs_none_p99": p99_wins,
            "edf_lru_beats_fcfs_none_launch_energy": energy_wins,
        },
        "wall_s_informational": round(bench.wall_s, 3),
    }
