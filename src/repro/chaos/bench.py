"""Chaos benchmarking: the ``repro chaos`` artefact.

Runs the headline fleet scenario three ways on the same seeded
workload and fault schedule and serialises the KPIs to
``BENCH_chaos.json``, a committed baseline CI re-runs and gates on
every push:

``fault_free``
    the plain ``edf+lru`` fleet — byte-identical to the same combo in
    ``BENCH_fleet.json``, pinning that arming the chaos machinery
    without a campaign changes nothing;
``naive``
    the :func:`~repro.chaos.campaigns.default_campaign` pod-storm with
    no degradation machinery: jobs queue behind dead tubes and fail;
``hardened``
    the same storm with lane health monitors, circuit breakers and
    cache rehoming (:class:`~repro.fleet.health.DegradationPolicy`).

Every KPI is a **virtual-time** output of a seeded deterministic
simulation, so the regression gate compares values directly (wall time
is informational only).  The payload pins the PR's headline invariants:
the hardened fleet keeps p99 within :data:`P99_DEGRADATION_BOUND` times
the fault-free p99 through the storm, the naive fleet violates that
bound, and hardening wins on both p99 and deadline-miss rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..fleet.bench import DEFAULT_HORIZON_S, DEFAULT_SEED
from ..fleet.controlplane import FleetReport, default_scenario, run_fleet
from ..fleet.health import DegradationPolicy
from ..fleet.topology import FleetSpec
from .campaigns import CHAOS_SHUTTLE_POLICY, default_campaign

SCHEMA = "repro-bench-chaos/1"

#: The graceful-degradation SLO the gate pins: through the pod-storm
#: campaign the hardened fleet's p99 must stay within this factor of
#: the fault-free p99.  Chosen between the measured ratios (hardened
#: ~2.8x, naive ~6.6x at seed 0) so the invariant separates the two
#: designs rather than merely describing one run.
P99_DEGRADATION_BOUND = 3.0

MODES = ("fault_free", "naive", "hardened")


def chaos_scenario(mode: str, seed: int = DEFAULT_SEED,
                   horizon_s: float = DEFAULT_HORIZON_S):
    """The :class:`~repro.fleet.controlplane.FleetScenario` for one mode."""
    if mode == "fault_free":
        # Deliberately the stock scenario — same object the fleet bench
        # runs — so any divergence from BENCH_fleet's edf+lru combo
        # means the chaos machinery leaked into the fault-free path.
        return default_scenario(policy="edf", cache="lru", seed=seed,
                                horizon_s=horizon_s)
    if mode not in MODES:
        raise ConfigurationError(
            f"unknown chaos bench mode {mode!r}; expected one of {MODES}"
        )
    return default_scenario(
        policy="edf",
        cache="lru",
        seed=seed,
        horizon_s=horizon_s,
        spec=FleetSpec(shuttle_policy=CHAOS_SHUTTLE_POLICY),
        chaos=default_campaign(seed=seed),
        degradation=DegradationPolicy() if mode == "hardened" else None,
    )


@dataclass(frozen=True)
class ChaosBenchReport:
    """The three mode runs of one chaos bench."""

    seed: int
    horizon_s: float
    reports: tuple[tuple[str, FleetReport], ...]
    wall_s: float

    def report(self, mode: str) -> FleetReport:
        for key, report in self.reports:
            if key == mode:
                return report
        raise ConfigurationError(f"mode {mode!r} was not benched")

    @property
    def invariants(self) -> dict[str, bool]:
        """The graceful-degradation gate, as named booleans."""
        fault_free = self.report("fault_free")
        naive = self.report("naive")
        hardened = self.report("hardened")
        bound = P99_DEGRADATION_BOUND * fault_free.p99_s
        return {
            "hardened_p99_within_bound": hardened.p99_s <= bound,
            "naive_p99_violates_bound": naive.p99_s > bound,
            "hardened_beats_naive_p99": hardened.p99_s < naive.p99_s,
            "hardened_beats_naive_miss_rate": (
                hardened.deadline_miss_rate < naive.deadline_miss_rate
            ),
        }


def run_chaos_bench(seed: int = DEFAULT_SEED,
                    horizon_s: float = DEFAULT_HORIZON_S,
                    modes: tuple[str, ...] = MODES) -> ChaosBenchReport:
    """Run every mode on the same seeded workload and fault schedule."""
    if not modes:
        raise ConfigurationError("at least one chaos bench mode is required")
    started = time.perf_counter()
    reports = tuple(
        (mode, run_fleet(chaos_scenario(mode, seed=seed, horizon_s=horizon_s)))
        for mode in modes
    )
    return ChaosBenchReport(
        seed=seed,
        horizon_s=horizon_s,
        reports=reports,
        wall_s=time.perf_counter() - started,
    )


def _kpis(report: FleetReport) -> dict[str, object]:
    """The deterministic per-mode KPIs the regression gate compares."""
    return {
        "n_jobs": report.n_jobs,
        "served": report.served,
        "shed": report.shed,
        "failovers": report.failovers,
        "failed": report.failed,
        "diverted": report.diverted,
        "breaker_trips": report.breaker_trips,
        "rehomed": report.rehomed,
        "p50_s": round(report.sla.overall.p50_s, 3),
        "p95_s": round(report.sla.overall.p95_s, 3),
        "p99_s": round(report.p99_s, 3),
        "deadline_miss_rate": round(report.deadline_miss_rate, 6),
        "goodput_gb_per_s": round(report.goodput_bytes_per_s / 1e9, 3),
        "cache_hit_rate": round(report.hit_rate, 6),
        "launches": report.launches,
        "launch_energy_mj": round(report.launch_energy_j / 1e6, 6),
        "failover_energy_mj": round(report.failover_energy_j / 1e6, 6),
        "makespan_s": round(report.makespan_s, 3),
    }


def report_payload(bench: ChaosBenchReport) -> dict[str, object]:
    """The JSON-serialisable form of a chaos bench (``BENCH_chaos.json``)."""
    return {
        "schema": SCHEMA,
        "seed": bench.seed,
        "horizon_s": bench.horizon_s,
        "p99_degradation_bound": P99_DEGRADATION_BOUND,
        "modes": {mode: _kpis(report) for mode, report in bench.reports},
        "invariants": bench.invariants,
        "wall_s_informational": round(bench.wall_s, 3),
    }
