"""Sweep-engine performance benchmarking: the ``repro bench`` artefact.

The design-space tools promise that every evaluation engine in
:mod:`repro.core.sweep` returns bit-identical reports, and that the
vectorised/parallel paths are substantially faster than the scalar
reference.  This module turns both promises into a measured, committed
artefact: :func:`run_bench` times each engine over a deterministic
design-point grid, checks the results agree exactly, and
:func:`report_payload` is what ``repro bench`` writes to
``BENCH_sweep.json`` — the committed perf-regression baseline.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.params import DhlParams
from ..core.sweep import clear_report_cache, evaluate_reports, report_cache_stats
from ..errors import ConfigurationError
from ..storage.datasets import META_ML_LARGE, Dataset

BENCH_ENGINES: tuple[str, ...] = ("serial", "vector", "process")
"""Engines timed by default, slowest (the reference) first."""

DEFAULT_POINTS: int = 600
"""Default grid size; comfortably above the 500-point acceptance floor."""

DEFAULT_REPEATS: int = 3
"""Timing repeats per engine; the best run is reported."""

SPEEDUP_FLOOR: float = 4.0
"""Minimum accepted best-engine speedup over the scalar reference."""


def bench_points(
    n_points: int = DEFAULT_POINTS,
    base: DhlParams | None = None,
) -> tuple[DhlParams, ...]:
    """A deterministic full-factorial grid of at least ``n_points`` designs.

    Axes mirror the paper's Table VI knobs — top speed, track length,
    cart size and dock time — so the bench exercises the same code paths
    as the real design-space exploration, including both triangular and
    trapezoidal motion profiles.
    """
    if n_points <= 0:
        raise ConfigurationError(f"n_points must be > 0, got {n_points}")
    base = base or DhlParams()
    cart_sizes = (16, 32, 64)
    dock_times = (2.0, 3.0)
    cells = len(cart_sizes) * len(dock_times)
    per_axis = max(2, math.ceil(math.sqrt(n_points / cells)))
    speeds = [
        40.0 + 180.0 * index / (per_axis - 1) for index in range(per_axis)
    ]
    # From 10 m (triangular profiles at the faster speeds) to 2 km.
    lengths = [
        10.0 + 1990.0 * index / (per_axis - 1) for index in range(per_axis)
    ]
    return tuple(
        base.with_(
            max_speed=speed,
            track_length=length,
            ssds_per_cart=ssds,
            dock_time=dock,
            undock_time=dock,
        )
        for speed in speeds
        for length in lengths
        for ssds in cart_sizes
        for dock in dock_times
    )


@dataclass(frozen=True)
class EngineTiming:
    """Wall-clock timings of one engine over the bench grid."""

    engine: str
    runs_s: tuple[float, ...]

    @property
    def best_s(self) -> float:
        return min(self.runs_s)


@dataclass(frozen=True)
class BenchReport:
    """Outcome of one sweep-engine bench: timings plus the identity check."""

    n_points: int
    dataset: str
    repeats: int
    workers: int
    timings: tuple[EngineTiming, ...]
    identical_results: bool
    skipped: tuple[tuple[str, str], ...] = ()
    """(engine, reason) pairs for engines that were not timed."""
    cache_stats: tuple[tuple[str, int], ...] = ()
    """Memo-cache counters from the cache-effectiveness probe, as
    (name, value) pairs: size/hits/misses after a cold pass plus a
    fully warm re-evaluation of the same grid."""

    def timing(self, engine: str) -> EngineTiming:
        for entry in self.timings:
            if entry.engine == engine:
                return entry
        raise ConfigurationError(f"engine {engine!r} was not benched")

    def speedup(self, engine: str, reference: str = "serial") -> float:
        """Best-run speedup of ``engine`` over the scalar reference."""
        return self.timing(reference).best_s / self.timing(engine).best_s

    @property
    def best_engine(self) -> str:
        """The fastest non-reference engine (ties keep bench order)."""
        fastest = min(
            (entry for entry in self.timings if entry.engine != "serial"),
            key=lambda entry: entry.best_s,
        )
        return fastest.engine

    @property
    def best_speedup(self) -> float:
        return self.speedup(self.best_engine)


def run_bench(
    n_points: int = DEFAULT_POINTS,
    dataset: Dataset = META_ML_LARGE,
    engines: Sequence[str] = BENCH_ENGINES,
    repeats: int = DEFAULT_REPEATS,
    workers: int | None = None,
    base: DhlParams | None = None,
) -> BenchReport:
    """Time every engine over the same grid and verify identical results.

    The memo cache is cleared before each run and disabled during it, so
    the timings measure the engines themselves, not cache hits.  The
    first run of each engine is also compared against the scalar
    reference report-for-report.
    """
    if repeats <= 0:
        raise ConfigurationError("repeats must be >= 1")
    if not engines:
        raise ConfigurationError("at least one engine is required")
    if "serial" not in engines:
        raise ConfigurationError("the 'serial' reference engine is required")
    points = bench_points(n_points, base=base)
    n_workers = workers or os.cpu_count() or 1
    skipped: tuple[tuple[str, str], ...] = ()
    if "process" in engines and (os.cpu_count() or 1) == 1 and workers is None:
        # A process pool on one core times scheduler noise plus pickling
        # overhead, not parallel speedup; record the skip instead of
        # committing a junk comparison.  Explicit --workers overrides.
        engines = tuple(engine for engine in engines if engine != "process")
        skipped = (("process", "cpu_count == 1"),)

    timings: list[EngineTiming] = []
    first_results: dict[str, tuple] = {}
    for engine in engines:
        runs: list[float] = []
        for attempt in range(repeats):
            clear_report_cache()
            started = time.perf_counter()
            reports = evaluate_reports(
                points,
                dataset=dataset,
                engine=engine,
                workers=n_workers if engine == "process" else None,
                cache=False,
            )
            runs.append(time.perf_counter() - started)
            if attempt == 0:
                first_results[engine] = reports
        timings.append(EngineTiming(engine=engine, runs_s=tuple(runs)))

    reference = first_results["serial"]
    identical = all(result == reference for result in first_results.values())

    # Cache-effectiveness probe (after the timings, which disable the
    # memo): one cold pass populates the cache, a second pass over the
    # same grid must then be all hits.  The counters land in the bench
    # payload and the fleetview timing table.
    clear_report_cache()
    evaluate_reports(points, dataset=dataset, engine="vector", cache=True)
    evaluate_reports(points, dataset=dataset, engine="vector", cache=True)
    stats = report_cache_stats()
    clear_report_cache()

    return BenchReport(
        n_points=len(points),
        dataset=dataset.name,
        repeats=repeats,
        workers=n_workers,
        timings=tuple(timings),
        identical_results=identical,
        skipped=skipped,
        cache_stats=tuple(sorted(stats.items())),
    )


def report_payload(report: BenchReport) -> dict[str, object]:
    """The JSON-serialisable form of a bench report (``BENCH_sweep.json``)."""
    return {
        "schema": "repro-bench-sweep/1",
        "n_points": report.n_points,
        "dataset": report.dataset,
        "repeats": report.repeats,
        "workers": report.workers,
        "identical_results": report.identical_results,
        "engines": {
            entry.engine: {
                "best_s": round(entry.best_s, 6),
                "runs_s": [round(run, 6) for run in entry.runs_s],
            }
            for entry in report.timings
        },
        "speedup": {
            "best_engine": report.best_engine,
            "best": round(report.best_speedup, 3),
            **{
                entry.engine: round(report.speedup(entry.engine), 3)
                for entry in report.timings
                if entry.engine != "serial"
            },
        },
        "skipped": dict(report.skipped),
        "report_cache_informational": dict(report.cache_stats),
    }


def compare_to_baseline(
    payload: Mapping[str, object],
    baseline: Mapping[str, object],
    ratio_floor: float = 0.5,
) -> list[str]:
    """Regression messages from comparing a fresh bench against a baseline.

    Absolute times are machine-dependent and single runs are noisy, so
    the comparison is on the invariants: results must stay
    bit-identical, the *committed baseline* must demonstrate at least
    :data:`SPEEDUP_FLOOR` over scalar (the headline claim), and the
    fresh speedup must not collapse below ``ratio_floor`` of the
    baseline's — a halving of relative performance flags a regression
    even across machines, while ordinary run-to-run jitter does not.
    """
    problems: list[str] = []
    if not payload.get("identical_results", False):
        problems.append("engines no longer produce identical results")
    speedup = float(payload.get("speedup", {}).get("best", 0.0))
    baseline_speedup = float(baseline.get("speedup", {}).get("best", 0.0))
    if baseline_speedup < SPEEDUP_FLOOR:
        problems.append(
            f"baseline speedup {baseline_speedup:.2f}x is below the "
            f"{SPEEDUP_FLOOR:.1f}x floor"
        )
    if baseline_speedup and speedup < baseline_speedup * ratio_floor:
        problems.append(
            f"best speedup {speedup:.2f}x regressed below "
            f"{ratio_floor:.0%} of the baseline's {baseline_speedup:.2f}x"
        )
    return problems


def bench_table(report: BenchReport) -> tuple[list[str], list[list[object]]]:
    """Headers and rows for the CLI rendering of a bench report."""
    headers = ["Engine", "Best (ms)", "Runs (ms)", "Speedup vs serial"]
    rows: list[list[object]] = []
    for entry in report.timings:
        rows.append([
            entry.engine,
            f"{entry.best_s * 1e3:.2f}",
            " ".join(f"{run * 1e3:.2f}" for run in entry.runs_s),
            f"{report.speedup(entry.engine):.2f}x",
        ])
    return headers, rows


def cache_stats_table(
    report: BenchReport,
) -> tuple[list[str], list[list[object]]]:
    """Headers and rows for the memo-cache probe counters."""
    headers = ["Cache counter", "Value"]
    rows: list[list[object]] = [
        [name, value] for name, value in report.cache_stats
    ]
    return headers, rows
