"""Design-space exploration: the sweep engine (paper Section V-A, Table VI).

Provides the exact 13-row Table VI sweep plus generic sweeps over any
subset of DHL parameters, for ablation benches and the explorer example.

Every sweep routes through :func:`evaluate_reports`, which offers four
interchangeable evaluation engines (all produce bit-identical
:class:`~repro.core.model.DesignPointReport` tuples, in input order):

* ``"serial"`` — one scalar :func:`~repro.core.model.design_point_report`
  call per point; the reference path.
* ``"vector"`` — the numpy batch kernels
  (:func:`~repro.core.model.design_point_reports`); the fast default for
  more than a handful of points.
* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  fan-out over chunks of points, each chunk evaluated with the vector
  kernels inside its worker.  Worth it for very large sweeps on
  multi-core hosts; ``workers``/``chunk_size`` tune it.
* ``"auto"`` — ``"vector"`` above a small size threshold, ``"serial"``
  below it; picks ``"process"`` only when ``workers`` is explicitly set
  above 1.

Results are memoised in a bounded cache keyed on the frozen
``(DhlParams, Dataset, link_gbps)`` triple, so optimiser loops and
repeated benches never re-evaluate a design point.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..storage.datasets import Dataset, META_ML_LARGE
from .model import DesignPointReport, design_point_report, design_point_reports
from .params import DhlParams, table_vi_design_points

ENGINES: tuple[str, ...] = ("auto", "serial", "vector", "process")
"""Recognised values for the ``engine`` argument of every sweep entry point."""

VECTOR_THRESHOLD: int = 8
"""``engine="auto"`` switches from scalar to vector at this batch size."""

REPORT_CACHE_SIZE: int = 4096
"""Bound on memoised reports; least-recently-inserted entries evict first."""

_report_cache: OrderedDict[tuple, DesignPointReport] = OrderedDict()
_cache_hits: int = 0
_cache_misses: int = 0
_cache_evictions: int = 0


def clear_report_cache() -> None:
    """Drop all memoised design-point reports and reset the hit counters."""
    global _cache_hits, _cache_misses, _cache_evictions
    _report_cache.clear()
    _cache_hits = 0
    _cache_misses = 0
    _cache_evictions = 0


def report_cache_stats() -> dict[str, int]:
    """Cache occupancy and hit/miss/eviction counters.

    Surfaced by ``repro bench`` payloads and the fleetview timing
    tables so cache effectiveness is observable, and asserted on by
    the sweep tests.
    """
    return {
        "size": len(_report_cache),
        "hits": _cache_hits,
        "misses": _cache_misses,
        "evictions": _cache_evictions,
    }


def _evaluate_chunk(
    chunk: tuple[DhlParams, ...], dataset: Dataset, link_gbps: float
) -> tuple[DesignPointReport, ...]:
    """Process-pool worker: evaluate one chunk with the vector kernels."""
    return design_point_reports(chunk, dataset=dataset, link_gbps=link_gbps)


def map_chunks(
    chunk_fn: Callable[[tuple], Sequence],
    items: Iterable,
    engine: str = "serial",
    workers: int | None = None,
    chunk_size: int | None = None,
) -> tuple:
    """Map ``chunk_fn`` over ``items`` in chunks, preserving input order.

    The generic engine-dispatch core behind every embarrassingly
    parallel sweep in the repro: the design-point sweep
    (:func:`evaluate_reports`), the fleet capacity planner
    (:mod:`repro.fleet.capacity`), the Monte-Carlo replication harness
    (:mod:`repro.sim.replicate`), windowed trace synthesis
    (:mod:`repro.traffic.synth`) and workload fingerprinting.
    ``chunk_fn`` receives a tuple of items and must return one result
    per item, in order.  ``"serial"`` calls it once in-process over the
    whole tuple; ``"process"`` fans chunks out to a
    :class:`~concurrent.futures.ProcessPoolExecutor` (``chunk_fn`` and
    the items must be picklable — use a module-level function or
    :func:`functools.partial` over one); ``"auto"`` picks ``"process"``
    only when ``workers`` is explicitly above 1.  Both paths
    concatenate chunk results in submission order, so the output is
    identical whichever engine ran it.

    This helper parallelises across *independent* items.  To
    parallelise one large fleet simulation from the inside, use
    :func:`repro.fleet.shard.run_sharded`: it splits the fleet into
    pods that do not depend on each other and maps them over this
    helper, one task per pod.
    """
    item_list = tuple(items)
    if not item_list:
        return ()
    if engine == "auto":
        engine = "process" if (workers is not None and workers > 1) else "serial"
    if engine not in ("serial", "process"):
        raise ConfigurationError(
            f"map_chunks supports engines ('auto', 'serial', 'process'), got {engine!r}"
        )
    if engine == "serial":
        results = tuple(chunk_fn(item_list))
    else:
        from concurrent.futures import ProcessPoolExecutor

        n_workers = workers or os.cpu_count() or 1
        n_workers = max(1, min(n_workers, len(item_list)))
        if chunk_size is None:
            # ~4 chunks per worker keeps the pool busy without tiny tasks.
            chunk_size = max(1, -(-len(item_list) // (4 * n_workers)))
        chunks = [
            item_list[start:start + chunk_size]
            for start in range(0, len(item_list), chunk_size)
        ]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            # Executor.map preserves submission order, so concatenating
            # the chunk results reproduces input order deterministically
            # no matter which worker finished first.
            results = tuple(itertools.chain.from_iterable(pool.map(chunk_fn, chunks)))
    if len(results) != len(item_list):
        raise ConfigurationError(
            f"chunk_fn returned {len(results)} results for {len(item_list)} items"
        )
    return results


def _resolve_engine(engine: str, n_points: int, workers: int | None) -> str:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if engine != "auto":
        return engine
    if workers is not None and workers > 1:
        return "process"
    return "vector" if n_points >= VECTOR_THRESHOLD else "serial"


def _evaluate_unique(
    unique: tuple[DhlParams, ...],
    dataset: Dataset,
    link_gbps: float,
    engine: str,
    workers: int | None,
    chunk_size: int | None,
) -> tuple[DesignPointReport, ...]:
    if engine == "serial":
        return tuple(
            design_point_report(params, dataset=dataset, link_gbps=link_gbps)
            for params in unique
        )
    if engine == "vector":
        return design_point_reports(unique, dataset=dataset, link_gbps=link_gbps)
    # process: fan chunks out via the shared order-preserving dispatcher.
    return map_chunks(
        functools.partial(_evaluate_chunk, dataset=dataset, link_gbps=link_gbps),
        unique,
        engine="process",
        workers=workers,
        chunk_size=chunk_size,
    )


def evaluate_reports(
    points: Iterable[DhlParams],
    dataset: Dataset = META_ML_LARGE,
    link_gbps: float = 400.0,
    engine: str = "auto",
    workers: int | None = None,
    chunk_size: int | None = None,
    cache: bool = True,
) -> tuple[DesignPointReport, ...]:
    """Evaluate a report for every design point, in input order.

    The shared entry point behind :func:`run_sweep`, the optimiser, the
    sensitivity analysis and the benches.  Duplicate points (Table VI
    repeats its default row three times) are evaluated once; with
    ``cache=True`` results also persist across calls in a bounded
    memo keyed on ``(params, dataset, link_gbps)``.
    """
    global _cache_hits, _cache_misses, _cache_evictions
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    point_list = tuple(points)
    if not point_list:
        raise ConfigurationError("no design points supplied")

    resolved: dict[tuple, DesignPointReport] = {}
    keys = [(params, dataset, link_gbps) for params in point_list]
    if cache:
        for key in keys:
            if key in resolved:
                continue
            hit = _report_cache.get(key)
            if hit is not None:
                resolved[key] = hit
                _cache_hits += 1
            else:
                _cache_misses += 1

    missing: list[DhlParams] = []
    seen: set[tuple] = set()
    for key in keys:
        if key not in resolved and key not in seen:
            seen.add(key)
            missing.append(key[0])

    if missing:
        unique = tuple(missing)
        chosen = _resolve_engine(engine, len(unique), workers)
        fresh = _evaluate_unique(
            unique, dataset, link_gbps, chosen, workers, chunk_size
        )
        for params, report in zip(unique, fresh):
            key = (params, dataset, link_gbps)
            resolved[key] = report
            if cache:
                _report_cache[key] = report
                while len(_report_cache) > REPORT_CACHE_SIZE:
                    _report_cache.popitem(last=False)
                    _cache_evictions += 1

    return tuple(resolved[key] for key in keys)


@dataclass(frozen=True)
class SweepResult:
    """All reports from a sweep, in input order."""

    reports: tuple[DesignPointReport, ...]

    def best_by(self, key: Callable[[DesignPointReport], float],
                maximise: bool = True) -> DesignPointReport:
        """The report optimising ``key`` (e.g. efficiency, speedup).

        Ties break deterministically: the first report in input order
        wins, regardless of which engine evaluated the sweep — parallel
        and serial sweeps therefore agree on the winner even when several
        design points share the optimal value.
        """
        if not self.reports:
            raise ConfigurationError("sweep produced no reports")
        best = self.reports[0]
        best_value = key(best)
        for report in self.reports[1:]:
            value = key(report)
            if (value > best_value) if maximise else (value < best_value):
                best = report
                best_value = value
        return best

    def column(self, key: Callable[[DesignPointReport], float]) -> list[float]:
        """Extract one metric across all rows."""
        return [key(report) for report in self.reports]


def run_sweep(
    points: Iterable[DhlParams],
    dataset: Dataset = META_ML_LARGE,
    link_gbps: float = 400.0,
    engine: str = "auto",
    workers: int | None = None,
) -> SweepResult:
    """Evaluate a report for every design point."""
    return SweepResult(reports=evaluate_reports(
        points, dataset=dataset, link_gbps=link_gbps, engine=engine, workers=workers
    ))


def table_vi_sweep(dataset: Dataset = META_ML_LARGE) -> SweepResult:
    """The paper's Table VI: 13 rows in publication order."""
    return run_sweep(table_vi_design_points(), dataset=dataset)


def grid_sweep(
    base: DhlParams = DhlParams(),
    dataset: Dataset = META_ML_LARGE,
    engine: str = "auto",
    workers: int | None = None,
    **axes: Sequence[object],
) -> SweepResult:
    """Full-factorial sweep over named parameter axes.

    >>> result = grid_sweep(max_speed=[100.0, 200.0], track_length=[500.0])
    >>> len(result.reports)
    2
    """
    if not axes:
        raise ConfigurationError("grid_sweep needs at least one axis")
    names = list(axes)
    points = []
    for values in itertools.product(*(axes[name] for name in names)):
        changes = dict(zip(names, values))
        points.append(base.with_(**changes))
    return run_sweep(points, dataset=dataset, engine=engine, workers=workers)


def pareto_front(
    result: SweepResult,
    time_key: Callable[[DesignPointReport], float] | None = None,
    energy_key: Callable[[DesignPointReport], float] | None = None,
) -> list[DesignPointReport]:
    """Non-dominated design points in the (time, energy) plane.

    A point dominates another when it is no worse on both axes and
    strictly better on one — the trade-off frontier the paper discusses
    (speed buys time at the cost of energy).  The dominance test is
    vectorised over the whole sweep.
    """
    if time_key is None:
        time_key = lambda report: report.campaign.time_s  # noqa: E731
    if energy_key is None:
        energy_key = lambda report: report.campaign.energy_j  # noqa: E731
    reports = list(result.reports)
    times = np.asarray([time_key(report) for report in reports], dtype=np.float64)
    energies = np.asarray([energy_key(report) for report in reports], dtype=np.float64)
    # dominated[i] = exists j: t_j <= t_i, e_j <= e_i, strict on one axis.
    # Row-blocked to bound the n^2 comparison matrix for huge sweeps.
    dominated = np.zeros(len(reports), dtype=bool)
    block = 1024
    for start in range(0, len(reports), block):
        stop = min(start + block, len(reports))
        t_block = times[start:stop, None]
        e_block = energies[start:stop, None]
        no_worse = (times[None, :] <= t_block) & (energies[None, :] <= e_block)
        strictly_better = (times[None, :] < t_block) | (energies[None, :] < e_block)
        dominated[start:stop] = np.any(no_worse & strictly_better, axis=1)
    return [report for report, is_dom in zip(reports, dominated) if not is_dom]
