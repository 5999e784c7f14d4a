"""Design-space exploration: design-point sweeps (paper Section V-A, Table VI).

Provides the exact 13-row Table VI sweep plus generic sweeps over any
subset of DHL parameters, for ablation benches and the explorer example.

Every sweep routes through :func:`evaluate_reports`, which evaluates all
points in one call of the numpy batch kernels
(:func:`~repro.core.model.design_point_reports`).  The scalar
:func:`~repro.core.model.design_point_report` is the reference: the
batch path returns bit-identical reports, in input order, which the
sweep tests check on the 600-point bench grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..storage.datasets import Dataset, META_ML_LARGE
from .model import DesignPointReport, design_point_reports
from .params import DhlParams, table_vi_design_points


def evaluate_reports(
    points: Iterable[DhlParams],
    dataset: Dataset = META_ML_LARGE,
    link_gbps: float = 400.0,
) -> tuple[DesignPointReport, ...]:
    """Evaluate a report for every design point, in input order.

    The shared entry point behind :func:`run_sweep` and the sweep bench.
    """
    point_list = tuple(points)
    if not point_list:
        raise ConfigurationError("no design points supplied")
    return design_point_reports(point_list, dataset=dataset, link_gbps=link_gbps)


@dataclass(frozen=True)
class SweepResult:
    """All reports from a sweep, in input order."""

    reports: tuple[DesignPointReport, ...]

    def best_by(self, key: Callable[[DesignPointReport], float],
                maximise: bool = True) -> DesignPointReport:
        """The report optimising ``key`` (e.g. efficiency, speedup).

        Ties break deterministically: the first report in input order
        wins, so the winner does not depend on how many design points
        share the optimal value.
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
) -> SweepResult:
    """Evaluate a report for every design point."""
    return SweepResult(reports=evaluate_reports(
        points, dataset=dataset, link_gbps=link_gbps
    ))


def table_vi_sweep(dataset: Dataset = META_ML_LARGE) -> SweepResult:
    """The paper's Table VI: 13 rows in publication order."""
    return run_sweep(table_vi_design_points(), dataset=dataset)


def grid_sweep(
    base: DhlParams = DhlParams(),
    dataset: Dataset = META_ML_LARGE,
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
    return run_sweep(points, dataset=dataset)


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
