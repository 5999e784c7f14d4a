"""The repo's single definition of a latency percentile.

Several studies report tail latencies — the service study
(:mod:`repro.workloads.service`), the multi-stop contention experiment
(:mod:`repro.dhlsim.multistop`) and the fleet SLA tracker
(:mod:`repro.fleet.sla`).  They must agree on what "p95" means, so the
interpolation rule lives here exactly once: linear interpolation between
closest ranks (numpy's ``method="linear"``), computed over the raw
sample list.  ``repro.obs.metrics.Histogram.quantile`` is deliberately
different — it is bucket-resolution for streaming export — and reports
an upper bound, never a tail estimate.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..errors import ConfigurationError

#: The tail points every latency report quotes, in display order.
STANDARD_POINTS: tuple[float, ...] = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    ``q`` is on the 0-100 scale.  With ``n`` sorted samples the rank is
    ``(n - 1) * q / 100``; fractional ranks interpolate linearly between
    the two neighbouring order statistics — identical to
    ``numpy.percentile(values, q)`` with the default method, but
    dependency-free and pinned here as *the* rule.
    """
    return _interpolate(sorted(float(value) for value in values), q)


def percentiles(
    values: Sequence[float],
    points: Iterable[float] = STANDARD_POINTS,
) -> dict[float, float]:
    """Several percentiles of one sample list, keyed by the point.

    Sorting happens once, so quoting p50/p95/p99 together costs one
    ``sort`` rather than three.
    """
    ordered = sorted(float(value) for value in values)
    return {point: _interpolate(ordered, point) for point in points}


def _interpolate(ordered: list[float], q: float) -> float:
    """:func:`percentile` of already sorted float samples."""
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    if not ordered:
        raise ConfigurationError("cannot take a percentile of no samples")
    rank = (len(ordered) - 1) * (q / 100.0)
    lower = int(rank)
    fraction = rank - lower
    if fraction == 0.0:
        return ordered[lower]
    return ordered[lower] + fraction * (ordered[lower + 1] - ordered[lower])


def percentiles_by_class(
    samples: Mapping[str, Sequence[float]],
    points: Iterable[float] = STANDARD_POINTS,
) -> dict[str, dict[float, float]]:
    """Per-class percentiles over a ``{class: samples}`` mapping.

    Classes with no samples are omitted rather than raising, so a report
    over a short run simply lacks rows for classes that saw no traffic.
    """
    wanted = tuple(points)
    return {
        name: percentiles(class_samples, wanted)
        for name, class_samples in samples.items()
        if class_samples
    }
