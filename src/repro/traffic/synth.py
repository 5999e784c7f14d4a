"""Seeded trace synthesis: diurnal NHPP demand with flash crowds.

Arrivals are a superposition of non-homogeneous Poisson processes —
one per tenant (a diurnal cosine around its base rate) plus one per
flash crowd (a triangular burst) — realised by **thinning**: each
component draws homogeneous candidates at its peak rate ``lambda_max``
over a window, then keeps each candidate at ``t`` with probability
``lambda(t) / lambda_max``.  Kept arrivals get a traffic class from the
tenant's weights, a dataset from a Zipf draw over the fleet's
:class:`~repro.fleet.topology.DatasetCatalog`, a lognormal size from
the class model, and an absolute deadline from the SLA targets.

Determinism is **window-partitioned**: every ``(seed, component,
window)`` triple owns an independent
:class:`numpy.random.SeedSequence` substream, so a trace is
byte-identical whether windows are synthesised serially, out of order,
or fanned out across :func:`repro.core.sweep.map_chunks` process
workers — the property the fleet's replication layer already relies on
for reports, extended here to demand itself.  Memory is bounded by one
window's records, never the whole day's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Iterator

import numpy as np

from ..core.sweep import map_chunks
from ..errors import ConfigurationError
from ..units import TB, assert_positive
from ..fleet.controlplane import FLEET_TARGETS
from ..fleet.sla import DEFAULT_TARGET, ClassTarget
from ..fleet.topology import DatasetCatalog
from .schema import TraceHeader, TraceRecord

#: One diurnal period.
DAY_S = 86400.0

#: Default synthesis window: fine enough that a 30-minute flash crowd
#: spans several windows, coarse enough that per-window numpy batches
#: stay in the vectorised regime.
DEFAULT_WINDOW_S = 600.0

_integrate = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class DemandClass:
    """Size model for one traffic class of the synthetic demand."""

    name: str
    median_bytes: float
    sigma: float = 0.6

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("class name must be non-empty")
        assert_positive("median_bytes", self.median_bytes)
        assert_positive("sigma", self.sigma)


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's demand: diurnal rate curve + class mix + popularity."""

    name: str
    base_rate_per_s: float
    diurnal_amplitude: float = 0.6
    """Relative swing of the cosine: rate peaks at ``base * (1 + a)``
    and troughs at ``base * (1 - a)``."""
    peak_s: float = 50400.0
    """Time of day the cosine peaks (default 14:00)."""
    class_weights: tuple[tuple[str, float], ...] = ()
    zipf_alpha: float = 1.1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        assert_positive("base_rate_per_s", self.base_rate_per_s)
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ConfigurationError(
                f"diurnal_amplitude must be within [0, 1], got "
                f"{self.diurnal_amplitude}"
            )
        if not self.class_weights:
            raise ConfigurationError(
                f"tenant {self.name!r} needs at least one class weight"
            )
        for kind, weight in self.class_weights:
            if weight <= 0:
                raise ConfigurationError(
                    f"tenant {self.name!r} weight for {kind!r} must be "
                    f"positive, got {weight}"
                )
        assert_positive("zipf_alpha", self.zipf_alpha)

    @property
    def peak_rate_per_s(self) -> float:
        return self.base_rate_per_s * (1.0 + self.diurnal_amplitude)

    def intensity(self, t: np.ndarray) -> np.ndarray:
        """Instantaneous arrival rate at time-of-day ``t`` (vectorised)."""
        phase = 2.0 * np.pi * (np.asarray(t, dtype=float) - self.peak_s) / DAY_S
        return self.base_rate_per_s * (
            1.0 + self.diurnal_amplitude * np.cos(phase)
        )


@dataclass(frozen=True)
class FlashCrowd:
    """A triangular burst on top of one tenant's diurnal demand."""

    tenant: str
    kind: str
    start_s: float
    duration_s: float
    peak_rate_per_s: float
    """Added arrival rate at the burst apex (``start + duration / 2``)."""

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError("flash crowd start_s must be >= 0")
        assert_positive("duration_s", self.duration_s)
        assert_positive("peak_rate_per_s", self.peak_rate_per_s)

    def intensity(self, t: np.ndarray) -> np.ndarray:
        """Triangular added rate at ``t`` (vectorised)."""
        t = np.asarray(t, dtype=float)
        apex = self.start_s + self.duration_s / 2.0
        half = self.duration_s / 2.0
        return self.peak_rate_per_s * np.clip(
            1.0 - np.abs(t - apex) / half, 0.0, None
        )


@dataclass(frozen=True)
class TraceSpec:
    """A complete, picklable description of one synthetic trace."""

    seed: int = 0
    horizon_s: float = DAY_S
    window_s: float = DEFAULT_WINDOW_S
    tenants: tuple[TenantProfile, ...] = ()
    crowds: tuple[FlashCrowd, ...] = ()
    classes: tuple[DemandClass, ...] = ()
    catalog: DatasetCatalog = field(default_factory=DatasetCatalog)
    targets: tuple[tuple[str, ClassTarget], ...] = FLEET_TARGETS

    def __post_init__(self) -> None:
        assert_positive("horizon_s", self.horizon_s)
        assert_positive("window_s", self.window_s)
        if not self.tenants:
            raise ConfigurationError("a trace spec needs at least one tenant")
        if not self.classes:
            raise ConfigurationError("a trace spec needs at least one class")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names: {names}")
        kinds = {demand.name for demand in self.classes}
        for tenant in self.tenants:
            for kind, _ in tenant.class_weights:
                if kind not in kinds:
                    raise ConfigurationError(
                        f"tenant {tenant.name!r} weights unknown class "
                        f"{kind!r}"
                    )
        for crowd in self.crowds:
            if crowd.tenant not in set(names):
                raise ConfigurationError(
                    f"flash crowd names unknown tenant {crowd.tenant!r}"
                )
            if crowd.kind not in kinds:
                raise ConfigurationError(
                    f"flash crowd names unknown class {crowd.kind!r}"
                )

    @property
    def n_windows(self) -> int:
        return int(math.ceil(self.horizon_s / self.window_s))

    def window_bounds(self, index: int) -> tuple[float, float]:
        if not 0 <= index < self.n_windows:
            raise ConfigurationError(
                f"window {index} outside [0, {self.n_windows})"
            )
        start = index * self.window_s
        return start, min(start + self.window_s, self.horizon_s)

    def tenant(self, name: str) -> TenantProfile:
        for profile in self.tenants:
            if profile.name == name:
                return profile
        raise ConfigurationError(f"unknown tenant {name!r}")


def trace_header(spec: TraceSpec) -> TraceHeader:
    """The header a synthesised trace carries: the spec's vocabularies."""
    return TraceHeader(
        seed=spec.seed,
        horizon_s=spec.horizon_s,
        tenants=tuple(tenant.name for tenant in spec.tenants),
        datasets=spec.catalog.names,
        kinds=tuple(demand.name for demand in spec.classes),
    )


#: One arrival component: a tenant's diurnal curve or a crowd's burst.
#: ``kind`` is None for tenants (drawn per record from the weights).
@dataclass(frozen=True)
class _Component:
    index: int
    tenant: TenantProfile
    crowd: FlashCrowd | None

    @property
    def peak_rate_per_s(self) -> float:
        if self.crowd is not None:
            return self.crowd.peak_rate_per_s
        return self.tenant.peak_rate_per_s

    def intensity(self, t: np.ndarray) -> np.ndarray:
        if self.crowd is not None:
            return self.crowd.intensity(t)
        return self.tenant.intensity(t)


def _components(spec: TraceSpec) -> tuple[_Component, ...]:
    parts = [
        _Component(index, tenant, None)
        for index, tenant in enumerate(spec.tenants)
    ]
    for offset, crowd in enumerate(spec.crowds):
        parts.append(_Component(
            len(spec.tenants) + offset, spec.tenant(crowd.tenant), crowd
        ))
    return tuple(parts)


def _class_arrays(
    spec: TraceSpec,
) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """(kind -> id, log-median, sigma, deadline) lookup arrays."""
    ids = {demand.name: index for index, demand in enumerate(spec.classes)}
    log_median = np.array(
        [math.log(demand.median_bytes) for demand in spec.classes]
    )
    sigma = np.array([demand.sigma for demand in spec.classes])
    targets = dict(spec.targets)
    deadline = np.array([
        targets.get(demand.name, DEFAULT_TARGET).deadline_s
        for demand in spec.classes
    ])
    return ids, log_median, sigma, deadline


def synthesise_window(spec: TraceSpec,
                      window_index: int) -> tuple[TraceRecord, ...]:
    """All records of one window, sorted by arrival.

    Module-level and driven by ``(spec, window_index)`` alone, with one
    seeded substream per component, so it is picklable into
    :func:`~repro.core.sweep.map_chunks` workers and byte-identical
    however the windows are scheduled.
    """
    t0, t1 = spec.window_bounds(window_index)
    span = t1 - t0
    kind_ids, log_median, sigma, deadline = _class_arrays(spec)
    kinds = tuple(demand.name for demand in spec.classes)
    datasets = spec.catalog.names
    per_component: list[list[TraceRecord]] = []
    for component in _components(spec):
        rng = np.random.default_rng(
            np.random.SeedSequence([spec.seed, component.index, window_index])
        )
        lam_max = component.peak_rate_per_s
        # Thinning: homogeneous candidates at the component's peak rate,
        # kept with probability intensity(t) / lam_max.  The candidate
        # count, times and acceptance draws are consumed in a fixed
        # order so the substream is a pure function of the triple.
        n_candidates = int(rng.poisson(lam_max * span))
        times = rng.uniform(t0, t1, size=n_candidates)
        keep = rng.random(n_candidates) * lam_max < component.intensity(times)
        times = np.sort(times[keep])
        n = len(times)
        if n == 0:
            per_component.append([])
            continue
        if component.crowd is not None:
            kind_idx = np.full(n, kind_ids[component.crowd.kind])
        else:
            weights = np.array(
                [weight for _, weight in component.tenant.class_weights]
            )
            cumulative = np.cumsum(weights / weights.sum())
            draw = rng.random(n)
            kind_idx = np.searchsorted(cumulative, draw, side="right")
            kind_idx = np.take(
                np.array([kind_ids[kind]
                          for kind, _ in component.tenant.class_weights]),
                np.clip(kind_idx, 0, len(weights) - 1),
            )
        zipf = np.cumsum(spec.catalog.zipf_weights(component.tenant.zipf_alpha))
        dataset_idx = np.clip(
            np.searchsorted(zipf, rng.random(n), side="right"),
            0, len(datasets) - 1,
        )
        sizes = np.exp(
            log_median[kind_idx] + sigma[kind_idx] * rng.standard_normal(n)
        )
        deadlines = times + deadline[kind_idx]
        tenant = component.tenant.name
        per_component.append([
            TraceRecord(arrival, tenant, datasets[dataset], size,
                        kinds[kind], due)
            for arrival, dataset, size, kind, due in zip(
                times.tolist(), dataset_idx.tolist(), sizes.tolist(),
                kind_idx.tolist(), deadlines.tolist(),
            )
        ])
    merged: list[TraceRecord] = [
        record for records in per_component for record in records
    ]
    # Stable sort: equal arrivals keep component order, so the merge is
    # deterministic without comparing beyond the timestamp.
    merged.sort(key=attrgetter("arrival_s"))
    return tuple(merged)


def synthesise(spec: TraceSpec) -> Iterator[TraceRecord]:
    """Stream the whole trace window by window, constant memory."""
    for window_index in range(spec.n_windows):
        yield from synthesise_window(spec, window_index)


def _synthesise_chunk(
    spec: TraceSpec, chunk: tuple[int, ...]
) -> tuple[tuple[TraceRecord, ...], ...]:
    """``map_chunks`` worker: synthesise each window index in ``chunk``."""
    return tuple(synthesise_window(spec, index) for index in chunk)


def synthesise_pooled(
    spec: TraceSpec,
    engine: str = "serial",
    workers: int | None = None,
) -> tuple[TraceRecord, ...]:
    """The whole trace at once, windows fanned out over ``engine``.

    Materialises every record — meant for tests and moderate traces;
    day-scale replay should stream :func:`synthesise` instead.  The
    result is byte-identical across engines and worker counts.
    """
    windows = map_chunks(
        partial(_synthesise_chunk, spec),
        range(spec.n_windows),
        engine=engine,
        workers=workers,
    )
    return tuple(record for window in windows for record in window)


def expected_window_counts(spec: TraceSpec) -> np.ndarray:
    """Expected record count per window: the NHPP intensity integral.

    The reference curve chi-squared-style synthesis tests compare
    realised counts against.
    """
    counts = np.zeros(spec.n_windows)
    components = _components(spec)
    for window_index in range(spec.n_windows):
        t0, t1 = spec.window_bounds(window_index)
        grid = np.linspace(t0, t1, 65)
        counts[window_index] = sum(
            float(_integrate(component.intensity(grid), grid))
            for component in components
        )
    return counts


def expected_records(spec: TraceSpec) -> float:
    """Expected total record count of the spec."""
    return float(expected_window_counts(spec).sum())


def default_spec(
    seed: int = 0,
    horizon_s: float = DAY_S,
    rate_scale: float = 1.0,
    catalog: DatasetCatalog | None = None,
) -> TraceSpec:
    """The headline internet-scale day: three tenants, one flash crowd.

    At ``rate_scale=1.0`` the tenants sum to ~11.6 req/s — almost
    exactly one million requests over a full day — with a 30-minute
    evening flash crowd on the ``search`` tenant adding ~36k more.
    Classes reuse the fleet's rack-read size mix and SLA targets, so a
    replayed trace is directly comparable to the synthetic fleet bench.
    """
    assert_positive("rate_scale", rate_scale)
    return TraceSpec(
        seed=seed,
        horizon_s=horizon_s,
        tenants=(
            TenantProfile(
                name="search",
                base_rate_per_s=6.0 * rate_scale,
                diurnal_amplitude=0.7,
                peak_s=50400.0,
                class_weights=(("interactive", 0.8), ("batch", 0.2)),
                zipf_alpha=1.2,
            ),
            TenantProfile(
                name="analytics",
                base_rate_per_s=4.0 * rate_scale,
                diurnal_amplitude=0.4,
                peak_s=10800.0,
                class_weights=(("batch", 0.7), ("interactive", 0.3)),
                zipf_alpha=0.9,
            ),
            TenantProfile(
                name="backup",
                base_rate_per_s=1.6 * rate_scale,
                diurnal_amplitude=0.9,
                peak_s=14400.0,
                class_weights=(("archive", 0.75), ("batch", 0.25)),
                zipf_alpha=0.6,
            ),
        ),
        crowds=(
            FlashCrowd(
                tenant="search",
                kind="interactive",
                start_s=min(68400.0, max(0.0, horizon_s - 1800.0)),
                duration_s=1800.0,
                peak_rate_per_s=40.0 * rate_scale,
            ),
        ),
        classes=(
            DemandClass("interactive", median_bytes=2 * TB, sigma=0.5),
            DemandClass("batch", median_bytes=6 * TB, sigma=0.6),
            DemandClass("archive", median_bytes=16 * TB, sigma=0.5),
        ),
        catalog=catalog if catalog is not None else DatasetCatalog(),
    )
