"""Analytical DHL model: single-launch metrics and bulk-transfer campaigns.

This is the model behind Table VI: the five single-launch metrics
(energy, time, bandwidth, efficiency, peak power) and the 29 PB campaign
comparison against the optical-network routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..network.energy import baseline_transfer_time, fig2_energies
from ..network.routes import FIG2_ROUTES, Route
from ..storage.datasets import Dataset, META_ML_LARGE
from ..units import GB, KJ, KW, TB, ceil_div
from .params import DhlParams
from .physics import (
    brake_codes,
    cart_mass,
    cart_total_mass_kernel,
    launch_energy,
    launch_energy_kernel,
    motion_kernel,
    peak_launch_power,
    peak_power_kernel,
    trip_time,
)


@dataclass(frozen=True)
class LaunchMetrics:
    """Single-launch characterisation of a DHL design point (Table VI middle).

    ``bandwidth`` is the paper's *embodied bandwidth*: cart capacity over
    the full trip time, excluding SSD load/unload and without pipelining.
    """

    params: DhlParams
    energy_j: float
    time_s: float
    bandwidth_bytes_per_s: float
    efficiency_bytes_per_j: float
    peak_power_w: float
    cart_mass_kg: float

    @property
    def energy_kj(self) -> float:
        """Launch energy in kilojoules (Table VI's unit)."""
        return self.energy_j / KJ

    @property
    def bandwidth_tb_per_s(self) -> float:
        """Embodied bandwidth in TB/s (Table VI's unit)."""
        return self.bandwidth_bytes_per_s / TB

    @property
    def efficiency_gb_per_j(self) -> float:
        """Energy efficiency in GB/J (Table VI's unit)."""
        return self.efficiency_bytes_per_j / GB

    @property
    def peak_power_kw(self) -> float:
        """Peak launch power in kilowatts (Table VI's unit)."""
        return self.peak_power_w / KW

    @property
    def average_power_w(self) -> float:
        """Launch energy spread over the trip (~1.75 kW at the default)."""
        return self.energy_j / self.time_s


def launch_metrics(params: DhlParams, profile: str = "paper") -> LaunchMetrics:
    """Evaluate all Table VI single-launch metrics for one design point."""
    energy = launch_energy(params)
    time = trip_time(params, profile)
    capacity = params.storage_per_cart
    return LaunchMetrics(
        params=params,
        energy_j=energy,
        time_s=time,
        bandwidth_bytes_per_s=capacity / time,
        efficiency_bytes_per_j=capacity / energy,
        peak_power_w=peak_launch_power(params),
        cart_mass_kg=cart_mass(params).total_kg,
    )


@dataclass(frozen=True)
class Campaign:
    """A bulk transfer of a dataset over a DHL.

    ``trips`` counts loaded one-way deliveries; ``launches`` includes the
    empty return trips forced by the endpoint's limited docking capacity
    (the paper doubles trips for this).  A dual-rail design, or pipelining
    the returns behind SSD reads, removes the doubling.
    """

    params: DhlParams
    dataset: Dataset
    trips: int
    launches: int
    time_s: float
    energy_j: float

    @property
    def average_power_w(self) -> float:
        """Mean electrical power over the campaign's wall-clock time."""
        return self.energy_j / self.time_s

    @property
    def effective_bandwidth(self) -> float:
        """Dataset size over campaign wall-clock, bytes/s."""
        return self.dataset.size_bytes / self.time_s


def plan_campaign(
    params: DhlParams,
    dataset: Dataset = META_ML_LARGE,
    count_return_trips: bool | None = None,
    profile: str = "paper",
) -> Campaign:
    """Plan a bulk dataset move: trip count, wall-clock time and energy.

    ``count_return_trips`` defaults to the paper's pessimistic accounting
    (True) unless the design point is dual-rail, in which case returns
    overlap with outbound traffic and cost no extra wall-clock launches'
    worth of time — though they still cost energy.
    """
    if count_return_trips is None:
        count_return_trips = not params.dual_rail
    trips = ceil_div(dataset.size_bytes, params.storage_per_cart)
    launches = 2 * trips if count_return_trips else trips
    per_trip_time = trip_time(params, profile)
    per_launch_energy = launch_energy(params)
    if count_return_trips:
        time_s = launches * per_trip_time
        energy_j = launches * per_launch_energy
    else:
        # Dual rail: returns overlap outbound, so wall-clock counts loaded
        # trips only, but every cart still launches home (energy).
        time_s = trips * per_trip_time
        energy_j = 2 * trips * per_launch_energy
    return Campaign(
        params=params,
        dataset=dataset,
        trips=trips,
        launches=launches,
        time_s=time_s,
        energy_j=energy_j,
    )


@dataclass(frozen=True)
class NetworkComparison:
    """DHL vs one optical route for the same dataset move (Table VI right)."""

    route: Route
    network_time_s: float
    network_energy_j: float
    dhl_time_s: float
    dhl_energy_j: float
    time_speedup: float = field(init=False)
    energy_reduction: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "time_speedup", self.network_time_s / self.dhl_time_s)
        object.__setattr__(
            self, "energy_reduction", self.network_energy_j / self.dhl_energy_j
        )


def compare_with_routes(
    campaign: Campaign,
    routes: tuple[Route, ...] = FIG2_ROUTES,
    link_gbps: float = 400.0,
) -> dict[str, NetworkComparison]:
    """Table VI's right block: speedup and energy reduction per route.

    The network baseline is a single ``link_gbps`` link; its time is the
    same for every route (the route only changes power, hence energy).
    """
    if not routes:
        raise ConfigurationError("at least one route is required")
    network_time = baseline_transfer_time(campaign.dataset, link_gbps=link_gbps)
    energies = fig2_energies(campaign.dataset, link_gbps=link_gbps)
    comparisons = {}
    for route in routes:
        route_energy = energies.get(route.name)
        network_energy = (
            route_energy.energy_j
            if route_energy is not None
            else route.power_w * network_time
        )
        comparisons[route.name] = NetworkComparison(
            route=route,
            network_time_s=network_time,
            network_energy_j=network_energy,
            dhl_time_s=campaign.time_s,
            dhl_energy_j=campaign.energy_j,
        )
    return comparisons


@dataclass(frozen=True)
class DesignPointReport:
    """One full Table VI row: launch metrics plus the 29 PB comparison.

    The report stores the *basis* of the route comparison — the shared
    single-link transfer time and each route's energy for the dataset —
    and materialises :class:`NetworkComparison` objects on first access
    to :attr:`comparisons`.  Sweeps that only read metrics or campaign
    columns (Pareto fronts, the optimiser) never pay for building them.
    """

    metrics: LaunchMetrics
    campaign: Campaign
    network_time_s: float
    route_energies: tuple[tuple[Route, float], ...]

    @property
    def comparisons(self) -> dict[str, NetworkComparison]:
        """Per-route speedup/energy-reduction records, built lazily."""
        cached = self.__dict__.get("_comparisons")
        if cached is None:
            cached = {
                route.name: NetworkComparison(
                    route=route,
                    network_time_s=self.network_time_s,
                    network_energy_j=network_energy_j,
                    dhl_time_s=self.campaign.time_s,
                    dhl_energy_j=self.campaign.energy_j,
                )
                for route, network_energy_j in self.route_energies
            }
            object.__setattr__(self, "_comparisons", cached)
        return cached

    @property
    def time_speedup(self) -> float:
        """Speedup vs the single-link transfer (route-independent)."""
        return self.network_time_s / self.campaign.time_s


def _route_energy_basis(
    dataset: Dataset,
    link_gbps: float,
    network_time: float,
    routes: tuple[Route, ...] = FIG2_ROUTES,
) -> tuple[tuple[Route, float], ...]:
    """(route, network energy) pairs for one dataset/link operating point."""
    energies = fig2_energies(dataset, link_gbps=link_gbps)
    return tuple(
        (
            route,
            energies[route.name].energy_j
            if route.name in energies
            else route.power_w * network_time,
        )
        for route in routes
    )


def _check_link_gbps(link_gbps: float) -> None:
    """Reject a link rate no network baseline can be anchored to."""
    if not 0.0 < link_gbps < math.inf:
        raise ConfigurationError(
            f"link_gbps must be finite and > 0, got {link_gbps!r}"
        )


def design_point_report(
    params: DhlParams,
    dataset: Dataset = META_ML_LARGE,
    link_gbps: float = 400.0,
) -> DesignPointReport:
    """Evaluate a design point end to end, as one Table VI row."""
    _check_link_gbps(link_gbps)
    campaign = plan_campaign(params, dataset)
    network_time = baseline_transfer_time(dataset, link_gbps=link_gbps)
    return DesignPointReport(
        metrics=launch_metrics(params),
        campaign=campaign,
        network_time_s=network_time,
        route_energies=_route_energy_basis(dataset, link_gbps, network_time),
    )


# --------------------------------------------------------------------------
# Vectorised batch evaluation
# --------------------------------------------------------------------------
#
# Struct-of-arrays twins of the scalar model, built on the kernels in
# :mod:`repro.core.physics`.  Each batch evaluates every design point in
# a handful of numpy operations instead of one Python call chain per
# point, and reproduces the scalar path bit-for-bit (asserted by
# ``tests/core/test_vector.py``); ``repro.core.sweep`` evaluates every
# sweep with them.


@dataclass(frozen=True)
class _ParamArrays:
    """Column-major view of a sequence of design points."""

    points: tuple[DhlParams, ...]
    max_speed: np.ndarray
    track_length: np.ndarray
    acceleration: np.ndarray
    lim_efficiency: np.ndarray
    handling_time: np.ndarray
    ssd_mass_kg: np.ndarray
    storage_bytes: np.ndarray
    brake_code: np.ndarray
    regen_recovery: np.ndarray
    dual_rail: np.ndarray


def _param_arrays(points: Sequence[DhlParams]) -> _ParamArrays:
    points = tuple(points)
    if not points:
        raise ConfigurationError("at least one design point is required")
    return _ParamArrays(
        points=points,
        max_speed=np.asarray([p.max_speed for p in points], dtype=np.float64),
        track_length=np.asarray([p.track_length for p in points], dtype=np.float64),
        acceleration=np.asarray([p.acceleration for p in points], dtype=np.float64),
        lim_efficiency=np.asarray([p.lim_efficiency for p in points], dtype=np.float64),
        handling_time=np.asarray([p.handling_time for p in points], dtype=np.float64),
        # The per-point products stay in Python floats so they round
        # exactly as CartMass / storage_per_cart do.
        ssd_mass_kg=np.asarray(
            [p.ssds_per_cart * p.ssd_device.mass_kg for p in points], dtype=np.float64
        ),
        storage_bytes=np.asarray([p.storage_per_cart for p in points], dtype=np.float64),
        brake_code=brake_codes([p.braking for p in points]),
        regen_recovery=np.asarray([p.regen_recovery for p in points], dtype=np.float64),
        dual_rail=np.asarray([p.dual_rail for p in points], dtype=bool),
    )


@dataclass(frozen=True)
class MetricsBatch:
    """All Table VI single-launch metrics for a batch of design points.

    Columns are float64 arrays indexed like ``points``; :meth:`rows`
    materialises the equivalent :class:`LaunchMetrics` objects.
    """

    points: tuple[DhlParams, ...]
    energy_j: np.ndarray
    time_s: np.ndarray
    bandwidth_bytes_per_s: np.ndarray
    efficiency_bytes_per_j: np.ndarray
    peak_power_w: np.ndarray
    cart_mass_kg: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def rows(self) -> tuple[LaunchMetrics, ...]:
        """The batch as scalar :class:`LaunchMetrics`, in input order."""
        # Construct through __dict__ rather than the frozen-dataclass
        # __init__: object.__setattr__ per field dominates batch assembly
        # otherwise.  Fields live in the instance __dict__ either way, so
        # equality, hashing and pickling are unaffected.
        energy = self.energy_j.tolist()
        time_s = self.time_s.tolist()
        bandwidth = self.bandwidth_bytes_per_s.tolist()
        efficiency = self.efficiency_bytes_per_j.tolist()
        peak_power = self.peak_power_w.tolist()
        mass = self.cart_mass_kg.tolist()
        rows = []
        for i, params in enumerate(self.points):
            launch = object.__new__(LaunchMetrics)
            launch.__dict__.update(
                params=params,
                energy_j=energy[i],
                time_s=time_s[i],
                bandwidth_bytes_per_s=bandwidth[i],
                efficiency_bytes_per_j=efficiency[i],
                peak_power_w=peak_power[i],
                cart_mass_kg=mass[i],
            )
            rows.append(launch)
        return tuple(rows)


def launch_metrics_batch(
    points: Sequence[DhlParams], profile: str = "paper"
) -> MetricsBatch:
    """Vectorised twin of :func:`launch_metrics` over many design points."""
    cols = _param_arrays(points)
    mass = cart_total_mass_kernel(cols.ssd_mass_kg)
    # Trip time follows the requested profile; energy and peak power are
    # always priced at the paper-profile peak, exactly as the scalar
    # launch_energy / peak_launch_power do.
    paper_peak, accel_time, cruise_time, decel_time = motion_kernel(
        cols.max_speed, cols.track_length, cols.acceleration, "paper"
    )
    if profile != "paper":
        _, accel_time, cruise_time, decel_time = motion_kernel(
            cols.max_speed, cols.track_length, cols.acceleration, profile
        )
    energy = launch_energy_kernel(
        mass, paper_peak, cols.lim_efficiency, cols.brake_code, cols.regen_recovery
    )
    time_s = cols.handling_time + (accel_time + cruise_time + decel_time)
    return MetricsBatch(
        points=cols.points,
        energy_j=energy,
        time_s=time_s,
        bandwidth_bytes_per_s=cols.storage_bytes / time_s,
        efficiency_bytes_per_j=cols.storage_bytes / energy,
        peak_power_w=peak_power_kernel(
            mass, cols.acceleration, paper_peak, cols.lim_efficiency
        ),
        cart_mass_kg=mass,
    )


@dataclass(frozen=True)
class CampaignBatch:
    """Bulk-transfer plans for a batch of design points over one dataset."""

    points: tuple[DhlParams, ...]
    dataset: Dataset
    trips: np.ndarray
    launches: np.ndarray
    time_s: np.ndarray
    energy_j: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def rows(self) -> tuple[Campaign, ...]:
        """The batch as scalar :class:`Campaign` plans, in input order."""
        # Same __dict__ construction as MetricsBatch.rows — see there.
        trips = self.trips.tolist()
        launches = self.launches.tolist()
        time_s = self.time_s.tolist()
        energy = self.energy_j.tolist()
        rows = []
        for i, params in enumerate(self.points):
            campaign = object.__new__(Campaign)
            campaign.__dict__.update(
                params=params,
                dataset=self.dataset,
                trips=trips[i],
                launches=launches[i],
                time_s=time_s[i],
                energy_j=energy[i],
            )
            rows.append(campaign)
        return tuple(rows)


def plan_campaign_batch(
    points: Sequence[DhlParams],
    dataset: Dataset = META_ML_LARGE,
    count_return_trips: bool | None = None,
    profile: str = "paper",
) -> CampaignBatch:
    """Vectorised twin of :func:`plan_campaign` over many design points."""
    cols = _param_arrays(points)
    metrics = launch_metrics_batch(cols.points, profile=profile)
    if count_return_trips is None:
        count_return = ~cols.dual_rail
    else:
        count_return = np.full(len(cols.points), bool(count_return_trips), dtype=bool)
    # Mirror units.ceil_div, including its epsilon guard.
    trips = np.ceil(dataset.size_bytes / cols.storage_bytes - 1e-12).astype(np.int64)
    launches = np.where(count_return, 2 * trips, trips)
    per_trip_time = metrics.time_s
    per_launch_energy = metrics.energy_j
    time_s = np.where(
        count_return, launches * per_trip_time, trips * per_trip_time
    )
    energy_j = np.where(
        count_return,
        launches * per_launch_energy,
        (2 * trips) * per_launch_energy,
    )
    return CampaignBatch(
        points=cols.points,
        dataset=dataset,
        trips=trips,
        launches=launches,
        time_s=time_s,
        energy_j=energy_j,
    )


def design_point_reports(
    points: Sequence[DhlParams],
    dataset: Dataset = META_ML_LARGE,
    link_gbps: float = 400.0,
) -> tuple[DesignPointReport, ...]:
    """Vectorised twin of :func:`design_point_report` over many points.

    The route baseline (network time and Fig. 2 energies) is evaluated
    once for the whole batch — it does not depend on the design point —
    and every report is assembled from the batched kernels.  Output is
    bit-identical to mapping :func:`design_point_report` over ``points``.
    """
    _check_link_gbps(link_gbps)
    metrics = launch_metrics_batch(points)
    campaigns = plan_campaign_batch(metrics.points, dataset)
    network_time = baseline_transfer_time(dataset, link_gbps=link_gbps)
    basis = _route_energy_basis(dataset, link_gbps, network_time)
    reports = []
    for launch, campaign in zip(metrics.rows(), campaigns.rows()):
        report = object.__new__(DesignPointReport)
        report.__dict__.update(
            metrics=launch,
            campaign=campaign,
            network_time_s=network_time,
            route_energies=basis,
        )
        reports.append(report)
    return tuple(reports)
