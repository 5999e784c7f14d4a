"""Closed-form availability and degraded-bandwidth models.

The operational simulator (``repro.dhlsim.reliability``) injects track
breaches and in-tube cart stalls, then *measures* their cost.  This module predicts the same quantities in
closed form so the two can be cross-validated, mirroring how
``repro.core.model`` anchors the fault-free simulator.

The model is the standard alternating-renewal one used for repairable
data-centre components: a component is up for an exponentially
distributed time with mean MTTF, down for a repair time with mean MTTR,
giving steady-state availability ``A = MTTF / (MTTF + MTTR)``.  A
campaign whose bottleneck resource (the tube) is blocked while the
component is down stretches by ``1/A``; independent components in
series multiply.  In-tube stalls do not take the track down but inflate
every shuttle's tube occupancy by the expected stall time, an overhead
factor applied on top of availability.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class RepairableComponent:
    """One repairable component: mean time to failure and to repair."""

    name: str
    mttf_s: float
    mttr_s: float

    def __post_init__(self) -> None:
        if self.mttf_s <= 0:
            raise ConfigurationError(f"mttf_s must be > 0, got {self.mttf_s}")
        if self.mttr_s < 0:
            raise ConfigurationError(f"mttr_s must be >= 0, got {self.mttr_s}")

    @property
    def availability(self) -> float:
        """Steady-state fraction of time the component is up."""
        return self.mttf_s / (self.mttf_s + self.mttr_s)

    @property
    def failure_rate_per_s(self) -> float:
        """Failures per second: the inverse of the MTTF."""
        return 1.0 / self.mttf_s

    def expected_outages(self, duration_s: float) -> float:
        """Expected number of outages over ``duration_s`` of uptime.

        Renewal-reward approximation: one cycle is MTTF up + MTTR down.
        """
        if duration_s < 0:
            raise ConfigurationError(f"duration must be >= 0, got {duration_s}")
        return duration_s / (self.mttf_s + self.mttr_s)

    def expected_downtime(self, duration_s: float) -> float:
        """Expected seconds spent down over a ``duration_s`` window."""
        return self.expected_outages(duration_s) * self.mttr_s


def series_availability(*components: RepairableComponent) -> float:
    """Availability of independent components that must all be up.

    An empty series is perfectly available — the multiplicative identity,
    which lets :class:`AvailabilityModel` degenerate to the fault-free case.
    """
    product = 1.0
    for component in components:
        product *= component.availability
    return product


def stall_overhead(stall_prob: float, stall_time_s: float,
                   shuttle_time_s: float) -> float:
    """Fractional tube-occupancy inflation from in-tube cart stalls.

    Each shuttle stalls with probability ``stall_prob`` for
    ``stall_time_s`` while holding the tube, so the expected occupancy
    per shuttle grows from ``shuttle_time_s`` to
    ``shuttle_time_s + stall_prob * stall_time_s``.
    """
    if not 0.0 <= stall_prob <= 1.0:
        raise ConfigurationError(f"stall_prob must be in [0, 1], got {stall_prob}")
    if stall_time_s < 0:
        raise ConfigurationError(f"stall_time_s must be >= 0, got {stall_time_s}")
    if shuttle_time_s <= 0:
        raise ConfigurationError(
            f"shuttle_time_s must be > 0, got {shuttle_time_s}"
        )
    return stall_prob * stall_time_s / shuttle_time_s


@dataclass(frozen=True)
class AvailabilityModel:
    """Campaign-level degradation: availability x stall overhead.

    ``components`` are the repairable parts the campaign serialises on
    (track tube, docks); ``overhead`` is the fractional per-shuttle
    inflation from stalls (see :func:`stall_overhead`).
    """

    components: tuple[RepairableComponent, ...]
    overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.overhead < 0:
            raise ConfigurationError(f"overhead must be >= 0, got {self.overhead}")

    @property
    def availability(self) -> float:
        """Availability of the whole series chain of components."""
        return series_availability(*self.components)

    @property
    def slowdown(self) -> float:
        """Expected campaign-time inflation factor (>= 1)."""
        return (1.0 + self.overhead) / self.availability

    def effective_time(self, fault_free_time_s: float) -> float:
        """Expected campaign wall-clock under faults."""
        if fault_free_time_s <= 0:
            raise ConfigurationError(
                f"fault_free_time_s must be > 0, got {fault_free_time_s}"
            )
        return fault_free_time_s * self.slowdown

    def effective_bandwidth(self, fault_free_bandwidth: float) -> float:
        """Expected campaign bandwidth under faults, bytes/s."""
        if fault_free_bandwidth <= 0:
            raise ConfigurationError(
                f"fault_free_bandwidth must be > 0, got {fault_free_bandwidth}"
            )
        return fault_free_bandwidth / self.slowdown

    def expected_downtime(self, duration_s: float) -> float:
        """Expected seconds of component downtime over a window."""
        return sum(
            component.expected_downtime(duration_s)
            for component in self.components
        )
