"""Optical-network transfer timing: serial links and parallel scaling.

The paper's baseline moves 29 PB over a single 400 Gbit/s link in
580 000 s (~6.71 days); parallelising over n links divides the time but
multiplies route power.  This module captures both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError
from ..units import assert_positive, gbps

if TYPE_CHECKING:
    # Only ``route.power_w`` is read, so importing a link never loads
    # the topology and component tables behind the named routes.
    from .routes import Route

DEFAULT_LINK_GBPS: float = 400.0
"""The paper's evaluation baseline link rate."""


@dataclass(frozen=True)
class OpticalLink:
    """A point-to-point optical connection following one route."""

    route: Route
    rate_bytes_per_s: float = gbps(DEFAULT_LINK_GBPS)

    def __post_init__(self) -> None:
        assert_positive("rate_bytes_per_s", self.rate_bytes_per_s)

    def transfer_time(self, n_bytes: float) -> float:
        """Seconds to push ``n_bytes`` through this single link."""
        if n_bytes < 0:
            raise ConfigurationError(f"transfer size must be >= 0, got {n_bytes!r}")
        return n_bytes / self.rate_bytes_per_s

    def transfer_energy(self, n_bytes: float) -> float:
        """Joules consumed by the route while the transfer is in flight."""
        return self.route.power_w * self.transfer_time(n_bytes)

    def efficiency_bytes_per_joule(self) -> float:
        """Steady-state data moved per joule (rate / power)."""
        return self.rate_bytes_per_s / self.route.power_w


@dataclass(frozen=True)
class ParallelLinks:
    """``n`` identical optical links operated side by side.

    ``n`` may be fractional: the paper's Fig. 6 network curves assume "a
    continuous, not quantised number of links for simplicity".
    """

    link: OpticalLink
    n: float = 1.0

    def __post_init__(self) -> None:
        assert_positive("n", self.n)

    @property
    def power_w(self) -> float:
        return self.link.route.power_w * self.n

    @property
    def rate_bytes_per_s(self) -> float:
        return self.link.rate_bytes_per_s * self.n

    def transfer_time(self, n_bytes: float) -> float:
        """Seconds with the dataset striped perfectly over all links."""
        return self.link.transfer_time(n_bytes) / self.n

    def transfer_energy(self, n_bytes: float) -> float:
        """Energy is invariant in n: n links run for 1/n the time."""
        return self.power_w * self.transfer_time(n_bytes)


# --------------------------------------------------------------------------
# Vectorised kernels
# --------------------------------------------------------------------------


def transfer_time_kernel(n_bytes, rate_bytes_per_s) -> np.ndarray:
    """Array twin of :meth:`OpticalLink.transfer_time`.

    Broadcasts transfer sizes against link rates, so one call prices a
    whole sweep of payloads, a whole catalogue of links, or both.
    """
    n_bytes = np.asarray(n_bytes, dtype=np.float64)
    rate = np.asarray(rate_bytes_per_s, dtype=np.float64)
    if np.any(n_bytes < 0):
        raise ConfigurationError("transfer sizes must be >= 0")
    if np.any(rate <= 0):
        raise ConfigurationError("link rates must be > 0")
    return n_bytes / rate


def transfer_energy_kernel(n_bytes, power_w, rate_bytes_per_s) -> np.ndarray:
    """Array twin of :meth:`OpticalLink.transfer_energy`: P x S / rate."""
    power = np.asarray(power_w, dtype=np.float64)
    if np.any(power <= 0):
        raise ConfigurationError("route powers must be > 0")
    return power * transfer_time_kernel(n_bytes, rate_bytes_per_s)


def links_for_power(route: Route, power_budget_w: float,
                    rate_bytes_per_s: float = gbps(DEFAULT_LINK_GBPS)) -> ParallelLinks:
    """The (continuous) number of parallel links a power budget affords."""
    assert_positive("power_budget_w", power_budget_w)
    link = OpticalLink(route=route, rate_bytes_per_s=rate_bytes_per_s)
    return ParallelLinks(link=link, n=power_budget_w / route.power_w)


def links_for_time(route: Route, n_bytes: float, deadline_s: float,
                   rate_bytes_per_s: float = gbps(DEFAULT_LINK_GBPS)) -> ParallelLinks:
    """The (continuous) number of parallel links to finish by a deadline."""
    assert_positive("deadline_s", deadline_s)
    assert_positive("n_bytes", n_bytes)
    link = OpticalLink(route=route, rate_bytes_per_s=rate_bytes_per_s)
    n = link.transfer_time(n_bytes) / deadline_s
    return ParallelLinks(link=link, n=n)


def speedup_links_needed(n_bytes: float, target_time_s: float,
                         rate_bytes_per_s: float = gbps(DEFAULT_LINK_GBPS)) -> float:
    """How much aggregate network speedup a target transfer time demands.

    Reproduces the paper's intro example: compressing the 29 PB / 6.7 day
    transfer into one hour needs a ~161x speedup (to > 64 Tbit/s).
    """
    assert_positive("target_time_s", target_time_s)
    assert_positive("n_bytes", n_bytes)
    return n_bytes / rate_bytes_per_s / target_time_s
