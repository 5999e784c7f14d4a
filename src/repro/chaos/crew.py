"""A bounded, FIFO repair-crew pool shared by every fault injector.

Without a pool, the track-outage injector of
:mod:`repro.dhlsim.reliability` starts every repair the instant its
fault occurs.  Real maintenance is a finite workforce — when a pod-wide
outage takes three tracks down at once, two of them wait.
:class:`RepairCrewPool` models that: each repair claims a crew from a
capacity-bounded :class:`~repro.sim.resources.Resource` (FIFO by
construction), and the pool keeps an auditable dispatch log so tests
can pin that queued repairs are served in request order and measure how
much saturation stretched the fleet's effective MTTR.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..sim import Environment
from ..sim.resources import Request, Resource


class RepairCrewPool:
    """``crews`` interchangeable repair crews shared across injectors.

    Duck-typed against :attr:`repro.dhlsim.reliability.
    TrackOutageInjector.crew` and the campaign runner's outages: each
    calls :meth:`request` when a fault needs repairing, yields the
    returned event until a crew is free, and calls ``release()`` on it
    when the repair completes.
    """

    def __init__(self, env: Environment, crews: int = 1):
        if crews < 1:
            raise ConfigurationError(f"crews must be >= 1, got {crews}")
        self.env = env
        self.crews = crews
        self._pool = Resource(env, capacity=crews)
        self.requested: list[tuple[float, str]] = []
        """(virtual time, component) in fault order — the arrival log."""
        self.dispatched: list[tuple[float, str]] = []
        """(virtual time, component) in crew-grant order — the service log."""
        self.saturated_waits = 0
        """Repairs that found every crew busy and had to queue."""

    def request(self, component: str) -> Request:
        """Claim a crew for ``component``; fires when one is free."""
        self.requested.append((self.env.now, component))
        claim = self._pool.request()
        if not claim.triggered:
            self.saturated_waits += 1
        claim.callbacks.append(
            lambda _event: self.dispatched.append((self.env.now, component))
        )
        return claim

    @property
    def busy(self) -> int:
        """Crews currently on a repair."""
        return self._pool.count

    @property
    def queued(self) -> int:
        """Repairs waiting for a free crew."""
        return len(self._pool.queue)

    @property
    def fifo_preserved(self) -> bool:
        """Did crews serve components in exactly fault order?

        Holds by construction (the underlying resource queue is FIFO);
        exposed so the saturation tests can assert it directly against
        the logs rather than trusting the implementation.
        """
        return [c for _, c in self.dispatched] == [
            c for _, c in self.requested[: len(self.dispatched)]
        ]
