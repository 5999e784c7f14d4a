"""Resource probes: turn claim/release traffic into spans and occupancy.

A :class:`ResourceProbe` wraps one counted resource (a tube, a rack's
dock-slot pool) so every grant opens an async ``claim`` span and every
release closes it, with the occupancy level mirrored into a counter
series and a time-weighted registry metric.  Because the probe wraps
``request``/``_release`` at the instance level it sees *every* claim
path — scheduler traffic, recovery re-docks and fault-injector
maintenance windows alike — which is what makes the trace-derived leak
audit (:func:`trace_leaked_resources`) trustworthy.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry
from .tracer import Span, Tracer

CLAIM_SPAN = "claim"
"""Span name used for resource claims (``args['resource']`` keys them)."""


class ResourceProbe:
    """Instruments one Resource-shaped object with claim spans.

    ``name`` should match the resource's key in
    :meth:`~repro.dhlsim.scheduler.DhlSystem.leaked_resources` (e.g.
    ``tube:track-0``, ``slots:1``) so trace audits line up with the
    scheduler's own accounting.
    """

    def __init__(self, resource: Any, tracer: Tracer, name: str,
                 metrics: MetricsRegistry | None = None):
        self.resource = resource
        self.tracer = tracer
        self.name = name
        self._claims: dict[int, Span] = {}
        self._level = (
            metrics.time_weighted(f"occupancy.{name}", initial=resource.count)
            if metrics is not None else None
        )
        original_request = resource.request
        original_release = resource._release
        probe = self

        def probed_request(*args, **kwargs):
            """Wrapped ``request`` that records claim spans."""
            request = original_request(*args, **kwargs)
            if request.triggered:
                probe._granted(request)
            else:
                request.callbacks.append(probe._granted)
            return request

        def probed_release(request) -> None:
            """Wrapped ``release`` that closes the matching claim span."""
            original_release(request)
            probe._released(request)

        resource.request = probed_request  # type: ignore[method-assign]
        resource._release = probed_release  # type: ignore[method-assign]

    def _granted(self, request: Any) -> None:
        if request not in self.resource.users:
            # Released in the instant of its grant (a deadline abort),
            # before this callback ran: there is no claim left to trace,
            # and the release already sampled the occupancy.
            return
        span = self.tracer.span_async(CLAIM_SPAN, track=self.name,
                                      resource=self.name)
        if span.name is not None:  # a real span, not the disabled singleton
            self._claims[id(request)] = span
        self._sample_occupancy()

    def _released(self, request: Any) -> None:
        span = self._claims.pop(id(request), None)
        if span is not None:
            span.end()
        self._sample_occupancy()

    def _sample_occupancy(self) -> None:
        count = self.resource.count
        self.tracer.counter(f"occupancy.{self.name}", count)
        if self._level is not None:
            self._level.set(count)

    @property
    def open_claims(self) -> int:
        """Claims granted but not yet released, per the trace."""
        return len(self._claims)


def open_claim_counts(tracer: Tracer) -> dict[str, int]:
    """Open ``claim`` spans per resource name, derived from the trace."""
    counts: dict[str, int] = {}
    for span in tracer.spans:
        if span.name == CLAIM_SPAN:
            resource = span.args.get("resource", span.track)
            counts.setdefault(resource, 0)
            if span.open:
                counts[resource] += 1
    return counts


def trace_leaked_resources(tracer: Tracer, system: Any) -> dict[str, int]:
    """The trace's answer to :meth:`DhlSystem.leaked_resources`.

    Recomputes the scheduler's leak audit using open claim spans in
    place of live ``Resource.count`` values: tube leaks are open tube
    claims, slot leaks are open slot claims minus docked and
    out-of-service stations.  On a correctly instrumented quiescent
    system this agrees with ``system.leaked_resources()`` exactly.
    """
    open_claims = open_claim_counts(tracer)
    audit: dict[str, int] = {}
    for track in system.tracks:
        key = f"tube:{track.name}"
        audit[key] = open_claims.get(key, 0)
    for endpoint_id, rack in system.racks.items():
        key = f"slots:{endpoint_id}"
        held = open_claims.get(key, 0)
        docked = len(rack.docked_carts)
        out_of_service = sum(
            1 for station in rack.stations if station.out_of_service
        )
        audit[key] = held - docked - out_of_service
    return audit
