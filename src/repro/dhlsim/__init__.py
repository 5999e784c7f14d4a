"""Operational DHL simulator: carts, track, docks, library, scheduler, API.

Where :mod:`repro.core` predicts campaign time and energy in closed form,
this package *simulates* the moving parts — tube occupancy, dock slots,
pipelined launches, SSD failures — on the discrete-event engine, so the
two can be cross-validated and schedule-level questions (pipelining,
dual-rail, multi-stop contention) can be answered.
"""

from .api import DhlApi, TransferReport
from .cart import Cart, CartState
from .docking import DockingStation, RackEndpoint
from .faults import FaultInjector, expected_failures_per_campaign
from .library_node import LibraryNode
from .multistop import (
    ContentionReport,
    MultiStopExperiment,
    RequestOutcome,
    TransferRequest,
    speed_contention_sweep,
)
from .policy import DEFAULT_RETRY, NO_RETRY, FailoverPolicy, ShuttlePolicy
from .reliability import (
    CartStallInjector,
    ChaosInjectors,
    ChaosSpec,
    DockOutageInjector,
    LimDegradationInjector,
    RepairableInjector,
    TrackOutageInjector,
    install_chaos,
)
from .scheduler import DhlSystem, ShuttleAttempt
from .timeline import (
    CART_STATE_EVENT,
    Span,
    TimelineEvent,
    TimelineRecorder,
    render_gantt,
    timeline_events,
)
from .track import Endpoint, Track, TrackHealth, build_tracks, default_endpoints, pick_track

__all__ = [
    "CART_STATE_EVENT",
    "Cart",
    "CartState",
    "CartStallInjector",
    "ChaosInjectors",
    "ChaosSpec",
    "ContentionReport",
    "DEFAULT_RETRY",
    "DhlApi",
    "DhlSystem",
    "DockOutageInjector",
    "DockingStation",
    "Endpoint",
    "FailoverPolicy",
    "FaultInjector",
    "LibraryNode",
    "LimDegradationInjector",
    "MultiStopExperiment",
    "NO_RETRY",
    "RackEndpoint",
    "RepairableInjector",
    "RequestOutcome",
    "ShuttleAttempt",
    "ShuttlePolicy",
    "Span",
    "TimelineEvent",
    "TimelineRecorder",
    "Track",
    "TrackHealth",
    "TrackOutageInjector",
    "render_gantt",
    "TransferReport",
    "TransferRequest",
    "build_tracks",
    "default_endpoints",
    "expected_failures_per_campaign",
    "install_chaos",
    "pick_track",
    "speed_contention_sweep",
    "timeline_events",
]
