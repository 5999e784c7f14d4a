"""Operational DHL simulator: carts, track, docks, library, scheduler, API.

Where :mod:`repro.core` predicts campaign time and energy in closed form,
this package *simulates* the moving parts — tube occupancy, dock slots,
pipelined launches, SSD failures — on the discrete-event engine, so the
two can be cross-validated and schedule-level questions (pipelining,
dual-rail, multi-stop contention) can be answered.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".api": ("DhlApi", "TransferReport"),
    ".cart": ("Cart", "CartState"),
    ".docking": ("DockingStation", "RackEndpoint"),
    ".faults": ("expected_failures_per_campaign", "FaultInjector"),
    ".library_node": ("LibraryNode",),
    ".multistop": (
        "ContentionReport", "MultiStopExperiment", "RequestOutcome",
        "speed_contention_sweep", "TransferRequest",
    ),
    ".policy": ("DEFAULT_RETRY", "FailoverPolicy", "NO_RETRY", "ShuttlePolicy"),
    ".reliability": (
        "CartStallInjector", "ChaosInjectors", "ChaosSpec", "install_chaos",
        "TrackOutageInjector",
    ),
    ".scheduler": ("DhlSystem", "ShuttleAttempt"),
    ".timeline": (
        "CART_STATE_EVENT", "render_gantt", "Span", "timeline_events", "TimelineEvent",
        "TimelineRecorder",
    ),
    ".track": (
        "build_tracks", "default_endpoints", "Endpoint", "pick_track", "Track",
        "TrackHealth",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
