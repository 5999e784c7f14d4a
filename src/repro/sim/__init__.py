"""Discrete-event simulation engine (simpy substitute, offline-friendly).

Provides the process-oriented core the DHL operational simulator and the
distributed-ML simulator are built on: an event loop with virtual time,
generator-based processes, timeouts, interrupts, condition events, a
FIFO :class:`Resource` and a FIFO :class:`Store`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".engine": (
        "AllOf", "AnyOf", "Condition", "Environment", "Event", "Interrupt", "PENDING",
        "Process", "Timeout",
    ),
    ".resources": ("Request", "Resource", "Store"),
    "..obs.metrics": ("TimeWeightedValue",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
