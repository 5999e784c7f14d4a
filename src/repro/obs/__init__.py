"""Observability for the simulators: virtual-time tracing and metrics.

The subsystem has three pieces:

* :mod:`repro.obs.tracer` — span/instant/counter recording stamped with
  the discrete-event clock; zero-cost when disabled.
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` and its
  primitives (``Counter``, ``Gauge``, ``Histogram``,
  ``TimeWeightedValue``), the one metrics path every simulator feeds.
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  structured event-log export.

:mod:`repro.obs.scenarios` (imported lazily by the CLI to avoid
circular imports) runs named, fault-injected scenarios under full
tracing for the ``repro trace`` command.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".export": (
        "event_log", "to_chrome_trace", "validate_chrome_trace", "write_chrome_trace",
        "write_event_log",
    ),
    ".metrics": (
        "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram", "merge_snapshots_additive",
        "MetricsRegistry", "TimeWeightedValue",
    ),
    ".probe": (
        "CLAIM_SPAN", "open_claim_counts", "ResourceProbe", "trace_leaked_resources",
    ),
    ".tracer": (
        "CounterSample", "Instant", "NULL_SPAN", "Span", "span_nesting_violations",
        "TraceLevel", "Tracer",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
