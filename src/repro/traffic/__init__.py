"""Trace-driven internet-scale demand for the DHL fleet.

The north star asks for "heavy traffic from millions of users"; this
package is that demand layer.  It has four parts, each usable alone:

* :mod:`~repro.traffic.schema` — a compact, versioned trace record
  (arrival, tenant, dataset, bytes, class, deadline) with a
  self-describing header;
* :mod:`~repro.traffic.codec` — JSONL and packed-binary codecs with
  constant-memory streaming readers and writers, so a 10M-request day
  never lives in RAM;
* :mod:`~repro.traffic.synth` — seeded synthesis: diurnal
  non-homogeneous Poisson arrivals via thinning, superimposed
  flash-crowd bursts, Zipf popularity over the fleet's dataset
  catalog, multi-tenant class mixes — byte-identical however its
  windows are scheduled;
* :mod:`~repro.traffic.replay` — an open-loop adapter that feeds a
  trace into the fleet control plane incrementally on the DES clock,
  bound one chunk of records at a time, with per-tenant SLA accounting
  surfaced through the fleet report.

``repro traffic`` (see :mod:`repro.cli`) runs the benchmark pipeline
end to end and gates it against the committed ``BENCH_traffic.json``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".schema": (
        "JSONL_SCHEMA", "monotone", "TRACE_MAGIC", "TRACE_SCHEMA_VERSION",
        "TraceHeader", "TraceRecord",
    ),
    ".codec": (
        "BinaryTraceWriter", "FORMATS", "JsonlTraceWriter", "read_binary_header",
        "read_binary_records", "read_jsonl_header", "read_jsonl_records", "read_trace",
        "RECORD_STRUCT", "write_trace",
    ),
    ".synth": (
        "DAY_S", "default_spec", "DEFAULT_WINDOW_S", "DemandClass", "expected_records",
        "expected_window_counts", "FlashCrowd", "synthesise", "synthesise_window",
        "TenantProfile", "trace_header", "TraceSpec",
    ),
    ".replay": (
        "bound_jobs", "check_compatible", "JobBinder", "replay_fleet",
        "replay_fleet_sharded", "ReplayConfig", "ReplayResult",
    ),
    ".bench": (
        "bench_scenario", "in_system_bound", "run_traffic_bench", "TrafficBenchReport",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
