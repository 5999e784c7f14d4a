"""Workload generation and hybrid DHL/network routing policies.

Implements the system-level question of Section III-E — the DHL
"replaces only some uses of the data centre network" — as seeded job
streams, routing policies (all-network, all-DHL, size-threshold, and
the Section V-E break-even policy), and a deterministic service
scheduler that reports per-policy time, energy and latency.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".generator": (
        "DEFAULT_MIX", "jobs_by_kind", "total_offered_bytes", "TrafficClass",
        "TransferJob", "WorkloadGenerator",
    ),
    ".policy": (
        "AllDhlPolicy", "AllNetworkPolicy", "BreakEvenPolicy", "DHL", "NETWORK",
        "RoutingPolicy", "SizeThresholdPolicy", "split_jobs",
    ),
    ".service": (
        "compare_policies", "evaluate_policy", "JobOutcome", "PolicyReport",
        "ServiceConfig",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
