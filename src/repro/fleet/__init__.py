"""Datacentre-scale DHL fleet control plane.

Where :mod:`repro.dhlsim` simulates *one* library-to-rack hyperloop,
this package operates a *deployment*: several tracks fanning out from a
shared library, a bounded pool of SSD carts, an admission + dispatch
control plane consuming a :mod:`repro.workloads` job stream under
pluggable scheduling policies, rack-side cart-residency caching so hot
datasets skip the launch entirely, per-traffic-class SLA tracking, a
capacity planner that sweeps fleet shapes through the
:mod:`repro.core.sweep` engines to find the minimal deployment meeting
an SLA, and a seeded Monte-Carlo replication layer
(:mod:`repro.fleet.montecarlo`) that turns single-seed KPIs into
mean/CI distributions.

The layer the ROADMAP's production-scale north star calls for: the
paper evaluates one rail (Sections III-V) and sketches multi-stop
contention (Section VI); a fleet operator must decide how many rails,
how many carts and which scheduling policy serve a tenant mix within
tail-latency targets.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".cache": ("CacheConfig", "CacheEntry", "EVICTION_POLICIES", "RackCache"),
    ".capacity": (
        "CandidateEvaluation", "CapacityPlan", "plan_capacity", "SlaRequirement",
    ),
    ".controlplane": (
        "AdmissionControl", "build_plane", "default_scenario", "FLEET_MIX",
        "FLEET_TARGETS", "FleetReport", "FleetScenario", "POLICIES", "run_fleet",
    ),
    ".health": (
        "BREAKER_STATES", "CircuitBreaker", "DegradationPolicy", "illegal_transitions",
        "LaneHealthMonitor",
    ),
    ".montecarlo": (
        "DEFAULT_REPLICATIONS", "montecarlo_payload", "replicate_fleet", "run_seeded",
    ),
    ".shard": (
        "DEFAULT_INTERPOD_LATENCY_S", "render_signature", "report_signature",
        "run_sharded", "SHARD_ENGINES", "ShardPlan", "ShardReport", "signature_digest",
    ),
    ".sla": (
        "ClassSla", "ClassTarget", "DEFAULT_SAMPLE_CAP", "DEFAULT_TARGET", "JobRecord",
        "LatencyReservoir", "Outcome", "SlaReport", "SlaTracker",
    ),
    ".topology": ("DatasetCatalog", "DatasetHome", "FleetSpec", "FleetTopology"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
