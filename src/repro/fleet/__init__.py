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

from .cache import (
    CacheConfig,
    CacheEntry,
    EVICTION_POLICIES,
    RackCache,
)
from .capacity import (
    CandidateEvaluation,
    CapacityPlan,
    SlaRequirement,
    plan_capacity,
)
from .controlplane import (
    FLEET_MIX,
    FLEET_TARGETS,
    POLICIES,
    AdmissionControl,
    FleetReport,
    FleetScenario,
    build_plane,
    default_scenario,
    run_fleet,
)
from .health import (
    BREAKER_STATES,
    CircuitBreaker,
    DegradationPolicy,
    LaneHealthMonitor,
    illegal_transitions,
)
from .montecarlo import (
    DEFAULT_REPLICATIONS,
    montecarlo_payload,
    replicate_fleet,
    run_seeded,
)
from .shard import (
    DEFAULT_INTERPOD_LATENCY_S,
    SHARD_ENGINES,
    ShardPlan,
    ShardReport,
    render_signature,
    report_signature,
    run_sharded,
    signature_digest,
)
from .sla import (
    DEFAULT_SAMPLE_CAP,
    DEFAULT_TARGET,
    ClassSla,
    ClassTarget,
    JobRecord,
    LatencyReservoir,
    Outcome,
    SlaReport,
    SlaTracker,
)
from .topology import DatasetCatalog, DatasetHome, FleetSpec, FleetTopology

__all__ = [
    "AdmissionControl",
    "BREAKER_STATES",
    "CacheConfig",
    "CacheEntry",
    "CandidateEvaluation",
    "CapacityPlan",
    "CircuitBreaker",
    "ClassSla",
    "ClassTarget",
    "DEFAULT_INTERPOD_LATENCY_S",
    "DEFAULT_REPLICATIONS",
    "DEFAULT_SAMPLE_CAP",
    "DEFAULT_TARGET",
    "DatasetCatalog",
    "DatasetHome",
    "DegradationPolicy",
    "EVICTION_POLICIES",
    "FLEET_MIX",
    "FLEET_TARGETS",
    "FleetReport",
    "FleetScenario",
    "FleetSpec",
    "FleetTopology",
    "JobRecord",
    "LaneHealthMonitor",
    "LatencyReservoir",
    "Outcome",
    "POLICIES",
    "RackCache",
    "SHARD_ENGINES",
    "ShardPlan",
    "ShardReport",
    "SlaReport",
    "SlaRequirement",
    "SlaTracker",
    "build_plane",
    "default_scenario",
    "illegal_transitions",
    "montecarlo_payload",
    "plan_capacity",
    "render_signature",
    "replicate_fleet",
    "report_signature",
    "run_fleet",
    "run_seeded",
    "run_sharded",
    "signature_digest",
]
