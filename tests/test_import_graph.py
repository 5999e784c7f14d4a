"""Import-graph gate and public-API freeze for the lazy package exports.

Every ``repro`` subpackage resolves its re-exports on first use (see
:mod:`repro._lazy`), so an entry point loads only the modules it runs.
The gate starts one fresh interpreter per entry point and checks two
things that hold on any machine: no heavy or unrelated module is
loaded, and the number of ``repro.*`` modules loaded is exactly the
pinned one.  An eager import added anywhere on the path changes the
count; re-pin it only when the new module runs on that path.

The API half freezes each subpackage's ``__all__`` (changing the public
API means editing :data:`PUBLIC_API` on purpose), and checks that every
name resolves to the object its submodule defines, is listed by
``dir()`` and arrives with ``from repro.<pkg> import *`` in a cold
interpreter.
"""

import functools
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro._lazy import lazy_exports

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules no entry point below may load: graph building, process
#: pools and the chaos machinery are imported where they are used, the
#: paper-artefact layers belong to their own commands, and the paper's
#: analytic model, named routes and route energies are the design-point
#: sweep's, not a fleet or trace run's (a fleet with failover links
#: loads its one route when it is built).
FORBIDDEN = (
    "networkx",
    "concurrent.futures.process",
    "repro.chaos.runner",
    "repro.dhlsim.reliability",
    "repro.core.model",
    "repro.network.energy",
    "repro.network.routes",
)
FORBIDDEN_PACKAGES = ("repro.analysis", "repro.mlsim")

#: ``repro.*`` modules each entry point loads, ``repro`` itself included.
REPRO_MODULES = {
    "repro.fleet.controlplane": 39,
    "repro.fleet.capacity": 41,
    "repro.traffic.replay": 42,
    "repro.fleet.shard": 41,
    "repro.traffic.synth": 42,
    "repro.cli": 5,
}

PROBE = (
    "import importlib, json, sys\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)

HELP_PROBE = (
    "import json, runpy, sys\n"
    "sys.argv = ['repro', '--help']\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__')\n"
    "except SystemExit:\n"
    "    pass\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)

STAR_PROBE = (
    "import json, sys\n"
    "namespace = {}\n"
    "exec(f'from {sys.argv[1]} import *', namespace)\n"
    "print(json.dumps(sorted(k for k in namespace if k != '__builtins__')))\n"
)


def _python(code: str, *args: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; its last line, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@functools.lru_cache(maxsize=None)
def loaded_by(entry_point: str) -> tuple[str, ...]:
    return tuple(_python(PROBE, entry_point))


def heavy(modules) -> list[str]:
    return [
        name for name in modules
        if name in FORBIDDEN
        or any(name == pkg or name.startswith(pkg + ".")
               for pkg in FORBIDDEN_PACKAGES)
    ]


def repro_modules(modules) -> list[str]:
    return [name for name in modules
            if name == "repro" or name.startswith("repro.")]


class TestImportGraph:
    @pytest.mark.parametrize("entry_point", sorted(REPRO_MODULES))
    def test_loads_nothing_heavy(self, entry_point):
        assert heavy(loaded_by(entry_point)) == []

    @pytest.mark.parametrize("entry_point", sorted(REPRO_MODULES))
    def test_repro_module_count_is_pinned(self, entry_point):
        loaded = repro_modules(loaded_by(entry_point))
        assert len(loaded) == REPRO_MODULES[entry_point], loaded

    def test_cli_help_loads_no_numpy_and_no_artefacts(self):
        loaded = _python(HELP_PROBE)
        assert "numpy" not in loaded
        assert heavy(loaded) == []
        assert repro_modules(loaded) == repro_modules(loaded_by("repro.cli"))


PUBLIC_API = {
    "core": (
        "AvailabilityModel", "BrakingMode", "BreakEven", "Campaign", "CampaignBatch",
        "CartMass", "ConnectorWear", "DEFAULT_PARAMS", "DesignPointReport",
        "DesignRecommendation", "DhlCost", "DhlParams", "Elasticity",
        "LENGTH_CANDIDATES_M", "LaunchMetrics", "Lim", "LimCost", "M2_CYCLES",
        "METRICS", "MaintenancePlan", "MetricsBatch", "MotionProfile",
        "NAND_DENSITY_CAGR", "NetworkComparison", "REFERENCE_400G_SWITCH_USD",
        "RailCost", "RepairableComponent", "SPEED_CANDIDATES_M_S",
        "SSD_COUNT_CANDIDATES", "STANDARD_POINTS", "SafetyAssessment", "ScalingPoint",
        "SweepResult", "ThermalAssessment", "USB_C_CYCLES", "UpgradeCosts",
        "air_drag_power", "amortised_cost_per_pb", "assess_cart_thermals",
        "assess_safety", "average_trip_power", "break_even", "break_even_batch",
        "campaign_dock_cycles", "cart_mass",
        "compare_with_routes", "connector_wear", "copper_mass_kg", "cost_matrix",
        "cost_versus_switch", "density_projection", "design_for_deadline",
        "design_point_report", "design_point_reports", "dhl_cost",
        "drag_fraction_of_launch", "drag_loss", "elasticity", "evaluate_reports",
        "grid_sweep", "launch_energy", "launch_metrics", "launch_metrics_batch", "lim",
        "lim_length_m", "maintenance_plan", "map_chunks", "max_dataset_within_deadline",
        "max_duty_cycle_for_lifetime", "max_safe_speed", "min_distance_for_time_win",
        "min_speed_for_deadline", "min_speeds_for_deadline", "motion_profile",
        "paper_minimum_example", "pareto_front", "peak_launch_power", "percentile",
        "percentiles", "percentiles_by_class", "plan_campaign", "plan_campaign_batch",
        "required_sink_resistance", "run_sweep", "scaled_device",
        "sensitivity_matrix", "sensitivity_table", "series_availability",
        "stall_overhead", "table_v_design_points", "table_vi_design_points",
        "table_vi_sweep", "tornado", "trip_time", "upgrade_economics",
        "vacuum_sustain_power",
    ),
    "network": (
        "Allocation", "BulkImpact", "DEFAULT_LINK_GBPS", "ENDPOINT_NIC_W",
        "EcmpNetwork", "FIG2_ROUTES", "FatTree", "FatTreeSpec", "Flow", "LeafSpine",
        "LeafSpineSpec", "NIC_100G", "NIC_2X200G", "Nic", "OpticalLink",
        "ParallelLinks", "PortCount", "PowerRange", "ROUTE_A0", "ROUTE_A1", "ROUTE_A2",
        "ROUTE_B", "ROUTE_C", "Route", "RouteEnergy", "SWITCH_9364D_GX2A",
        "SWITCH_PORT_ACTIVE_W", "SWITCH_PORT_PASSIVE_W", "SWITCH_QM9700",
        "SharedNetwork", "Switch", "TABLE_III_COMPONENTS", "TRANSCEIVER_400G",
        "TRANSCEIVER_W", "Transceiver", "baseline_transfer_time",
        "bulk_transfer_impact", "derive_route", "fig2_energies",
        "fig2_scenario_endpoints", "leaf_spine_routes", "links_for_power",
        "links_for_time", "paper_backup_scenario", "route_by_name", "route_energy",
        "speedup_links_needed", "topology_energy_comparison",
    ),
    "fleet": (
        "AdmissionControl", "BREAKER_STATES", "CacheConfig", "CacheEntry",
        "CandidateEvaluation", "CapacityPlan", "CircuitBreaker", "ClassSla",
        "ClassTarget", "DEFAULT_INTERPOD_LATENCY_S", "DEFAULT_REPLICATIONS",
        "DEFAULT_SAMPLE_CAP", "DEFAULT_TARGET", "DatasetCatalog", "DatasetHome",
        "DegradationPolicy", "EVICTION_POLICIES", "FLEET_MIX", "FLEET_TARGETS",
        "FleetReport", "FleetScenario", "FleetSpec", "FleetTopology", "JobRecord",
        "LaneHealthMonitor", "LatencyReservoir", "Outcome", "POLICIES", "RackCache",
        "SHARD_ENGINES", "ShardPlan", "ShardReport", "SlaReport", "SlaRequirement",
        "SlaTracker", "build_plane", "default_scenario", "illegal_transitions",
        "montecarlo_payload", "plan_capacity", "render_signature", "replicate_fleet",
        "report_signature", "run_fleet", "run_seeded", "run_sharded", "signature_digest",
    ),
    "dhlsim": (
        "CART_STATE_EVENT", "Cart", "CartStallInjector", "CartState", "ChaosInjectors",
        "ChaosSpec", "ContentionReport", "DEFAULT_RETRY", "DhlApi", "DhlSystem",
        "DockingStation", "Endpoint", "FailoverPolicy", "FaultInjector",
        "LibraryNode", "MultiStopExperiment", "NO_RETRY", "RackEndpoint",
        "RequestOutcome",
        "ShuttleAttempt", "ShuttlePolicy", "Span", "TimelineEvent", "TimelineRecorder",
        "Track", "TrackHealth", "TrackOutageInjector", "TransferReport",
        "TransferRequest", "build_tracks", "default_endpoints",
        "expected_failures_per_campaign", "install_chaos", "pick_track", "render_gantt",
        "speed_contention_sweep", "timeline_events",
    ),
    "sim": (
        "AllOf", "AnyOf", "Condition", "Environment", "Event", "Interrupt", "PENDING",
        "Process", "Request", "Resource", "Store", "TimeWeightedValue", "Timeout",
    ),
    "obs": (
        "CLAIM_SPAN", "Counter", "CounterSample", "DEFAULT_BUCKETS", "Gauge",
        "Histogram", "Instant", "MetricsRegistry", "NULL_SPAN", "ResourceProbe", "Span",
        "TimeWeightedValue", "TraceLevel", "Tracer", "event_log",
        "merge_snapshots_additive", "open_claim_counts",
        "span_nesting_violations", "to_chrome_trace", "trace_leaked_resources",
        "validate_chrome_trace", "write_chrome_trace", "write_event_log",
    ),
    "storage": (
        "Crossover", "DATA_GROWTH_CAGR", "DLRM_2022", "DataStream", "Dataset",
        "DegradedArray", "FORM_FACTOR_3_5_INCH", "FORM_FACTOR_M_2_2280",
        "FORM_FACTOR_U_2", "FormFactor", "LHC_CMS_DETECTOR", "LibraryInventory",
        "META_ML_LARGE", "MlModel", "NIMBUS_EXADRIVE_100TB", "PCIE6_X64", "PcieLink",
        "PlacementPlan", "SABRENT_ROCKET_4_PLUS_8TB", "Shard", "SsdArray",
        "StorageDevice", "TABLE_II_DEVICES", "TABLE_IV_MODELS", "TABLE_I_DATASETS",
        "TABLE_I_STREAMS", "WD_GOLD_24TB", "array_for_capacity", "carts_per_day",
        "dataset_by_name", "device_by_name", "dhl_headroom_years", "drives_required",
        "lhc_hour", "m2_versus_hdd", "model_by_name", "parameter_bytes",
        "plan_placement", "projected_dataset", "projected_rate", "saturation_year",
        "synthetic_dataset",
    ),
    "workloads": (
        "AllDhlPolicy", "AllNetworkPolicy", "BreakEvenPolicy", "DEFAULT_MIX", "DHL",
        "JobOutcome", "NETWORK", "PolicyReport", "RoutingPolicy", "ServiceConfig",
        "SizeThresholdPolicy", "TrafficClass", "TransferJob", "WorkloadGenerator",
        "compare_policies", "evaluate_policy", "jobs_by_kind", "split_jobs",
        "total_offered_bytes",
    ),
    "traffic": (
        "BinaryTraceWriter", "DAY_S", "DEFAULT_WINDOW_S", "DemandClass", "FORMATS",
        "FlashCrowd", "JSONL_SCHEMA", "JobBinder", "JsonlTraceWriter",
        "RECORD_STRUCT", "ReplayConfig", "ReplayResult", "TRACE_MAGIC",
        "TRACE_SCHEMA_VERSION", "TenantProfile", "TraceHeader", "TraceRecord",
        "TraceSpec", "TrafficBenchReport", "bench_scenario", "bound_jobs",
        "check_compatible", "default_spec", "expected_records",
        "expected_window_counts", "in_system_bound", "monotone", "read_binary_header",
        "read_binary_records", "read_jsonl_header", "read_jsonl_records", "read_trace",
        "replay_fleet", "replay_fleet_sharded", "run_traffic_bench", "synthesise",
        "synthesise_window", "trace_header", "write_trace",
    ),
    "chaos": (
        "BROWNOUT", "CACHE_NODE_LOSS", "CART_BATCH_FAILURE", "CHAOS_SHUTTLE_POLICY",
        "CampaignEvent", "CampaignLog", "CampaignRunner", "ChaosBenchReport",
        "ChaosCampaign", "EVENT_KINDS", "P99_DEGRADATION_BOUND", "RepairCrewPool",
        "TRACK_OUTAGE", "chaos_scenario", "default_campaign", "install_campaign",
        "run_chaos_bench",
    ),
    "analysis": (
        "Check", "EXPORTABLE_TABLES", "ValidationSuite", "breakeven_summary",
        "capacity_table", "dock_time_sensitivity", "engineering_table", "export_tables",
        "fig2_table", "figure6", "figure6_ascii", "fleet_policy_table",
        "fleet_sla_table", "format_number", "hybrid_policy_table", "intro_example",
        "multistop_table", "reliability_table", "render_table", "reuse_table",
        "run_validation", "sneakernet_table", "table1", "table2", "table3", "table4",
        "table5", "table6", "table7a", "table7b", "table8a", "table8b", "table8c",
        "validation_table", "write_table_csv",
    ),
    "mlsim": (
        "ClusterSpec", "Delivery", "DhlBackend", "DownscaleResult",
        "IngestionBackend", "IterationResult", "NetworkBackend",
        "OperationalDhlBackend", "PAPER_DOWNSCALE_FACTOR", "ReuseStudy", "RunResult",
        "ScaledBackend", "SchemeResult", "SweepPoint", "TrainingIteration",
        "TrainingRun", "US_INDUSTRIAL_USD_PER_KWH", "allgather_time",
        "alltoall_time", "best_allreduce_time", "broadcast_time", "dhl_power_curve",
        "dlrm_iteration", "downscaled_dhl_study", "downscaled_network_study",
        "figure6_series", "iso_power_comparison", "iso_time_comparison",
        "iteration_time_closed_form", "network_power_curve", "reduce_scatter_time",
        "reuse_study", "ring_allreduce_time", "simulate_iteration", "simulate_run",
        "tree_allreduce_time",
    ),
    "baselines": (
        "FrictionCarrier", "HUMAN_PORTER", "SNOWMOBILE_TRUCK", "SneakernetPlan",
        "breakeven_against_carrier", "metabolic_equivalent_note", "plan_sneakernet",
        "snowmobile_reference_time",
    ),
}


def package(name: str) -> types.ModuleType:
    return importlib.import_module(f"repro.{name}")


class TestPublicApi:
    @pytest.mark.parametrize("name", sorted(PUBLIC_API))
    def test_all_is_frozen(self, name):
        exported = package(name).__all__
        assert len(exported) == len(set(exported))
        assert set(exported) == set(PUBLIC_API[name])

    @pytest.mark.parametrize("name", sorted(PUBLIC_API))
    def test_names_resolve_to_their_submodule_objects(self, name):
        pkg = package(name)
        for module, names in pkg._EXPORTS.items():
            owner = importlib.import_module(module, pkg.__name__)
            for attribute in names:
                assert getattr(pkg, attribute) is getattr(owner, attribute)

    @pytest.mark.parametrize("name", sorted(PUBLIC_API))
    def test_dir_lists_every_export(self, name):
        assert set(PUBLIC_API[name]) <= set(dir(package(name)))

    @pytest.mark.parametrize("name", sorted(PUBLIC_API))
    def test_star_import_from_a_cold_interpreter(self, name):
        assert set(_python(STAR_PROBE, f"repro.{name}")) == set(PUBLIC_API[name])

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            package("fleet").nope

    def test_export_named_like_its_submodule_stays_the_export(self):
        importlib.import_module("repro.core.percentiles")
        from repro.core import percentiles

        module = sys.modules["repro.core.percentiles"]
        assert callable(percentiles) and percentiles is module.percentiles

    def test_a_name_exported_twice_is_refused(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "fake_pkg", types.ModuleType("fake_pkg"))
        with pytest.raises(ValueError, match="'x' exported by both"):
            lazy_exports("fake_pkg", {".a": ("x",), ".b": ("x",)})

    def test_readme_quickstart(self):
        from repro.core import DhlParams, design_point_report

        report = design_point_report(DhlParams())
        assert report.metrics.energy_kj > 0 and report.time_speedup > 1
