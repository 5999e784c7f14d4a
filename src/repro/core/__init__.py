"""DHL core: the paper's primary contribution as analytical models.

Parameters (Table V), maglev physics (Section IV), single-launch and
campaign models (Table VI), commodity cost (Table VIII), break-even
analysis (Section V-E) and design-space sweeps.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".availability": (
        "AvailabilityModel", "RepairableComponent", "series_availability",
        "stall_overhead",
    ),
    ".chunks": ("map_chunks",),
    ".breakeven": (
        "break_even", "break_even_batch", "BreakEven", "min_distance_for_time_win",
        "paper_minimum_example",
    ),
    ".engineering": (
        "assess_cart_thermals", "assess_safety", "campaign_dock_cycles",
        "connector_wear", "ConnectorWear", "M2_CYCLES", "maintenance_plan",
        "MaintenancePlan", "max_duty_cycle_for_lifetime", "max_safe_speed",
        "required_sink_resistance", "SafetyAssessment", "ThermalAssessment",
        "USB_C_CYCLES",
    ),
    ".cost": (
        "amortised_cost_per_pb", "copper_mass_kg", "cost_matrix", "cost_versus_switch",
        "dhl_cost", "DhlCost", "lim_length_m", "LimCost", "RailCost",
        "REFERENCE_400G_SWITCH_USD",
    ),
    ".model": (
        "Campaign", "CampaignBatch", "compare_with_routes", "design_point_report",
        "design_point_reports", "DesignPointReport", "launch_metrics",
        "launch_metrics_batch", "LaunchMetrics", "MetricsBatch", "NetworkComparison",
        "plan_campaign", "plan_campaign_batch",
    ),
    ".params": (
        "BrakingMode", "DEFAULT_PARAMS", "DhlParams", "LENGTH_CANDIDATES_M",
        "SPEED_CANDIDATES_M_S", "SSD_COUNT_CANDIDATES", "table_v_design_points",
        "table_vi_design_points",
    ),
    ".optimizer": (
        "design_for_deadline", "DesignRecommendation", "max_dataset_within_deadline",
        "min_speed_for_deadline", "min_speeds_for_deadline",
    ),
    ".sensitivity": (
        "Elasticity", "elasticity", "METRICS", "sensitivity_matrix",
        "sensitivity_table", "tornado",
    ),
    ".scaling": (
        "density_projection", "NAND_DENSITY_CAGR", "scaled_device", "ScalingPoint",
        "upgrade_economics", "UpgradeCosts",
    ),
    ".physics": (
        "air_drag_power", "average_trip_power", "cart_mass", "CartMass",
        "drag_fraction_of_launch", "drag_loss", "launch_energy", "Lim", "lim",
        "motion_profile", "MotionProfile", "peak_launch_power", "trip_time",
        "vacuum_sustain_power",
    ),
    ".percentiles": (
        "percentile", "percentiles", "percentiles_by_class", "STANDARD_POINTS",
    ),
    ".sweep": (
        "evaluate_reports", "grid_sweep", "pareto_front", "run_sweep", "SweepResult",
        "table_vi_sweep",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
