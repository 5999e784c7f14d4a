"""Table and figure generators reproducing the paper's evaluation."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".export": ("export_tables", "EXPORTABLE_TABLES", "write_table_csv"),
    ".extensions": (
        "engineering_table", "hybrid_policy_table", "multistop_table",
        "reliability_table", "reuse_table", "sneakernet_table",
    ),
    ".figures": ("dock_time_sensitivity", "figure6", "figure6_ascii"),
    ".fleetview": ("capacity_table", "fleet_policy_table", "fleet_sla_table"),
    ".validation": ("Check", "run_validation", "validation_table", "ValidationSuite"),
    ".formatting": ("format_number", "render_table"),
    ".tables": (
        "breakeven_summary", "fig2_table", "intro_example", "table1", "table2",
        "table3", "table4", "table5", "table6", "table7a", "table7b", "table8a",
        "table8b", "table8c",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
