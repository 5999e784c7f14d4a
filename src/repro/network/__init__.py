"""Optical-network substrate: components, topology, routes, transfer models.

Implements the paper's networking baseline — Table III component powers,
the Fig. 2 fat-tree and its five routes, and serial/parallel transfer
timing — against which the DHL is compared throughout the evaluation.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".components": (
        "ENDPOINT_NIC_W", "Nic", "NIC_100G", "NIC_2X200G", "PowerRange", "Switch",
        "SWITCH_9364D_GX2A", "SWITCH_PORT_ACTIVE_W", "SWITCH_PORT_PASSIVE_W",
        "SWITCH_QM9700", "TABLE_III_COMPONENTS", "Transceiver", "TRANSCEIVER_400G",
        "TRANSCEIVER_W",
    ),
    ".congestion": (
        "Allocation", "bulk_transfer_impact", "BulkImpact", "EcmpNetwork", "Flow",
        "paper_backup_scenario", "SharedNetwork",
    ),
    ".leafspine": (
        "leaf_spine_routes", "LeafSpine", "LeafSpineSpec", "topology_energy_comparison",
    ),
    ".energy": (
        "baseline_transfer_time", "fig2_energies", "route_energy", "RouteEnergy",
    ),
    ".routes": (
        "derive_route", "FIG2_ROUTES", "fig2_scenario_endpoints", "Route", "ROUTE_A0",
        "ROUTE_A1", "ROUTE_A2", "ROUTE_B", "route_by_name", "ROUTE_C",
    ),
    ".topology": ("FatTree", "FatTreeSpec", "PortCount"),
    ".transfer": (
        "DEFAULT_LINK_GBPS", "links_for_power", "links_for_time", "OpticalLink",
        "ParallelLinks", "speedup_links_needed",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
