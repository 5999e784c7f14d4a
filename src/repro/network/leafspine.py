"""A leaf-spine topology alternative to the Fig. 2 fat tree.

The paper cites Popoola & Pranggono's finding that switch-centric DCN
topology choice moves network energy (Section VII-C, [79]).  This
module builds the other mainstream topology — a two-tier leaf-spine —
with the same tier/cabling conventions as :class:`FatTree`, so routes,
energies and congestion studies run unchanged on it and the two fabrics
can be compared per-route.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TopologyError
from .routes import Route, derive_route
from .topology import FatTree, FatTreeSpec, TIER_AGG, TIER_SERVER


@dataclass(frozen=True)
class LeafSpineSpec:
    """Shape of a leaf-spine fabric: every leaf connects to every spine."""

    leaves: int = 8
    spines: int = 4
    servers_per_leaf: int = 8

    def __post_init__(self) -> None:
        for name in ("leaves", "spines", "servers_per_leaf"):
            if getattr(self, name) <= 0:
                raise TopologyError(f"{name} must be positive, got {getattr(self, name)}")


class LeafSpine(FatTree):
    """A two-tier Clos: leaves (ToR role) fully meshed to spines.

    Inherits every query from :class:`FatTree` (shortest paths, port
    classification, server lookup by (aisle=0, rack=leaf, index)).
    """

    def __init__(self, spec: LeafSpineSpec = LeafSpineSpec()):
        import networkx as nx

        # Bypass FatTree.__init__'s builder; construct our own graph.
        self.spec = FatTreeSpec(
            aisles=1,
            racks_per_aisle=spec.leaves,
            servers_per_rack=spec.servers_per_leaf,
            agg_per_aisle=spec.spines,
            core_switches=1,
        )
        self.leaf_spec = spec
        self.graph = nx.Graph()
        self._build_leaf_spine(spec)

    def _build_leaf_spine(self, spec: LeafSpineSpec) -> None:
        for spine in range(spec.spines):
            self.graph.add_node(f"spine-{spine}", tier=TIER_AGG)
        for leaf in range(spec.leaves):
            leaf_name = f"leaf-{leaf}"
            self.graph.add_node(leaf_name, tier="tor", aisle=0, rack=leaf)
            for spine in range(spec.spines):
                self.graph.add_edge(leaf_name, f"spine-{spine}", passive=False)
            for server in range(spec.servers_per_leaf):
                srv = f"srv-a0-r{leaf}-n{server}"
                self.graph.add_node(srv, tier=TIER_SERVER, aisle=0, rack=leaf)
                self.graph.add_edge(srv, leaf_name, passive=True)


def leaf_spine_routes(fabric: LeafSpine | None = None) -> dict[str, Route]:
    """The leaf-spine equivalents of the switched Fig. 2 scenarios.

    * same-leaf (A2-like): one switch, two passive ports;
    * cross-leaf (B/C-like): leaf -> spine -> leaf, three switches —
      leaf-spine has no third tier, so the fat tree's 5-switch
      cross-aisle route C collapses to 3 switches here.
    """
    fabric = fabric or LeafSpine()
    storage = fabric.server(0, 0, 0)
    scenarios = {
        "same-leaf": fabric.server(0, 0, 1),
        "cross-leaf": fabric.server(0, 1, 0),
    }
    return {
        name: derive_route(fabric, storage, dst, name=f"ls-{name}")
        for name, dst in scenarios.items()
    }


def topology_energy_comparison(
    dataset_bytes: float = 29e15,
    link_gbps: float = 400.0,
) -> dict[str, float]:
    """Worst-route transfer energy per fabric, in joules.

    Reproduces the Popoola-style observation the paper leans on: the
    flatter fabric's worst case (3 switches) beats the fat tree's
    (5 switches), yet *both* are orders above the DHL.
    """
    from ..units import gbps as to_rate

    transfer_s = dataset_bytes / to_rate(link_gbps)
    from .routes import ROUTE_C

    fat_tree_worst = ROUTE_C.power_w * transfer_s
    leaf_spine_worst = (
        leaf_spine_routes()["cross-leaf"].power_w * transfer_s
    )
    return {
        "fat-tree-worst": fat_tree_worst,
        "leaf-spine-worst": leaf_spine_worst,
    }
