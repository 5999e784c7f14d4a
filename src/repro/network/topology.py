"""Fat-tree data centre topology builder (paper Figure 2, left).

The paper's energy exercise uses a representative fat tree: server nodes
under top-of-rack (ToR) switches, ToRs under per-aisle aggregation
switches, and a core layer joining aisles.  We build it as a networkx
graph so routes can be *derived* (shortest path) rather than hard-coded,
and so alternative topologies can be explored.

Link convention (matching the paper): server-to-ToR links are passive
copper (DAC); switch-to-switch links are active optics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import TopologyError

TIER_SERVER = "server"
TIER_TOR = "tor"
TIER_AGG = "agg"
TIER_CORE = "core"

_TIERS = (TIER_SERVER, TIER_TOR, TIER_AGG, TIER_CORE)


@dataclass(frozen=True)
class FatTreeSpec:
    """Shape of a fat-tree: aisles x racks x servers, with agg/core widths.

    The defaults mirror Figure 2: two aisles, four racks per aisle, and
    eight servers per rack, one aggregation layer per aisle and a shared
    core layer.
    """

    aisles: int = 2
    racks_per_aisle: int = 4
    servers_per_rack: int = 8
    agg_per_aisle: int = 2
    core_switches: int = 2

    def __post_init__(self) -> None:
        for name in ("aisles", "racks_per_aisle", "servers_per_rack", "agg_per_aisle",
                     "core_switches"):
            if getattr(self, name) <= 0:
                raise TopologyError(f"{name} must be positive, got {getattr(self, name)}")


class FatTree:
    """A concrete fat-tree instance with named nodes and tier metadata.

    Node naming: servers are ``srv-a{aisle}-r{rack}-n{index}``, ToRs are
    ``tor-a{aisle}-r{rack}``, aggregations ``agg-a{aisle}-{index}`` and
    cores ``core-{index}``.
    """

    def __init__(self, spec: FatTreeSpec = FatTreeSpec()):
        import networkx as nx

        self.spec = spec
        self.graph = nx.Graph()
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        for core in range(spec.core_switches):
            self._add_switch(f"core-{core}", TIER_CORE)
        for aisle in range(spec.aisles):
            for agg in range(spec.agg_per_aisle):
                name = f"agg-a{aisle}-{agg}"
                self._add_switch(name, TIER_AGG, aisle=aisle)
                for core in range(spec.core_switches):
                    self.graph.add_edge(name, f"core-{core}", passive=False)
            for rack in range(spec.racks_per_aisle):
                tor = f"tor-a{aisle}-r{rack}"
                self._add_switch(tor, TIER_TOR, aisle=aisle, rack=rack)
                for agg in range(spec.agg_per_aisle):
                    self.graph.add_edge(tor, f"agg-a{aisle}-{agg}", passive=False)
                for server in range(spec.servers_per_rack):
                    srv = f"srv-a{aisle}-r{rack}-n{server}"
                    self.graph.add_node(srv, tier=TIER_SERVER, aisle=aisle, rack=rack)
                    self.graph.add_edge(srv, tor, passive=True)

    def _add_switch(self, name: str, tier: str, **attrs: int) -> None:
        self.graph.add_node(name, tier=tier, **attrs)

    # -- queries ------------------------------------------------------------

    def tier(self, node: str) -> str:
        """The tier (server/tor/agg/core) of a node."""
        try:
            return self.graph.nodes[node]["tier"]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def servers(self) -> list[str]:
        return [n for n, d in self.graph.nodes(data=True) if d["tier"] == TIER_SERVER]

    def switches(self, tier: str | None = None) -> list[str]:
        if tier is not None and tier not in _TIERS:
            raise TopologyError(f"unknown tier {tier!r}; expected one of {_TIERS}")
        return [
            n
            for n, d in self.graph.nodes(data=True)
            if d["tier"] != TIER_SERVER and (tier is None or d["tier"] == tier)
        ]

    def server(self, aisle: int, rack: int, index: int) -> str:
        """Canonical name of a server, validated against the topology."""
        name = f"srv-a{aisle}-r{rack}-n{index}"
        if name not in self.graph:
            raise TopologyError(
                f"no server at aisle={aisle} rack={rack} index={index} "
                f"(spec: {self.spec})"
            )
        return name

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Shortest hop path between two nodes (ties broken by networkx)."""
        import networkx as nx

        for node in (src, dst):
            if node not in self.graph:
                raise TopologyError(f"unknown node {node!r}")
        try:
            return nx.shortest_path(self.graph, src, dst)
        except nx.NetworkXNoPath:
            raise TopologyError(f"no path between {src!r} and {dst!r}") from None

    def path_switches(self, path: Iterable[str]) -> list[str]:
        """The switches traversed by a node path, in order."""
        return [node for node in path if self.tier(node) != TIER_SERVER]

    def classify_ports(self, path: list[str]) -> "PortCount":
        """Count passive vs active switch ports along a server-to-server path.

        Each traversed switch contributes two ports (ingress + egress);
        a port is passive when the adjacent hop is a server, active when
        it faces another switch — the paper's cabling assumption.
        """
        if len(path) < 2:
            raise TopologyError("path must contain at least two nodes")
        for endpoint in (path[0], path[-1]):
            if self.tier(endpoint) != TIER_SERVER:
                raise TopologyError(f"path endpoints must be servers, got {endpoint!r}")
        passive = active = 0
        for position in range(1, len(path) - 1):
            node = path[position]
            if self.tier(node) == TIER_SERVER:
                raise TopologyError(f"path interior crosses a server: {node!r}")
            for neighbour in (path[position - 1], path[position + 1]):
                if self.tier(neighbour) == TIER_SERVER:
                    passive += 1
                else:
                    active += 1
        return PortCount(passive=passive, active=active, switches=len(path) - 2)


@dataclass(frozen=True)
class PortCount:
    """Switch-port census of one route."""

    passive: int
    active: int
    switches: int
    nic_pairs: int = 1

    total: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", self.passive + self.active)
        if self.passive < 0 or self.active < 0 or self.switches < 0:
            raise TopologyError(f"negative port counts: {self}")
        if self.total != 2 * self.switches:
            raise TopologyError(
                f"each switch must contribute exactly two ports: {self}"
            )
