"""Rail and endpoint geometry for the operational simulator.

A :class:`Track` is one vacuum tube with endpoints at known positions
(metres from the library).  Only one cart may occupy a tube at a time
(single-rail design); a dual-rail layout instantiates two tubes, one per
direction.  Docking briefly blocks the tube past the docking endpoint —
"it is not possible to shuttle another cart past the cart being docked"
(Section III-B5) — which we conservatively model as holding the tube for
the dock duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.params import DhlParams
from ..core.physics import launch_energy, motion_profile
from ..errors import ConfigurationError, SchedulingError
from ..sim import Environment, Resource
from ..units import assert_non_negative


@dataclass(frozen=True)
class Endpoint:
    """A named stop on the rail at a fixed position (metres)."""

    endpoint_id: int
    name: str
    position_m: float
    is_library: bool = False

    def __post_init__(self) -> None:
        assert_non_negative("position_m", self.position_m)


def default_endpoints(params: DhlParams, n_racks: int = 1) -> tuple[Endpoint, ...]:
    """The paper's primary layout: a library and rack endpoints.

    With one rack the rack sits at ``track_length``; multi-stop layouts
    (Section VI) space racks evenly along the final half of the rail.
    """
    if n_racks <= 0:
        raise SchedulingError(f"need at least one rack endpoint, got {n_racks}")
    endpoints = [Endpoint(0, "library", 0.0, is_library=True)]
    if n_racks == 1:
        endpoints.append(Endpoint(1, "rack-0", params.track_length))
    else:
        start = params.track_length / 2.0
        step = (params.track_length - start) / (n_racks - 1)
        for rack in range(n_racks):
            endpoints.append(Endpoint(rack + 1, f"rack-{rack}", start + rack * step))
    return tuple(endpoints)


@dataclass(frozen=True, slots=True)
class Hop:
    """The resolved physics of one directed hop along a track.

    Both values depend only on the design point and the hop distance,
    so a track computes them once, at construction.
    """

    distance_m: float
    motion_time_s: float
    """Paper-profile rail time, no dock handling."""
    energy_j: float
    """Launch energy for one launch-and-stop over the hop."""


@dataclass
class TrackHealth:
    """Mutable fault state of one track: tube availability, LIM health.

    Fault injectors (``repro.dhlsim.reliability``) flip these flags; the
    scheduler consults them before and after claiming the tube.  A
    breach makes the tube unavailable until repair; a degraded LIM
    leaves the tube open but stretches travel time by ``lim_slowdown``.
    """

    tube_available: bool = True
    down_since: float = 0.0
    lim_slowdown: float = 1.0
    outages: int = 0
    downtime_s: float = 0.0
    listeners: list = field(default_factory=list)
    """Callbacks ``(available: bool, now: float)`` fired on every
    down/up transition — how the fleet's lane health monitors observe
    fault-to-repair windows without polling the DES clock."""

    def mark_down(self, now: float) -> None:
        if not self.tube_available:
            raise SchedulingError("track is already down")
        self.tube_available = False
        self.down_since = now
        self.outages += 1
        for listener in list(self.listeners):
            listener(False, now)

    def mark_up(self, now: float) -> None:
        if self.tube_available:
            raise SchedulingError("track is not down")
        self.tube_available = True
        self.downtime_s += now - self.down_since
        for listener in list(self.listeners):
            listener(True, now)

    def outage_age(self, now: float) -> float:
        """Seconds the current outage has lasted (0 when the track is up)."""
        return 0.0 if self.tube_available else now - self.down_since

    def degrade_lim(self, slowdown: float) -> None:
        if slowdown < 1.0:
            raise SchedulingError(f"lim slowdown must be >= 1, got {slowdown}")
        self.lim_slowdown = slowdown

    def restore_lim(self) -> None:
        self.lim_slowdown = 1.0


@dataclass
class Track:
    """A single vacuum tube connecting all endpoints, with occupancy control."""

    env: Environment
    params: DhlParams
    endpoints: tuple[Endpoint, ...]
    name: str = "rail-0"
    tube: Resource = field(init=False)
    health: TrackHealth = field(init=False)
    traversals: int = 0
    metres_travelled: float = 0.0

    def __post_init__(self) -> None:
        if len(self.endpoints) < 2:
            raise SchedulingError("a track needs at least two endpoints")
        ids = [endpoint.endpoint_id for endpoint in self.endpoints]
        if len(set(ids)) != len(ids):
            raise SchedulingError(f"duplicate endpoint ids on track {self.name}: {ids}")
        self.tube = Resource(self.env, capacity=1)
        self.health = TrackHealth()
        self._by_id = {endpoint.endpoint_id: endpoint for endpoint in self.endpoints}
        self._hops = self._hop_table()

    def _hop_table(self) -> dict[tuple[int, int], Hop]:
        """Resolve every ordered endpoint pair's physics once.

        ``params`` and ``endpoints`` are fixed for the track's lifetime,
        so every launch reads its hop from this table instead of
        rebuilding a per-hop :class:`DhlParams`.
        """
        hops = {}
        for src in self.endpoints:
            for dst in self.endpoints:
                if src is dst:
                    continue
                distance = abs(src.position_m - dst.position_m)
                if distance == 0.0:
                    raise ConfigurationError(
                        f"endpoints {src.endpoint_id} ({src.name!r}) and "
                        f"{dst.endpoint_id} ({dst.name!r}) on track {self.name} "
                        f"share position {src.position_m:g} m; a hop needs "
                        "a positive distance"
                    )
                hop_params = self.params.with_(track_length=distance)
                hops[src.endpoint_id, dst.endpoint_id] = Hop(
                    distance_m=distance,
                    motion_time_s=motion_profile(hop_params).motion_time,
                    energy_j=launch_energy(hop_params),
                )
        return hops

    def endpoint(self, endpoint_id: int) -> Endpoint:
        try:
            return self._by_id[endpoint_id]
        except KeyError:
            known = sorted(self._by_id)
            raise SchedulingError(
                f"unknown endpoint {endpoint_id} on track {self.name}; known: {known}"
            ) from None

    def hop(self, src: int, dst: int) -> Hop:
        """The precomputed physics of the hop from ``src`` to ``dst``."""
        hop = self._hops.get((src, dst))
        if hop is None:
            self.distance(src, dst)  # raises the specific SchedulingError
        return hop

    def distance(self, src: int, dst: int) -> float:
        """Rail distance between two endpoints, metres."""
        if src == dst:
            raise SchedulingError(f"src and dst endpoints are both {src}")
        return abs(self.endpoint(src).position_m - self.endpoint(dst).position_m)

    def travel_time(self, src: int, dst: int, profile: str = "paper") -> float:
        """Rail time (no dock handling) between two endpoints."""
        if profile == "paper":
            return self.hop(src, dst).motion_time_s
        hop_params = self.params.with_(track_length=self.distance(src, dst))
        return motion_profile(hop_params, profile).motion_time

    def hop_energy(self, src: int, dst: int) -> float:
        """Launch energy for one hop (speed-dominated; distance matters
        only when the hop is shorter than the LIM ramp)."""
        return self.hop(src, dst).energy_j

    def record_traversal(self, src: int, dst: int) -> None:
        self.traversals += 1
        self.metres_travelled += self.hop(src, dst).distance_m


def build_tracks(
    env: Environment,
    params: DhlParams,
    n_racks: int = 1,
) -> list[Track]:
    """Instantiate the rail(s): one tube, or two when ``params.dual_rail``."""
    endpoints = default_endpoints(params, n_racks)
    if not params.dual_rail:
        return [Track(env, params, endpoints, name="rail-0")]
    return [
        Track(env, params, endpoints, name="rail-outbound"),
        Track(env, params, endpoints, name="rail-inbound"),
    ]


def pick_track(tracks: list[Track], src: int, dst: int) -> Track:
    """Choose the tube for a hop: outbound tube for library->rack moves,
    inbound for the return direction; the single tube otherwise."""
    if not tracks:
        raise SchedulingError("no tracks configured")
    if len(tracks) == 1:
        return tracks[0]
    outbound = tracks[0]
    inbound = tracks[1]
    src_pos = outbound.endpoint(src).position_m
    dst_pos = outbound.endpoint(dst).position_m
    return outbound if dst_pos > src_pos else inbound
