"""Tests for rail geometry, travel timing and dual-rail selection."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.params import BrakingMode, DhlParams
from repro.core.physics import launch_energy, lim, motion_profile
from repro.dhlsim.track import (
    Endpoint,
    Track,
    build_tracks,
    default_endpoints,
    pick_track,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestEndpoints:
    def test_default_two_endpoints(self):
        endpoints = default_endpoints(DhlParams())
        assert len(endpoints) == 2
        assert endpoints[0].is_library
        assert endpoints[0].position_m == 0.0
        assert endpoints[1].position_m == 500.0

    def test_multi_stop_layout(self):
        endpoints = default_endpoints(DhlParams(), n_racks=3)
        assert len(endpoints) == 4
        positions = [endpoint.position_m for endpoint in endpoints[1:]]
        assert positions == sorted(positions)
        assert positions[0] == pytest.approx(250.0)
        assert positions[-1] == pytest.approx(500.0)

    def test_rejects_zero_racks(self):
        with pytest.raises(SchedulingError):
            default_endpoints(DhlParams(), n_racks=0)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            Endpoint(0, "x", -1.0)


class TestTrack:
    def test_distance(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        assert track.distance(0, 1) == 500.0
        assert track.distance(1, 0) == 500.0

    def test_distance_same_endpoint_rejected(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        with pytest.raises(SchedulingError):
            track.distance(0, 0)

    def test_unknown_endpoint_rejected(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        with pytest.raises(SchedulingError, match="unknown endpoint"):
            track.endpoint(42)

    def test_travel_time_matches_motion_profile(self, env):
        params = DhlParams()
        track = Track(env, params, default_endpoints(params))
        assert track.travel_time(0, 1) == motion_profile(params).motion_time

    def test_hop_energy_matches_launch_energy(self, env):
        params = DhlParams()
        track = Track(env, params, default_endpoints(params))
        assert track.hop_energy(0, 1) == launch_energy(params)

    def test_exact_profile_still_computed_fresh(self, env):
        params = DhlParams()
        track = Track(env, params, default_endpoints(params))
        exact = track.travel_time(0, 1, profile="exact")
        assert exact == motion_profile(params, "exact").motion_time
        assert exact > track.travel_time(0, 1)

    def test_hop_lookup_errors(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        with pytest.raises(SchedulingError, match="both 0"):
            track.hop(0, 0)
        with pytest.raises(SchedulingError, match="unknown endpoint"):
            track.hop(0, 42)

    def test_short_hop_cheaper_than_full_speed(self, env):
        # Between two nearby stops the cart cannot reach top speed, so the
        # hop costs less energy than a full-length launch.
        params = DhlParams()
        endpoints = (
            Endpoint(0, "library", 0.0, is_library=True),
            Endpoint(1, "near", 10.0),
            Endpoint(2, "far", 500.0),
        )
        track = Track(env, params, endpoints)
        assert track.hop_energy(0, 1) < track.hop_energy(0, 2)

    def test_traversal_accounting(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        track.record_traversal(0, 1)
        track.record_traversal(1, 0)
        assert track.traversals == 2
        assert track.metres_travelled == 1000.0

    def test_needs_two_endpoints(self, env):
        with pytest.raises(SchedulingError):
            Track(env, DhlParams(), (Endpoint(0, "solo", 0.0),))

    def test_duplicate_ids_rejected(self, env):
        endpoints = (Endpoint(0, "a", 0.0), Endpoint(0, "b", 1.0))
        with pytest.raises(SchedulingError, match="duplicate"):
            Track(env, DhlParams(), endpoints)

    def test_zero_length_hop_rejected_at_construction(self, env):
        endpoints = (
            Endpoint(0, "library", 0.0, is_library=True),
            Endpoint(1, "rack-a", 250.0),
            Endpoint(2, "rack-b", 250.0),
        )
        with pytest.raises(ConfigurationError,
                           match=r"endpoints 1 \('rack-a'\) and 2 \('rack-b'\)"):
            Track(env, DhlParams(), endpoints)


class TestHopTable:
    """The table must hold exactly what fresh per-hop physics gives."""

    @given(
        speed=st.floats(min_value=10.0, max_value=400.0),
        length=st.floats(min_value=1.0, max_value=2000.0),
        ssds=st.integers(min_value=1, max_value=64),
        acceleration=st.floats(min_value=50.0, max_value=2000.0),
        braking=st.sampled_from(BrakingMode.ALL),
        regen=st.floats(min_value=0.0, max_value=1.0),
        n_racks=st.integers(min_value=1, max_value=6),
        dual_rail=st.booleans(),
    )
    # Every hop shorter than the 80 m LIM ramp: triangular profiles only.
    @example(speed=400.0, length=60.0, ssds=32, acceleration=1000.0,
             braking=BrakingMode.REGENERATIVE, regen=0.4, n_racks=6,
             dual_rail=True)
    def test_matches_fresh_physics(self, speed, length, ssds, acceleration,
                                   braking, regen, n_racks, dual_rail):
        params = DhlParams(
            max_speed=speed, track_length=length, ssds_per_cart=ssds,
            acceleration=acceleration, braking=braking,
            regen_recovery=regen if braking == BrakingMode.REGENERATIVE else 0.0,
            dual_rail=dual_rail,
        )
        ramp = lim(params).length_for_speed(speed)
        for track in build_tracks(Environment(), params, n_racks):
            metres = 0.0
            for src in track.endpoints:
                for dst in track.endpoints:
                    if src is dst:
                        continue
                    a, b = src.endpoint_id, dst.endpoint_id
                    distance = abs(src.position_m - dst.position_m)
                    fresh = params.with_(track_length=distance)
                    hop = track.hop(a, b)
                    assert hop.distance_m == distance == track.distance(a, b)
                    assert track.travel_time(a, b) == motion_profile(fresh).motion_time
                    assert hop.motion_time_s == track.travel_time(a, b)
                    assert track.hop_energy(a, b) == launch_energy(fresh)
                    assert hop.energy_j == track.hop_energy(a, b)
                    if distance < ramp:
                        assert motion_profile(fresh).peak_speed < speed
                    track.record_traversal(a, b)
                    metres += distance
            assert track.metres_travelled == metres


class TestBuildAndPick:
    def test_single_rail(self, env):
        tracks = build_tracks(env, DhlParams())
        assert len(tracks) == 1
        assert tracks[0].name == "rail-0"

    def test_dual_rail(self, env):
        tracks = build_tracks(env, DhlParams(dual_rail=True))
        assert len(tracks) == 2
        assert tracks[0].name == "rail-outbound"

    def test_pick_single(self, env):
        tracks = build_tracks(env, DhlParams())
        assert pick_track(tracks, 0, 1) is tracks[0]
        assert pick_track(tracks, 1, 0) is tracks[0]

    def test_pick_dual_by_direction(self, env):
        tracks = build_tracks(env, DhlParams(dual_rail=True))
        assert pick_track(tracks, 0, 1) is tracks[0]  # outbound
        assert pick_track(tracks, 1, 0) is tracks[1]  # inbound

    def test_pick_empty_rejected(self):
        with pytest.raises(SchedulingError):
            pick_track([], 0, 1)
