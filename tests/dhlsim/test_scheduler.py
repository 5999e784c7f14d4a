"""Tests for the DHL system: shuttles, dispatch, returns, accounting."""

import pytest

from repro.core.params import DhlParams
from repro.core.physics import launch_energy, trip_time
from repro.dhlsim.cart import CartState
from repro.dhlsim.scheduler import DhlSystem
from repro.errors import SchedulingError
from repro.sim import Environment
from repro.storage.datasets import synthetic_dataset
from repro.units import TB


@pytest.fixture
def env():
    return Environment()


def make_system(env, **kwargs):
    return DhlSystem(env, **kwargs)


class TestConstruction:
    def test_default_layout(self, env):
        system = make_system(env)
        assert len(system.tracks) == 1
        assert list(system.racks) == [1]
        assert system.library.endpoint_id == 0

    def test_dual_rail_layout(self, env):
        system = make_system(env, params=DhlParams(dual_rail=True))
        assert len(system.tracks) == 2

    def test_multi_rack(self, env):
        system = make_system(env, n_racks=3)
        assert sorted(system.racks) == [1, 2, 3]

    def test_rack_lookup_unknown(self, env):
        with pytest.raises(SchedulingError, match="unknown rack"):
            make_system(env).rack(9)

    def test_cart_factory_uses_params(self, env):
        system = make_system(env, params=DhlParams(ssds_per_cart=16), parity_drives=2)
        cart = system.make_cart()
        assert cart.array.count == 16
        assert cart.array.parity_drives == 2


class TestShuttle:
    def test_shuttle_takes_trip_time(self, env):
        system = make_system(env)
        cart = system.make_cart()
        system.library.admit(cart)
        out = system.library.checkout(cart.cart_id)
        env.run(until=system.shuttle(out, dst=1))
        assert env.now == pytest.approx(trip_time(DhlParams()))
        assert cart.state == CartState.ARRIVED
        assert cart.location == 1

    def test_shuttle_meters_energy(self, env):
        system = make_system(env)
        cart = system.make_cart()
        system.library.admit(cart)
        out = system.library.checkout(cart.cart_id)
        env.run(until=system.shuttle(out, dst=1))
        assert system.total_launch_energy == pytest.approx(launch_energy(DhlParams()))
        assert system.total_launches == 1

    def test_shuttle_requires_ready(self, env):
        system = make_system(env)
        cart = system.make_cart()
        system.library.admit(cart)
        with pytest.raises(SchedulingError, match="must be READY"):
            env.run(until=system.shuttle(cart, dst=1))

    def test_shuttle_to_same_place_rejected(self, env):
        system = make_system(env)
        cart = system.make_cart()
        system.library.admit(cart)
        out = system.library.checkout(cart.cart_id)
        with pytest.raises(SchedulingError, match="already at"):
            env.run(until=system.shuttle(out, dst=0))

    def test_single_tube_serialises_shuttles(self, env):
        system = make_system(env)
        carts = []
        for _ in range(3):
            cart = system.make_cart()
            system.library.admit(cart)
            carts.append(system.library.checkout(cart.cart_id))
        done = [system.shuttle(cart, dst=1) for cart in carts]
        env.run(until=env.all_of(done))
        assert env.now == pytest.approx(3 * trip_time(DhlParams()))

    def test_dual_rail_overlaps_directions(self, env):
        system = make_system(env, params=DhlParams(dual_rail=True))
        outbound = system.make_cart()
        system.library.admit(outbound)
        outbound = system.library.checkout(outbound.cart_id)
        # Place a second cart at the rack, ready to come home.
        inbound = system.make_cart()
        inbound.location = 1
        inbound.transition(CartState.READY)
        done = [system.shuttle(outbound, dst=1), system.shuttle(inbound, dst=0)]
        env.run(until=env.all_of(done))
        assert env.now == pytest.approx(trip_time(DhlParams()))


class TestDispatchReturn:
    def test_dispatch_docks_at_station(self, env):
        system = make_system(env)
        dataset = synthetic_dataset(256 * TB)
        system.load_dataset(dataset)
        cart = system.library.cart_holding(dataset.name, 0)
        station = env.run(until=system.dispatch_to_rack(cart.cart_id, 1))
        assert station.cart is cart
        assert cart.state == CartState.DOCKED
        assert system.metrics.value("count.dispatches") == 1

    def test_return_frees_slot_and_stores(self, env):
        system = make_system(env, stations_per_rack=1)
        dataset = synthetic_dataset(256 * TB)
        system.load_dataset(dataset)
        cart = system.library.cart_holding(dataset.name, 0)
        station = env.run(until=system.dispatch_to_rack(cart.cart_id, 1))
        assert system.rack(1).slots.count == 1
        env.run(until=system.return_to_library(station.cart, 1))
        assert system.rack(1).slots.count == 0
        assert cart.state == CartState.STORED
        assert system.library.stored_count == 1
        assert system.metrics.value("count.returns") == 1

    def test_dock_capacity_limits_concurrency(self, env):
        # With 1 station, the second dispatch waits for the first return.
        system = make_system(env, stations_per_rack=1)
        dataset = synthetic_dataset(2 * 256 * TB)
        system.load_dataset(dataset)
        first = system.library.cart_holding(dataset.name, 0)
        second = system.library.cart_holding(dataset.name, 1)

        def run():
            station = yield system.dispatch_to_rack(first.cart_id, 1)
            pending = system.dispatch_to_rack(second.cart_id, 1)
            yield env.timeout(100)
            assert second.state == CartState.STORED  # still waiting
            yield system.return_to_library(station.cart, 1)
            yield pending
            return env.now

        env.run(until=env.process(run()))
        assert second.state == CartState.DOCKED

    def test_round_trip_energy_is_two_launches(self, env):
        system = make_system(env)
        dataset = synthetic_dataset(256 * TB)
        system.load_dataset(dataset)
        cart = system.library.cart_holding(dataset.name, 0)
        station = env.run(until=system.dispatch_to_rack(cart.cart_id, 1))
        env.run(until=system.return_to_library(station.cart, 1))
        assert system.total_launches == 2
        assert system.total_launch_energy == pytest.approx(
            2 * launch_energy(DhlParams())
        )
        assert env.now == pytest.approx(2 * trip_time(DhlParams()))


class TestLoadDataset:
    def test_load_creates_shard_carts(self, env):
        system = make_system(env)
        plan = system.load_dataset(synthetic_dataset(3 * 256 * TB))
        assert plan.n_carts == 3
        assert system.library.stored_count == 3

    def test_load_29pb_needs_114_carts(self, env):
        system = make_system(env, library_slots=200)
        plan = system.load_dataset(synthetic_dataset(29_000 * TB))
        assert plan.n_carts == 114


class TestFailureRecovery:
    """Failed shuttles must never leak claims, carts or dock slots."""

    def breach(self, system):
        system.tracks[0].health.mark_down(system.env.now)

    def repair(self, system):
        system.tracks[0].health.mark_up(system.env.now)

    def test_failed_dispatch_releases_slot_and_readmits_cart(self, env):
        from repro.errors import TrackFaultError

        system = make_system(env)
        dataset = synthetic_dataset(256 * TB)
        system.load_dataset(dataset)
        cart = system.library.cart_holding(dataset.name, 0)
        self.breach(system)
        with pytest.raises(TrackFaultError):
            env.run(until=system.dispatch_to_rack(cart.cart_id, 1))
        assert system.rack(1).slots.count == 0
        assert cart.state == CartState.STORED
        assert system.library.stored_count == 1  # cart re-admitted, not lost

    def test_failed_return_redocks_the_cart(self, env):
        # Regression: _return detached the cart and released its slot
        # before the shuttle; a mid-shuttle fault left the cart detached
        # in limbo.  It must re-attach to a free station instead.
        from repro.errors import TrackFaultError

        system = make_system(env)
        dataset = synthetic_dataset(256 * TB)
        system.load_dataset(dataset)
        cart = system.library.cart_holding(dataset.name, 0)
        station = env.run(until=system.dispatch_to_rack(cart.cart_id, 1))
        self.breach(system)
        with pytest.raises(TrackFaultError):
            env.run(until=system.return_to_library(cart, 1))
        assert cart.state == CartState.DOCKED
        assert system.rack(1).station_holding(cart) is not None
        assert system.rack(1).slots.count == 1
        assert all(v == 0 for v in system.leaked_resources().values())

    def test_failed_return_with_full_rack_strands_into_recovery_bay(self, env):
        from repro.errors import TrackFaultError

        system = make_system(env, stations_per_rack=2)
        dataset = synthetic_dataset(2 * 256 * TB)
        system.load_dataset(dataset)
        first = system.library.cart_holding(dataset.name, 0)
        second = system.library.cart_holding(dataset.name, 1)
        env.run(until=system.dispatch_to_rack(first.cart_id, 1))
        env.run(until=system.dispatch_to_rack(second.cart_id, 1))

        def run():
            # Occupy the slot the return just released so re-docking is
            # impossible when the shuttle fails.
            blocker = system.rack(1).slots.request()
            failed = system.return_to_library(first, 1)
            self.breach(system)
            try:
                yield failed
            except TrackFaultError:
                pass
            blocker.release()

        env.run(until=env.process(run()))
        rack = system.rack(1)
        assert first in rack.stranded
        assert system.metrics.value("count.stranded_carts") == 1

        # A later return attempt picks the cart up from the recovery bay.
        self.repair(system)
        env.run(until=system.return_to_library(first, 1))
        assert first.state == CartState.STORED
        assert first not in rack.stranded
        assert all(v == 0 for v in system.leaked_resources().values())
