"""Tests for time-weighted statistics and utilisation monitoring."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource
from repro.obs.metrics import TimeWeightedValue, UtilisationMonitor


class TestTimeWeightedValue:
    def test_constant_signal(self):
        env = Environment()
        signal = TimeWeightedValue(env, value=3.0)
        env.timeout(10)
        env.run()
        assert signal.time_average() == pytest.approx(3.0)

    def test_step_change(self):
        env = Environment()
        signal = TimeWeightedValue(env, value=0.0)

        def stepper():
            yield env.timeout(4)
            signal.set(10.0)
            yield env.timeout(6)

        env.process(stepper())
        env.run()
        # 0 for 4 s, 10 for 6 s -> 6.0 average over 10 s.
        assert signal.time_average() == pytest.approx(6.0)

    def test_add_delta(self):
        env = Environment()
        signal = TimeWeightedValue(env, value=1.0)

        def stepper():
            yield env.timeout(5)
            signal.add(2.0)
            yield env.timeout(5)

        env.process(stepper())
        env.run()
        assert signal.time_average() == pytest.approx((1 * 5 + 3 * 5) / 10)

    def test_peak_tracked(self):
        env = Environment()
        signal = TimeWeightedValue(env, value=0.0)

        def stepper():
            yield env.timeout(1)
            signal.set(7.0)
            yield env.timeout(1)
            signal.set(2.0)
            yield env.timeout(1)

        env.process(stepper())
        env.run()
        assert signal.peak == 7.0

    def test_no_elapsed_time_rejected(self):
        env = Environment()
        signal = TimeWeightedValue(env, value=1.0)
        with pytest.raises(SimulationError):
            signal.time_average()


class TestUtilisationMonitor:
    def test_half_busy_resource(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        monitor = UtilisationMonitor(resource)

        def worker():
            with resource.request() as claim:
                yield claim
                yield env.timeout(5)
            yield env.timeout(5)

        env.process(worker())
        env.run()
        assert monitor.utilisation() == pytest.approx(0.5)

    def test_queued_grants_counted_from_grant_time(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        monitor = UtilisationMonitor(resource)

        def worker(duration):
            with resource.request() as claim:
                yield claim
                yield env.timeout(duration)

        env.process(worker(4))
        env.process(worker(4))
        env.run()
        # Busy 8 s straight through: utilisation 1.0 over the 8 s run.
        assert monitor.utilisation() == pytest.approx(1.0)
        assert monitor.peak_in_use == 1

    def test_multi_capacity_average(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        monitor = UtilisationMonitor(resource)

        def worker():
            with resource.request() as claim:
                yield claim
                yield env.timeout(10)

        env.process(worker())
        env.run()
        # One of two slots busy for the whole run.
        assert monitor.utilisation() == pytest.approx(0.5)
        assert monitor.peak_in_use == 1

    def test_tube_utilisation_in_dhl_system(self):
        """End-to-end: measure the tube's busy fraction in a transfer."""
        from repro.dhlsim import DhlApi, DhlSystem
        from repro.storage import synthetic_dataset
        from repro.units import TB

        env = Environment()
        system = DhlSystem(env, stations_per_rack=2)
        monitor = UtilisationMonitor(system.tracks[0].tube)
        dataset = synthetic_dataset(3 * 256 * TB, name="util")
        system.load_dataset(dataset)
        api = DhlApi(system)
        env.run(until=api.bulk_transfer(dataset))
        # Trips are seconds; reads are ~19 minutes: the tube idles most
        # of the run.
        assert 0 < monitor.utilisation() < 0.1
        assert monitor.peak_in_use == 1
