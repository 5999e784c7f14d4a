"""Tests for time-weighted statistics and probed resource utilisation."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource
from repro.obs.metrics import MetricsRegistry, TimeWeightedValue
from repro.obs.probe import ResourceProbe
from repro.obs.tracer import TraceLevel, Tracer


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


def _probed(resource):
    """Probe ``resource`` with an untraced registry; return its occupancy."""
    metrics = MetricsRegistry(resource.env)
    ResourceProbe(resource, Tracer(resource.env, level=TraceLevel.OFF), "r",
                  metrics=metrics)
    return metrics.time_weighted("occupancy.r")


class TestProbeUtilisation:
    """A ResourceProbe's ``occupancy.*`` metric is the resource's busy level."""

    def test_half_busy_resource(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        occupancy = _probed(resource)

        def worker():
            with resource.request() as claim:
                yield claim
                yield env.timeout(5)
            yield env.timeout(5)

        env.process(worker())
        env.run()
        assert occupancy.time_average() / resource.capacity == pytest.approx(0.5)

    def test_queued_grants_counted_from_grant_time(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        occupancy = _probed(resource)

        def worker(duration):
            with resource.request() as claim:
                yield claim
                yield env.timeout(duration)

        env.process(worker(4))
        env.process(worker(4))
        env.run()
        # Busy 8 s straight through: utilisation 1.0 over the 8 s run.
        assert occupancy.time_average() / resource.capacity == pytest.approx(1.0)
        assert occupancy.peak == 1

    def test_multi_capacity_average(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        occupancy = _probed(resource)

        def worker():
            with resource.request() as claim:
                yield claim
                yield env.timeout(10)

        env.process(worker())
        env.run()
        # One of two slots busy for the whole run.
        assert occupancy.time_average() / resource.capacity == pytest.approx(0.5)
        assert occupancy.peak == 1

    def test_tube_utilisation_in_dhl_system(self):
        """End-to-end: measure the tube's busy fraction in a transfer."""
        from repro.dhlsim import DhlApi, DhlSystem
        from repro.storage import synthetic_dataset
        from repro.units import TB

        env = Environment()
        system = DhlSystem(env, stations_per_rack=2)
        track = system.tracks[0]
        tube = track.tube
        name = f"tube:{track.name}"
        ResourceProbe(tube, system.tracer, name, metrics=system.metrics)
        dataset = synthetic_dataset(3 * 256 * TB, name="util")
        system.load_dataset(dataset)
        api = DhlApi(system)
        env.run(until=api.bulk_transfer(dataset))
        occupancy = system.metrics.time_weighted(f"occupancy.{name}")
        # Trips are seconds; reads are ~19 minutes: the tube idles most
        # of the run.
        assert 0 < occupancy.time_average() / tube.capacity < 0.1
        assert occupancy.peak == 1
