"""Repair-crew saturation: FIFO dispatch and closed-form agreement.

The satellite acceptance check: with a single shared crew, queued
repairs are served strictly in fault order, and an *unsaturated*
campaign's measured availability still lands within 10% of the
``repro.core.availability`` closed-form prediction — bounding a crew
does not distort the model until the crew actually saturates.
"""

import pytest

from repro.chaos.crew import RepairCrewPool
from repro.core.availability import RepairableComponent
from repro.dhlsim.reliability import TrackOutageInjector
from repro.dhlsim.scheduler import DhlSystem
from repro.errors import ConfigurationError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestPoolBasics:
    def test_rejects_crewless_pool(self, env):
        with pytest.raises(ConfigurationError, match="crews"):
            RepairCrewPool(env, crews=0)

    def test_fifo_dispatch_under_contention(self, env):
        pool = RepairCrewPool(env, crews=1)

        def repair(component, hold_s):
            claim = pool.request(component)
            yield claim
            yield env.timeout(hold_s)
            claim.release()

        def schedule():
            env.process(repair("a", 10.0))
            yield env.timeout(1.0)
            env.process(repair("b", 10.0))
            yield env.timeout(1.0)
            env.process(repair("c", 10.0))

        env.process(schedule())
        env.run(until=5.0)
        assert pool.busy == 1
        assert pool.queued == 2
        env.run(until=50.0)
        assert pool.busy == 0
        assert pool.saturated_waits == 2
        assert pool.fifo_preserved
        assert [c for _, c in pool.dispatched] == ["a", "b", "c"]
        # Crew grants are back-to-back: b starts when a's repair ends.
        assert [t for t, _ in pool.dispatched] == [0.0, 10.0, 20.0]


class TestSaturation:
    def test_concurrent_faults_queue_and_stretch_repair(self, env):
        # Two tracks (one system each) on one clock and one crew.
        first_system, second_system = DhlSystem(env), DhlSystem(env)
        pool = RepairCrewPool(env, crews=1)
        first = TrackOutageInjector(
            first_system, mttf_s=100.0, mttr_s=50.0, distribution="fixed",
            crew=pool,
        )
        second = TrackOutageInjector(
            second_system, mttf_s=100.0, mttr_s=50.0, distribution="fixed",
            crew=pool,
        )
        env.run(until=190.0)
        # Both fault at t=100; the injector created first wins the
        # crew, the second repair queues the full 50 s behind it.
        assert first.outages == 1
        assert second.outages == 1
        assert pool.saturated_waits >= 1
        assert pool.fifo_preserved
        assert first.crew_wait_s == pytest.approx(0.0)
        assert second.crew_wait_s == pytest.approx(50.0)
        # Fault at t=100, crew free at t=150, repaired at t=200: the
        # second track is still down at t=190, though its MTTR is 50 s.
        assert first_system.tracks[0].health.tube_available
        assert not second_system.tracks[0].health.tube_available
        first.stop()
        second.stop()

    def test_unsaturated_availability_matches_closed_form(self, env):
        system = DhlSystem(env)
        pool = RepairCrewPool(env, crews=1)
        injector = TrackOutageInjector(
            system, mttf_s=200.0, mttr_s=40.0, distribution="fixed", crew=pool
        )
        horizon = 4810.0  # 20 full fail/repair cycles, last repair at 4800
        env.run(until=horizon)
        health = system.tracks[0].health
        measured = 1.0 - health.downtime_s / horizon
        component = injector.component("track")
        assert component == RepairableComponent("track", 200.0, 40.0)
        assert measured == pytest.approx(component.availability, rel=0.10)
        # A single injector never contends with itself.
        assert pool.saturated_waits == 0
        assert injector.crew_wait_s == pytest.approx(0.0)
        injector.stop()

    def test_seeded_exponential_cadence_is_reproducible(self):
        def run_once():
            env = Environment()
            pool = RepairCrewPool(env, crews=1)
            TrackOutageInjector(
                DhlSystem(env), mttf_s=300.0, mttr_s=60.0, seed=17, crew=pool
            )
            TrackOutageInjector(
                DhlSystem(env), mttf_s=300.0, mttr_s=60.0, seed=18, crew=pool
            )
            env.run(until=5000.0)
            return tuple(pool.requested), tuple(pool.dispatched)

        assert run_once() == run_once()
