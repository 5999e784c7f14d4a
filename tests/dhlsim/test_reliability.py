"""Tests for track/cart fault models, retry policies and failover."""

import pytest

from repro.core.params import DhlParams
from repro.core.physics import trip_time
from repro.dhlsim.api import DhlApi
from repro.dhlsim.cart import CartState
from repro.dhlsim.policy import FailoverPolicy, ShuttlePolicy
from repro.dhlsim.reliability import (
    CartStallInjector,
    ChaosSpec,
    TrackOutageInjector,
    install_chaos,
)
from repro.dhlsim.scheduler import DhlSystem
from repro.errors import (
    ConfigurationError,
    DegradedServiceError,
    ShuttleTimeoutError,
    TrackFaultError,
)
from repro.network.routes import ROUTE_B
from repro.network.transfer import OpticalLink
from repro.sim import Environment
from repro.storage.datasets import synthetic_dataset
from repro.units import TB


@pytest.fixture
def env():
    return Environment()


def ready_cart(system):
    cart = system.make_cart()
    system.library.admit(cart)
    return system.library.checkout(cart.cart_id)


class TestShuttlePolicy:
    def test_backoff_grows_geometrically_and_caps(self):
        import numpy as np

        policy = ShuttlePolicy(
            max_attempts=5, base_backoff_s=1.0, backoff_factor=2.0, max_backoff_s=5.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.backoff_delay(n, rng) for n in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_is_deterministic_under_seed(self):
        import numpy as np

        policy = ShuttlePolicy(max_attempts=2, jitter_frac=0.5)
        first = [policy.backoff_delay(1, np.random.default_rng(7)) for _ in range(3)]
        second = [policy.backoff_delay(1, np.random.default_rng(7)) for _ in range(3)]
        assert first == second
        assert first[0] != 1.0  # jitter actually applied

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShuttlePolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ShuttlePolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            ShuttlePolicy(jitter_frac=1.0)
        with pytest.raises(ConfigurationError):
            ShuttlePolicy(deadline_s=0.0)


class TestTrackOutage:
    def test_fixed_distribution_is_periodic(self, env):
        system = DhlSystem(env)
        injector = TrackOutageInjector(
            system, mttf_s=100.0, mttr_s=10.0, distribution="fixed"
        )
        track = system.tracks[0]
        env.run(until=50.0)
        assert track.health.tube_available
        env.run(until=105.0)
        assert not track.health.tube_available
        env.run(until=111.0)
        assert track.health.tube_available
        assert injector.outages == 1
        assert track.health.downtime_s == pytest.approx(10.0)

    def test_breach_fails_fast_without_retry_policy(self, env):
        system = DhlSystem(env)  # NO_RETRY default
        system.tracks[0].health.mark_down(env.now)
        cart = ready_cart(system)
        with pytest.raises(TrackFaultError, match="unavailable"):
            env.run(until=system.shuttle(cart, dst=1))
        # The failed attempt must not leak the tube claim or the cart.
        assert system.tracks[0].tube.count == 0
        assert cart.state == CartState.READY
        assert cart.location == 0

    def test_retry_policy_rides_out_the_outage(self, env):
        policy = ShuttlePolicy(max_attempts=10, base_backoff_s=0.7, backoff_factor=1.0)
        system = DhlSystem(env, shuttle_policy=policy)
        TrackOutageInjector(
            system, mttf_s=1.0, mttr_s=5.0, distribution="fixed"
        )
        cart = ready_cart(system)

        def run():
            yield env.timeout(2.0)  # launch mid-outage
            yield system.shuttle(cart, dst=1)

        env.run(until=env.process(run()))
        assert cart.location == 1
        assert system.metrics.value("count.shuttle_retries") >= 1
        assert system.metrics.value("count.shuttle_faults") >= 1

    def test_stop_repairs_outstanding_fault(self, env):
        system = DhlSystem(env)
        injector = TrackOutageInjector(
            system, mttf_s=10.0, mttr_s=1000.0, distribution="fixed"
        )
        env.run(until=20.0)
        assert not system.tracks[0].health.tube_available
        injector.stop()
        env.run(until=21.0)
        assert system.tracks[0].health.tube_available

    def test_rejects_unknown_distribution(self, env):
        with pytest.raises(ConfigurationError, match="distribution"):
            TrackOutageInjector(
                DhlSystem(env), mttf_s=10.0, mttr_s=1.0, distribution="weibull"
            )


class TestLimDegradation:
    def test_degraded_lim_slows_travel(self, env):
        system = DhlSystem(env)
        system.tracks[0].health.degrade_lim(2.0)
        cart = ready_cart(system)
        env.run(until=system.shuttle(cart, dst=1))
        params = DhlParams()
        healthy = trip_time(params)
        travel = healthy - params.undock_time - params.dock_time
        assert env.now == pytest.approx(healthy + travel)


class TestCartStall:
    def test_stall_inflates_shuttle_time(self, env):
        system = DhlSystem(env)
        CartStallInjector(system, stall_prob=1.0, stall_time_s=7.0)
        cart = ready_cart(system)
        env.run(until=system.shuttle(cart, dst=1))
        assert env.now == pytest.approx(trip_time(DhlParams()) + 7.0)
        assert system.metrics.value("count.cart_stalls") == 1
        assert system.metrics.value("duration_s.stall") == pytest.approx(7.0)

    def test_abort_fails_the_attempt(self, env):
        system = DhlSystem(env)
        CartStallInjector(system, stall_prob=1.0, stall_time_s=1.0, abort_prob=1.0)
        cart = ready_cart(system)
        with pytest.raises(TrackFaultError, match="extracted"):
            env.run(until=system.shuttle(cart, dst=1))
        assert cart.state == CartState.READY
        assert cart.location == 0
        assert system.tracks[0].tube.count == 0

    def test_detach_stops_injection(self, env):
        system = DhlSystem(env)
        injector = CartStallInjector(system, stall_prob=1.0, stall_time_s=7.0)
        injector.detach()
        assert not system.pre_shuttle_hooks
        cart = ready_cart(system)
        env.run(until=system.shuttle(cart, dst=1))
        assert env.now == pytest.approx(trip_time(DhlParams()))
        assert injector.stalls == 0


class TestDeadline:
    def test_deadline_raises_timeout_and_recovers_cart(self, env):
        policy = ShuttlePolicy(max_attempts=1, deadline_s=1.0)
        system = DhlSystem(env, shuttle_policy=policy)
        cart = ready_cart(system)
        assert trip_time(DhlParams()) > 1.0
        with pytest.raises(ShuttleTimeoutError, match="deadline"):
            env.run(until=system.shuttle(cart, dst=1))
        assert env.now == pytest.approx(1.0)
        assert cart.state == CartState.READY
        assert cart.location == 0
        assert system.tracks[0].tube.count == 0
        assert system.metrics.value("count.shuttle_timeouts") == 1

    def test_generous_deadline_is_invisible(self, env):
        policy = ShuttlePolicy(max_attempts=1, deadline_s=1e6)
        system = DhlSystem(env, shuttle_policy=policy)
        cart = ready_cart(system)
        env.run(until=system.shuttle(cart, dst=1))
        assert env.now == pytest.approx(trip_time(DhlParams()))
        assert cart.location == 1

    def test_backoff_past_deadline_surfaces_timeout_not_crash(self, env):
        # Regression: the attempt process used to be spawned before the
        # exhaustion check, so a backoff that slept past the deadline
        # left an orphaned attempt whose TrackFaultError crashed the
        # whole run instead of surfacing ShuttleTimeoutError.
        policy = ShuttlePolicy(max_attempts=3, base_backoff_s=50.0, deadline_s=10.0)
        system = DhlSystem(env, shuttle_policy=policy)
        system.tracks[0].health.mark_down(env.now)  # every attempt faults
        cart = ready_cart(system)
        with pytest.raises(ShuttleTimeoutError, match="exhausted"):
            env.run(until=system.shuttle(cart, dst=1))
        # Backoff is capped at the deadline, so the timeout fires at
        # t=10, not after the full 50 s sleep.
        assert env.now == pytest.approx(10.0)
        assert cart.state == CartState.READY
        assert system.tracks[0].tube.count == 0
        assert system.metrics.value("count.shuttle_timeouts") == 1
        env.run()  # no orphaned attempt left behind to crash the drain

    def test_won_race_leaves_no_deadline_event_queued(self, env):
        # Regression: the losing deadline timeout stayed queued after a
        # successful shuttle, so a draining run() spun virtual time out
        # to the full deadline.
        policy = ShuttlePolicy(max_attempts=1, deadline_s=100_000.0)
        system = DhlSystem(env, shuttle_policy=policy)
        cart = ready_cart(system)
        env.run(until=system.shuttle(cart, dst=1))
        finished_at = env.now
        env.run()  # drain
        assert env.now == pytest.approx(finished_at)
        assert env.peek() == float("inf")


class TestGiveUp:
    def test_long_outage_degrades_instead_of_retrying_forever(self, env):
        policy = ShuttlePolicy(
            max_attempts=100, base_backoff_s=1.0, give_up_outage_s=10.0
        )
        system = DhlSystem(env, shuttle_policy=policy)
        system.tracks[0].health.mark_down(env.now)  # never repaired
        cart = ready_cart(system)
        with pytest.raises(DegradedServiceError, match="degrading"):
            env.run(until=system.shuttle(cart, dst=1))
        assert env.now < 100.0  # gave up long before exhausting attempts
        assert cart.state == CartState.READY

    def test_exhausted_attempts_degrade(self, env):
        policy = ShuttlePolicy(max_attempts=3, base_backoff_s=0.5)
        system = DhlSystem(env, shuttle_policy=policy)
        system.tracks[0].health.mark_down(env.now)
        cart = ready_cart(system)
        with pytest.raises(DegradedServiceError, match="after 3 attempts"):
            env.run(until=system.shuttle(cart, dst=1))
        assert system.metrics.value("count.shuttle_faults") == 3
        assert system.metrics.value("count.shuttle_retries") == 2


class TestFailover:
    def test_dead_track_reroutes_over_optical_network(self, env):
        policy = ShuttlePolicy(max_attempts=2, base_backoff_s=0.5, give_up_outage_s=5.0)
        link = OpticalLink(route=ROUTE_B)
        system = DhlSystem(
            env, shuttle_policy=policy, failover=FailoverPolicy(link=link)
        )
        system.tracks[0].health.mark_down(env.now)  # permanently down
        dataset = synthetic_dataset(2 * 200 * TB, name="rerouted")
        system.load_dataset(dataset)
        api = DhlApi(system)
        report = env.run(until=api.bulk_transfer(dataset))
        assert report.bytes_delivered == pytest.approx(dataset.size_bytes)
        assert system.metrics.value("count.failovers") == report.shards_moved
        assert system.metrics.value("energy_j.network_failover") > 0
        assert report.launches == 0  # nothing ever rode the tube
        # Failover time is the optical link's, not the hyperloop's.
        shard_bytes = dataset.size_bytes / report.shards_moved
        assert report.elapsed_s >= link.transfer_time(shard_bytes)

    def test_without_failover_transfer_waits_for_repair(self, env):
        policy = ShuttlePolicy(max_attempts=2, base_backoff_s=0.5, give_up_outage_s=2.0)
        system = DhlSystem(env, shuttle_policy=policy)
        TrackOutageInjector(
            system, mttf_s=1.0, mttr_s=50.0, distribution="fixed"
        )
        dataset = synthetic_dataset(200 * TB, name="patient")
        system.load_dataset(dataset)
        api = DhlApi(system)
        report = env.run(until=api.bulk_transfer(dataset, read_payload=False))
        assert report.bytes_delivered == pytest.approx(dataset.size_bytes)
        # The outbound launch beats the breach; the return leg must wait
        # out the 50 s repair rather than abandoning the cart.
        assert system.metrics.value("count.return_deferrals") >= 1
        assert system.metrics.value("count.failovers") == 0
        assert report.elapsed_s > 50.0


class TestChaosDeterminism:
    def run_campaign(self, seed):
        env = Environment()
        policy = ShuttlePolicy(
            max_attempts=20, base_backoff_s=0.5, backoff_factor=2.0,
            max_backoff_s=4.0, jitter_frac=0.25,
        )
        system = DhlSystem(env, parity_drives=4, shuttle_policy=policy)
        dataset = synthetic_dataset(20 * 200 * TB, name="chaos")
        system.load_dataset(dataset)
        spec = ChaosSpec(
            track_mttf_s=150.0, track_mttr_s=30.0, stall_prob=0.1,
            stall_time_s=5.0, stall_abort_prob=0.2,
            drive_failure_prob=0.0005, seed=seed,
        )
        install_chaos(system, spec)
        api = DhlApi(system)
        report = env.run(until=api.bulk_transfer(dataset, read_payload=False))
        return report, system.metrics.counters_with_prefix("count.")

    def test_same_seed_same_telemetry(self):
        report_a, counters_a = self.run_campaign(seed=5)
        report_b, counters_b = self.run_campaign(seed=5)
        assert counters_a == counters_b
        assert report_a.elapsed_s == report_b.elapsed_s
        assert report_a.launch_energy_j == report_b.launch_energy_j

    def test_different_seed_different_schedule(self):
        report_a, _ = self.run_campaign(seed=5)
        report_b, _ = self.run_campaign(seed=6)
        assert report_a.elapsed_s != report_b.elapsed_s


class TestRegistryPin:
    """Registry state after retries, faults, stalls and a timeout.

    The scheduler and API bump counters through one first-use memo; the
    registry must still hold the same names, created in the same order,
    with the same values.
    """

    def test_memoised_counters_leave_the_registry_unchanged(self):
        env = Environment()
        policy = ShuttlePolicy(
            max_attempts=20, base_backoff_s=0.5, backoff_factor=2.0,
            max_backoff_s=4.0, jitter_frac=0.25,
        )
        system = DhlSystem(env, parity_drives=4, shuttle_policy=policy)
        dataset = synthetic_dataset(20 * 200 * TB, name="chaos")
        system.load_dataset(dataset)
        handles = install_chaos(system, ChaosSpec(
            track_mttf_s=150.0, track_mttr_s=30.0, stall_prob=0.1,
            stall_time_s=5.0, stall_abort_prob=0.2,
            drive_failure_prob=0.0005, seed=5,
        ))
        report = env.run(until=DhlApi(system).bulk_transfer(
            dataset, read_payload=False
        ))
        handles.stop()
        system.shuttle_policy = ShuttlePolicy(max_attempts=1, deadline_s=1.0)
        cart = system.library.checkout(next(iter(system.library.carts)))
        with pytest.raises(ShuttleTimeoutError):
            env.run(until=system.shuttle(cart, dst=1))

        assert (report.shards_moved, report.launches) == (18, 36)
        assert list(system.metrics._metrics) == [
            "energy_j.launch",
            "count.launches",
            "count.dispatches",
            "count.returns",
            "count.cart_stalls",
            "duration_s.stall",
            "count.shuttle_faults",
            "count.shuttle_retries",
            "count.track_outages",
            "duration_s.track_downtime",
            "count.shuttle_timeouts",
        ]
        values = {
            name: entry["value"]
            for name, entry in system.metrics.snapshot().items()
        }
        assert values == {
            "count.cart_stalls": 2.0,
            "count.dispatches": 18.0,
            "count.launches": 36.0,
            "count.returns": 18.0,
            "count.shuttle_faults": 18.0,
            "count.shuttle_retries": 18.0,
            "count.shuttle_timeouts": 1.0,
            "count.track_outages": 1.0,
            "duration_s.stall": 10.0,
            "duration_s.track_downtime": 22.505742959909707,
            "energy_j.launch": 541286.4,
        }


class TestChaosAcceptance:
    """The headline invariant: a seeded chaos campaign completes with no
    leaked resources and lands within 10% of the closed-form model."""

    def run_chaos(self, spec, shards=150):
        env = Environment()
        policy = ShuttlePolicy(
            max_attempts=20, base_backoff_s=0.5, backoff_factor=2.0,
            max_backoff_s=4.0, jitter_frac=0.25,
        )
        system = DhlSystem(env, parity_drives=4, shuttle_policy=policy)
        dataset = synthetic_dataset(shards * 200 * TB, name="chaos")
        system.load_dataset(dataset)
        handles = install_chaos(system, spec) if spec else None
        api = DhlApi(system)
        report = env.run(until=api.bulk_transfer(dataset, read_payload=False))
        return system, report, handles

    def test_chaos_campaign_matches_availability_model(self):
        params = DhlParams()
        baseline_system, baseline, _ = self.run_chaos(None)
        per_shuttle = (
            params.undock_time
            + baseline_system.tracks[0].travel_time(0, 1)
            + params.dock_time
        )
        spec = ChaosSpec(
            track_mttf_s=400.0, track_mttr_s=60.0,
            stall_prob=0.05, stall_time_s=5.0, stall_abort_prob=0.2,
            drive_failure_prob=0.0005, seed=11,
            distribution="fixed",  # deterministic outage cadence
        )
        system, report, handles = self.run_chaos(spec)

        # 1. The campaign completed: every byte arrived, every cart is home.
        assert report.bytes_delivered == pytest.approx(
            report.dataset.size_bytes
        )
        assert system.library.stored_count == report.shards_moved

        # 2. Zero leaked claims on tubes and dock slots.
        assert all(count == 0 for count in system.leaked_resources().values())

        # 3. The metrics registry tells the reliability story.
        metrics = system.metrics
        assert metrics.value("count.track_outages") >= 1
        assert metrics.value("count.shuttle_retries") >= 1
        assert metrics.value("count.cart_stalls") >= 1
        assert metrics.value("duration_s.track_downtime") > 0

        # 4. DES-measured bandwidth within 10% of the closed-form model.
        model = handles.availability_model(per_shuttle)
        predicted = model.effective_bandwidth(baseline.effective_bandwidth)
        assert report.effective_bandwidth == pytest.approx(predicted, rel=0.10)

    @pytest.mark.slow
    def test_model_agreement_across_seeds(self):
        params = DhlParams()
        baseline_system, baseline, _ = self.run_chaos(None)
        per_shuttle = (
            params.undock_time
            + baseline_system.tracks[0].travel_time(0, 1)
            + params.dock_time
        )
        for seed in (1, 2, 3, 4, 11):
            spec = ChaosSpec(
                track_mttf_s=400.0, track_mttr_s=60.0,
                stall_prob=0.05, stall_time_s=5.0, stall_abort_prob=0.2,
                drive_failure_prob=0.0005, seed=seed, distribution="fixed",
            )
            system, report, handles = self.run_chaos(spec)
            assert all(
                count == 0 for count in system.leaked_resources().values()
            )
            model = handles.availability_model(per_shuttle)
            predicted = model.effective_bandwidth(baseline.effective_bandwidth)
            assert report.effective_bandwidth == pytest.approx(predicted, rel=0.10)
