"""Tests for the bulk write-back (backup) orchestration."""

import pytest

from repro.core.params import DhlParams
from repro.core.physics import trip_time
from repro.dhlsim.api import DhlApi
from repro.dhlsim.policy import FailoverPolicy, ShuttlePolicy
from repro.dhlsim.scheduler import DhlSystem
from repro.errors import SchedulingError
from repro.network.routes import ROUTE_B
from repro.network.transfer import OpticalLink
from repro.obs.tracer import Tracer
from repro.sim import Environment
from repro.storage.datasets import synthetic_dataset
from repro.units import TB


@pytest.fixture
def env():
    return Environment()


def system_with_empties(env, n_carts=4, stations=2):
    system = DhlSystem(env, stations_per_rack=stations)
    system.add_empty_carts(n_carts)
    return system


class TestAddEmptyCarts:
    def test_staged_in_library(self, env):
        system = system_with_empties(env, n_carts=3)
        assert system.library.stored_count == 3
        assert all(not cart.shards for cart in system.library.carts.values())

    def test_rejects_zero(self, env):
        with pytest.raises(SchedulingError):
            DhlSystem(env).add_empty_carts(0)


class TestBulkWriteback:
    def test_backup_lands_in_library(self, env):
        system = system_with_empties(env, n_carts=3)
        api = DhlApi(system)
        backup = synthetic_dataset(3 * 256 * TB, name="backup")
        report = env.run(until=api.bulk_writeback(backup))
        assert report.shards_moved == 3
        assert report.bytes_delivered == pytest.approx(backup.size_bytes)
        # All carts back home, now loaded with the backup shards.
        assert system.library.stored_count == 3
        for index in range(3):
            assert system.library.cart_holding("backup", index) is not None

    def test_write_time_dominates(self, env):
        # Writing 256 TB at 32 x 6 GB/s takes ~22 min per cart; trips are
        # seconds.  The report must reflect write-bound elapsed time.
        system = system_with_empties(env, n_carts=1, stations=1)
        api = DhlApi(system)
        backup = synthetic_dataset(256 * TB, name="wb")
        report = env.run(until=api.bulk_writeback(backup))
        write_time = 256e12 / (32 * 6e9)
        assert report.elapsed_s == pytest.approx(
            write_time + 2 * trip_time(DhlParams()), rel=0.01
        )

    def test_pipelines_across_stations(self, env):
        serial_env = Environment()
        serial = system_with_empties(serial_env, n_carts=4, stations=1)
        serial_report = serial_env.run(
            until=DhlApi(serial).bulk_writeback(
                synthetic_dataset(4 * 256 * TB, name="wb-serial")
            )
        )
        parallel_env = Environment()
        parallel = system_with_empties(parallel_env, n_carts=4, stations=4)
        parallel_report = parallel_env.run(
            until=DhlApi(parallel).bulk_writeback(
                synthetic_dataset(4 * 256 * TB, name="wb-par")
            )
        )
        assert parallel_report.elapsed_s < serial_report.elapsed_s / 2

    def test_insufficient_carts_rejected(self, env):
        system = system_with_empties(env, n_carts=1)
        api = DhlApi(system)
        with pytest.raises(SchedulingError, match="needs 2 empty carts"):
            env.run(until=api.bulk_writeback(
                synthetic_dataset(2 * 256 * TB, name="too-big")
            ))

    def test_energy_accounting(self, env):
        from repro.core.physics import launch_energy

        system = system_with_empties(env, n_carts=2)
        api = DhlApi(system)
        report = env.run(until=api.bulk_writeback(
            synthetic_dataset(2 * 256 * TB, name="wb-e")
        ))
        assert report.launches == 4
        assert report.launch_energy_j == pytest.approx(
            4 * launch_energy(DhlParams())
        )

    def test_roundtrip_backup_then_restore(self, env):
        """Write a backup out, then Open/Read it back — full cycle."""
        system = system_with_empties(env, n_carts=2)
        api = DhlApi(system)
        backup = synthetic_dataset(2 * 256 * TB, name="cycle")
        env.run(until=api.bulk_writeback(backup))
        restore = env.run(until=api.bulk_transfer(backup, read_payload=True))
        assert restore.bytes_delivered == pytest.approx(backup.size_bytes)
        assert system.library.stored_count == 2


def dead_track_move(direction, failover):
    """A 4-shard bulk move in ``direction`` with the only track down from t = 0.

    With ``failover`` the system has an optical-network failover policy;
    without one the track is repaired at t = 60 s.  Returns the report,
    the system and its tracer.
    """
    tracer = Tracer()
    env = Environment(tracer=tracer)
    system = DhlSystem(
        env, tracer=tracer,
        shuttle_policy=ShuttlePolicy(max_attempts=2, base_backoff_s=0.5,
                                     give_up_outage_s=5.0),
        failover=FailoverPolicy(link=OpticalLink(route=ROUTE_B)) if failover else None,
    )
    track = system.tracks[0]
    track.health.mark_down(env.now)
    if not failover:
        env.timeout(60.0).callbacks.append(lambda _event: track.health.mark_up(env.now))
    dataset = synthetic_dataset(4 * 256 * TB, name="dead")
    api = DhlApi(system)
    if direction == "writeback":
        system.add_empty_carts(4)
        move = api.bulk_writeback(dataset)
    else:
        system.load_dataset(dataset)
        move = api.bulk_transfer(dataset)
    return env.run(until=move), system, tracer


class TestDegradedWriteback:
    def test_dead_track_fails_every_shard_over_to_the_network(self):
        report, system, tracer = dead_track_move("writeback", failover=True)
        assert report.shards_moved == 4
        assert report.bytes_delivered == pytest.approx(4 * 256 * TB)
        assert report.launches == 0  # nothing ever rode the tube
        assert system.metrics.value("count.failovers") == 4
        assert system.metrics.value("energy_j.network_failover") > 0
        # The optical path is occupied and released as for a transfer.
        gauge = system.metrics.gauge("occupancy.optical_failover")
        assert (gauge.value, gauge.peak) == (0.0, 4.0)
        _, _, transfer_tracer = dead_track_move("transfer", failover=True)
        assert tracer.counters == transfer_tracer.counters
        # The reservations on the claimed carts were undone.
        assert all(not cart.shards for cart in system.library.carts.values())
        assert system.library.stored_count == 4
        assert set(system.leaked_resources().values()) == {0}

    def test_without_failover_shards_wait_for_the_repair(self):
        report, system, _tracer = dead_track_move("writeback", failover=False)
        assert report.shards_moved == 4
        assert report.bytes_delivered == pytest.approx(4 * 256 * TB)
        assert report.end_s > 60.0
        assert system.metrics.value("count.open_deferrals") >= 4
        assert system.metrics.value("count.failovers") == 0
        for index in range(4):
            assert system.library.cart_holding("dead", index) is not None
        assert set(system.leaked_resources().values()) == {0}
