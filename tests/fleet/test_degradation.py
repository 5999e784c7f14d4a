"""End-to-end degradation behaviour: rehoming and the hardened/naive gap."""

import pytest

from repro.chaos.campaigns import CACHE_NODE_LOSS, CampaignEvent, ChaosCampaign
from repro.chaos.bench import chaos_scenario
from repro.errors import ConfigurationError
from repro.fleet.controlplane import default_scenario, run_fleet
from repro.fleet.health import DegradationPolicy
from repro.testing import FleetDispatchMachine


class TestCacheRehoming:
    def loss_machine(self, at_s=600.0):
        campaign = ChaosCampaign(
            name="cache-loss",
            events=(CampaignEvent(CACHE_NODE_LOSS, at_s=at_s, track=1),),
        )
        scenario = default_scenario(
            policy="edf", cache="lru", seed=0,
            chaos=campaign, degradation=DegradationPolicy(),
        )
        return FleetDispatchMachine(scenario=scenario)

    def test_idle_resident_rehomes_after_cache_node_loss(self):
        machine = self.loss_machine(at_s=600.0)
        dataset = next(
            name for name in machine.datasets
            if machine.topology.home(name).track_index == 1
        )
        machine.do_dispatch(0, machine.datasets.index(dataset), 0.5)
        while len(machine.plane.sla.records) < 1:
            machine.do_advance(60.0)
            machine.check()
        lane = machine.plane.lane_for(dataset)
        entry = lane.cache.lookup(dataset)
        assert entry is not None and entry.idle
        held_before = machine.topology.cart_pool.count
        assert held_before == 1  # the resident cart's pool token

        # Cross the t=600 loss, then give the eviction shuttle time to land.
        machine.do_advance(700.0)
        machine.do_advance(600.0)
        machine.check()
        assert lane.cache.rehomed == 1
        assert lane.cache.lookup(dataset) is None
        assert machine.topology.cart_pool.count == 0
        machine.finish()

    def test_busy_residents_survive_the_loss(self):
        # A loss landing while the only resident is mid-read must leave
        # the entry in place: its worker already owns the resources.
        machine = self.loss_machine(at_s=30.0)
        dataset = next(
            name for name in machine.datasets
            if machine.topology.home(name).track_index == 1
        )
        machine.do_dispatch(0, machine.datasets.index(dataset), 1.0)
        machine.do_advance(200.0)  # loss fires during fetch/first serve
        machine.check()
        assert machine.plane._campaign.log.cache_nodes_lost == 1
        machine.finish()
        # The job still resolved exactly once; nothing leaked (finish
        # audits pool-token and per-system leak conservation).
        assert len(machine.plane.sla.records) == 1


class TestHardenedVersusNaive:
    @pytest.fixture(scope="class")
    def runs(self):
        return (
            run_fleet(chaos_scenario("naive", seed=0)),
            run_fleet(chaos_scenario("hardened", seed=0)),
        )

    def test_degradation_machinery_actually_engages(self, runs):
        _naive, hardened = runs
        assert hardened.breaker_trips >= 1
        assert hardened.diverted > 0
        assert hardened.failovers > 0
        assert hardened.lane_health != ()
        states = {row["state"] for row in hardened.lane_health}
        assert states <= {"closed", "open", "half_open"}

    def test_hardened_beats_naive_on_tail_and_misses(self, runs):
        naive, hardened = runs
        assert hardened.p99_s < naive.p99_s
        assert hardened.deadline_miss_rate < naive.deadline_miss_rate

    def test_shedding_respects_the_sla_ladder(self, runs):
        _naive, hardened = runs
        # Only the policy's shed classes may be shed; everything else is
        # failed over or served.
        assert hardened.shed >= 0
        assert hardened.served + hardened.failovers > hardened.shed

    def test_naive_run_has_no_lane_health_to_report(self, runs):
        from repro.analysis.fleetview import lane_health_table

        naive, hardened = runs
        with pytest.raises(ConfigurationError, match="no degradation"):
            lane_health_table(naive)
        headers, rows = lane_health_table(hardened)
        assert headers[0] == "Lane"
        assert len(rows) == len(hardened.lane_health)
