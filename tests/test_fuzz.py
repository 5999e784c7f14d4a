"""Stateful API/fleet fuzzing under chaos, plus the outcome-enum gate.

The acceptance bar for the chaos PR: >= 500 random rules against each
machine with an *active* fault campaign and zero invariant violations,
replayed deterministically (no hypothesis example database involved).
The hypothesis wrappers run shorter shrinkable sequences on top; the
``long_fuzz``-marked soak is opt-in via ``REPRO_LONG_FUZZ=1``.
"""

import os
import re
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from repro.testing import (
    DhlApiMachine,
    DhlApiStateMachine,
    FleetDispatchMachine,
    FleetStateMachine,
    ShardCosimMachine,
    ShardCosimStateMachine,
    TraceReplayMachine,
    TraceReplayStateMachine,
    random_walk,
)

FUZZ_SETTINGS = settings(
    max_examples=10, stateful_step_count=15, deadline=None, derandomize=True
)


class TestOutcomeEnumGate:
    """Satellite gate: the control plane spells outcomes via the shared
    :class:`~repro.fleet.sla.Outcome` enum, never raw string literals."""

    def test_controlplane_has_no_raw_outcome_literals(self):
        import repro.fleet.controlplane as controlplane

        source = Path(controlplane.__file__).read_text()
        raw = re.findall(r'["\'](?:served|failover|shed|failed)["\']', source)
        assert raw == [], (
            f"raw outcome string literals in controlplane: {raw}; "
            "use repro.fleet.sla.Outcome members"
        )
        assert "Outcome." in source

    def test_enum_is_defined_exactly_once(self):
        from repro.fleet.sla import Outcome

        assert [member.value for member in Outcome] == [
            "served", "failover", "shed", "failed",
        ]
        # StrEnum semantics: members serialise as their string values,
        # so committed baselines and JSON payloads are unaffected.
        assert Outcome.SERVED == "served"
        assert f"{Outcome.SHED}" == "shed"


class TestDeterministicWalks:
    """The CI gate: pinned >= 500-rule walks, chaos verifiably active."""

    def test_api_machine_survives_500_rules_under_chaos(self):
        machine = random_walk(DhlApiMachine(seed=0), n_rules=500, seed=0)
        assert machine.rules >= 500
        # The campaign genuinely fired: scheduled faults were applied
        # and at least one operation failed under them.
        assert machine.runner.log.entries
        assert machine.runner.log.outages_applied >= 1
        assert machine.failures >= 1
        assert machine.bytes_read > 0

    def test_fleet_machine_survives_500_rules_under_chaos(self):
        machine = random_walk(FleetDispatchMachine(seed=0), n_rules=500, seed=0)
        assert machine.rules >= 500
        assert machine.submitted > 0
        assert len(machine.plane.sla.records) == machine.submitted
        assert machine.plane._campaign.log.outages_applied >= 1
        # The breakers actually worked during the storm.
        trips = sum(
            monitor.breaker.trips
            for monitor in machine.plane.monitors.values()
        )
        assert trips >= 1
        diverted = sum(
            monitor.diverted for monitor in machine.plane.monitors.values()
        )
        assert diverted >= 1

    def test_api_walk_replays_bit_identically(self):
        def run_once():
            machine = random_walk(DhlApiMachine(seed=3), n_rules=120, seed=7)
            return (
                machine.env.now,
                machine.rules,
                machine.failures,
                machine.bytes_read,
                tuple(machine.runner.log.entries),
            )

        assert run_once() == run_once()

    def test_fleet_walk_replays_bit_identically(self):
        def run_once():
            machine = random_walk(
                FleetDispatchMachine(seed=11), n_rules=120, seed=13
            )
            return (
                machine.env.now,
                machine.submitted,
                tuple(
                    (record.job_id, str(record.outcome))
                    for record in machine.plane.sla.records
                ),
            )

        assert run_once() == run_once()

    def test_trace_replay_machine_survives_500_rules_under_chaos(self):
        machine = random_walk(TraceReplayMachine(seed=0), n_rules=500, seed=0)
        assert machine.rules >= 500
        assert machine.emitted
        # Everything emitted was injected and resolved; arrivals stayed
        # monotone and both codecs round-tripped (check() enforced both
        # after every rule).
        assert machine.injected == len(machine.emitted)
        assert machine.plane._resolved == machine.injected
        assert machine.plane._campaign.log.outages_applied >= 1

    def test_trace_replay_walk_replays_bit_identically(self):
        def run_once():
            machine = random_walk(
                TraceReplayMachine(seed=5), n_rules=120, seed=17
            )
            return (
                machine.env.now,
                machine.injected,
                machine._binary.getvalue(),
                tuple(
                    (record.job_id, str(record.outcome), record.tenant)
                    for record in machine.plane.sla.records
                ),
            )

        assert run_once() == run_once()

    def test_shard_machine_survives_reshard_walk(self):
        machine = random_walk(ShardCosimMachine(seed=0), n_rules=150, seed=0)
        assert machine.rules >= 150
        assert machine.runs >= 10
        # The walk genuinely resharded (several plan configurations ran)
        # and crossed pod boundaries under at least one chaos campaign.
        assert len(machine._signatures) >= 3
        assert machine.forwarded_total > 0
        assert machine.chaos_runs >= 1

    def test_shard_walk_replays_bit_identically(self):
        def run_once():
            machine = random_walk(
                ShardCosimMachine(seed=2), n_rules=60, seed=19
            )
            return (
                machine.runs,
                machine.forwarded_total,
                tuple(sorted(machine._signatures)),
                tuple(sorted(machine._workload_jobs.items())),
            )

        assert run_once() == run_once()

    def test_different_walk_seeds_diverge(self):
        first = random_walk(DhlApiMachine(seed=0), n_rules=60, seed=0)
        second = random_walk(DhlApiMachine(seed=0), n_rules=60, seed=1)
        assert first.env.now != second.env.now


class TestHypothesisMachines:
    """Shrinkable rule sequences through the same machines."""

    def test_api_state_machine(self):
        run_state_machine_as_test(DhlApiStateMachine, settings=FUZZ_SETTINGS)

    def test_fleet_state_machine(self):
        run_state_machine_as_test(FleetStateMachine, settings=FUZZ_SETTINGS)

    def test_trace_replay_state_machine(self):
        run_state_machine_as_test(
            TraceReplayStateMachine, settings=FUZZ_SETTINGS
        )

    def test_shard_cosim_state_machine(self):
        run_state_machine_as_test(
            ShardCosimStateMachine, settings=FUZZ_SETTINGS
        )


@pytest.mark.long_fuzz
@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_LONG_FUZZ") != "1",
    reason="nightly soak; set REPRO_LONG_FUZZ=1 to run",
)
class TestLongFuzz:
    """The nightly soak: longer walks over several machine seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_api_machine_long_walk(self, seed):
        machine = random_walk(
            DhlApiMachine(seed=seed), n_rules=2000, seed=seed
        )
        assert machine.rules >= 2000

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fleet_machine_long_walk(self, seed):
        machine = random_walk(
            FleetDispatchMachine(seed=seed), n_rules=1500, seed=seed
        )
        assert len(machine.plane.sla.records) == machine.submitted

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shard_machine_long_walk(self, seed):
        machine = random_walk(
            ShardCosimMachine(seed=seed), n_rules=400, seed=seed
        )
        assert machine.runs >= 50
        assert machine.forwarded_total > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_replay_machine_long_walk(self, seed):
        machine = random_walk(
            TraceReplayMachine(seed=seed), n_rules=1500, seed=seed
        )
        assert machine.plane._resolved == machine.injected == len(
            machine.emitted
        )
