"""The shared fuzz contract: derived hypothesis wrappers and the end-of-run
fleet audit."""

import pytest

from repro.fleet.sla import Outcome
from repro.testing import (
    DhlApiStateMachine,
    FleetDispatchMachine,
    FleetStateMachine,
    ShardCosimStateMachine,
    TraceReplayStateMachine,
    random_walk,
)
from repro.testing.statemachine import drain_and_audit


class TestDerivedWrappers:
    @pytest.mark.parametrize("wrapper,rules", [
        (DhlApiStateMachine,
         {"do_open", "do_read", "do_write", "do_close", "do_advance"}),
        (FleetStateMachine, {"do_dispatch", "do_advance"}),
        (ShardCosimStateMachine,
         {"do_reshard", "do_toggle_chaos", "do_reseed", "do_run"}),
        (TraceReplayStateMachine, {"do_emit", "do_advance"}),
    ])
    def test_each_declared_rule_becomes_one_hypothesis_rule(self, wrapper,
                                                            rules):
        state = wrapper.setup_state()
        assert {rule.function.__name__ for rule in state.rules} == rules
        assert len(state.invariants) == 1


class TestFleetAudit:
    @pytest.fixture
    def drained(self):
        machine = random_walk(FleetDispatchMachine(seed=0), n_rules=40,
                              seed=0)
        assert machine.submitted > 0
        return machine

    def test_a_drained_fleet_passes(self, drained):
        drain_and_audit(drained.plane, drained.submitted, drained.check)

    def test_a_hand_held_cart_pool_token_fails(self, drained):
        token = drained.plane.topology.cart_pool.request()
        assert token.triggered
        with pytest.raises(AssertionError, match="cart-pool tokens held"):
            drain_and_audit(drained.plane, drained.submitted, drained.check)

    def test_an_outcome_count_off_by_one_fails(self, drained):
        drained.plane._counts[Outcome.SERVED] += 1
        with pytest.raises(AssertionError, match="outcome counts"):
            drain_and_audit(drained.plane, drained.submitted, drained.check)

    def test_a_lost_job_fails(self, drained):
        with pytest.raises(AssertionError, match="exactly once"):
            drain_and_audit(drained.plane, drained.submitted - 1,
                            drained.check)
