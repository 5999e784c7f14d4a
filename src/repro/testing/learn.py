"""Strategies and stateful fuzzing for the learned-control layer.

The strategies give property suites one vocabulary of "valid learning
task": joint actions, environment configurations whose construction
never raises, and policies across every family — so shrinking explores
behaviour, not input validation.

:class:`FleetEnvMachine` fuzzes :class:`~repro.learn.env.FleetEnv` the
way training uses it, plus all the ways training must *not* use it:
random legal steps interleaved with illegal ones (out-of-range action
indices, stepping a finished episode, premature reports) that must be
rejected with :class:`~repro.errors.ConfigurationError` and leave the
environment untouched.  After every rule it checks the gym contract —
monotone virtual time, normalised observations, finite non-positive
rewards — and at teardown drains the episode and runs the shared
:func:`~repro.testing.statemachine.drain_and_audit` on its fleet.  Like
the other machines it is usable directly, through
:func:`~repro.testing.statemachine.random_walk`, or as the derived
hypothesis :class:`FleetEnvStateMachine`.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from ..errors import ConfigurationError
from ..fleet.controlplane import default_scenario
from ..fleet.topology import DatasetCatalog, FleetSpec
from ..learn.env import ACTIONS, Action, EnvConfig, FleetEnv, N_ACTIONS
from ..learn.policies import FixedPolicy, TabularQ
from ..units import TB
from .statemachine import (
    assert_monotone,
    drain_and_audit,
    fuzz_rule,
    state_machine,
)


def actions() -> st.SearchStrategy[Action]:
    """Any joint action from the factored space."""
    return st.sampled_from(ACTIONS)


@st.composite
def env_configs(draw) -> EnvConfig:
    """A small synthetic-workload environment that runs in well under a
    second — the unit fuzzing and property suites iterate on."""
    scenario = default_scenario(
        policy=draw(st.sampled_from(("fcfs", "sjf", "edf"))),
        cache=draw(st.sampled_from(("lru", "lfu", "ttl"))),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        horizon_s=draw(st.floats(min_value=300.0, max_value=1200.0)),
        spec=FleetSpec(
            n_tracks=draw(st.integers(min_value=1, max_value=2)),
            racks_per_track=1,
            stations_per_rack=draw(st.integers(min_value=2, max_value=4)),
            cart_pool=draw(st.integers(min_value=6, max_value=10)),
        ),
        catalog=DatasetCatalog(
            n_datasets=draw(st.integers(min_value=4, max_value=12)),
            dataset_bytes=24 * TB,
        ),
    )
    return EnvConfig(
        scenario=scenario,
        epoch_s=draw(st.floats(min_value=30.0, max_value=240.0)),
        max_epochs=draw(st.integers(min_value=5, max_value=60)),
    )


@st.composite
def learn_policies(draw, n_actions: int = N_ACTIONS):
    """A fixed or tabular policy, validly constructed and seeded."""
    if draw(st.booleans()):
        return FixedPolicy(draw(st.integers(min_value=0,
                                            max_value=n_actions - 1)))
    return TabularQ(
        epsilon=draw(st.floats(min_value=0.0, max_value=1.0)),
        alpha=draw(st.floats(min_value=0.05, max_value=1.0)),
        gamma=draw(st.floats(min_value=0.0, max_value=0.99)),
        bins=draw(st.integers(min_value=1, max_value=6)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


#: The machine's fixed fuzz task: small, fast, cache-enabled.
def _fuzz_config(seed: int) -> EnvConfig:
    return EnvConfig(
        scenario=default_scenario(
            policy="edf",
            cache="lru",
            seed=seed,
            horizon_s=1800.0,
            spec=FleetSpec(n_tracks=2, racks_per_track=1,
                           stations_per_rack=2, cart_pool=6),
            catalog=DatasetCatalog(n_datasets=8, dataset_bytes=24 * TB),
        ),
        epoch_s=60.0,
        max_epochs=200,
    )


class FleetEnvMachine:
    """Legal/illegal step fuzzing of the gym-on-DES environment.

    ``do_step`` advances one epoch under a random action;
    ``do_illegal_*`` rules fire the misuse paths (bad action index,
    stepping after done, premature report) and assert both the raised
    :class:`~repro.errors.ConfigurationError` *and* that the
    environment's clock, epoch counter and observation are untouched
    by the rejected call.
    """

    def __init__(self, seed: int = 0):
        self.config = _fuzz_config(seed)
        self.env = FleetEnv(self.config, seed=seed)
        self.obs = self.env.reset()
        self.n_obs = len(self.obs)
        self.rules = 0
        self.steps = 0
        self.rejected = 0
        self.total_reward = 0.0
        self.done = False
        self._last_now = self.env.sim.now

    # -- rules -------------------------------------------------------------------

    @fuzz_rule(action_index=st.integers(min_value=0, max_value=N_ACTIONS - 1))
    def do_step(self, action_index: int) -> None:
        self.rules += 1
        if self.done:
            self._step_after_done(action_index)
            return
        obs, reward, done, info = self.env.step(action_index % N_ACTIONS)
        self.obs = obs
        self.total_reward += reward
        self.steps += 1
        self.done = done
        assert math.isfinite(reward) and reward <= 0.0, (
            f"reward must be finite and non-positive, got {reward}"
        )
        assert info["epoch"] == self.env.epoch

    @fuzz_rule(offset=st.integers(min_value=-100, max_value=100))
    def do_illegal_action(self, offset: int) -> None:
        """Out-of-range indices are rejected without side effects."""
        self.rules += 1
        bad = N_ACTIONS + (offset % 50) if offset >= 0 else -1 - (-offset % 50)
        before = (self.env.sim.now, self.env.epoch, self.env.observe())
        self._rejects(lambda: self.env.step(bad), f"action index {bad}")
        assert before == (self.env.sim.now, self.env.epoch,
                          self.env.observe()), (
            "rejected action mutated the environment"
        )

    def do_illegal_step_after_done(self, action_index: int) -> None:
        """A finished episode refuses further steps."""
        self.rules += 1
        if self.done:
            self._step_after_done(action_index)

    def _step_after_done(self, action_index: int) -> None:
        self._rejects(lambda: self.env.step(action_index % N_ACTIONS),
                      "stepping a finished episode")

    @fuzz_rule()
    def do_premature_report(self) -> None:
        """``report()`` before the episode drains is a usage error."""
        self.rules += 1
        if not self.done:
            self._rejects(self.env.report, "report() before done")

    def _rejects(self, call, what: str) -> None:
        """``call()`` must raise :class:`ConfigurationError`."""
        try:
            call()
        except ConfigurationError:
            self.rejected += 1
        else:  # pragma: no cover - the failure the fuzz exists to catch
            raise AssertionError(f"{what} was accepted")

    def step(self, rng: np.random.Generator) -> None:
        """One random rule — the deterministic-walk driver's unit."""
        roll = rng.random()
        if roll < 0.70:
            self.do_step(int(rng.integers(0, N_ACTIONS)))
        elif roll < 0.85:
            self.do_illegal_action(int(rng.integers(-100, 100)))
        elif roll < 0.95:
            self.do_premature_report()
        else:
            self.do_illegal_step_after_done(int(rng.integers(0, N_ACTIONS)))

    # -- invariants --------------------------------------------------------------

    def check(self) -> None:
        self._last_now = assert_monotone(self.env.sim.now, self._last_now)
        obs = self.env.observe()
        assert len(obs) == self.n_obs == len(self.env.obs_names()), (
            f"observation dimensionality drifted: {len(obs)}"
        )
        for name, value in zip(self.env.obs_names(), obs):
            assert 0.0 <= value <= 1.0 and math.isfinite(value), (
                f"observation {name} outside [0, 1]: {value}"
            )
        plane = self.env.plane
        assert plane._resolved <= plane._submitted, (
            f"{plane._resolved} resolved of {plane._submitted} submitted"
        )

    def finish(self) -> None:
        """Drain the episode, then audit the fleet end to end."""
        while not self.done:
            self.do_step(0)
            self.check()
        report = self.env.report()
        plane = self.env.plane
        assert report.n_jobs == plane._resolved
        # No settling run: the episode's clock stops at its last epoch
        # boundary, which the pinned walks replay.
        drain_and_audit(plane, plane._submitted, self.check, settle_s=0.0)


FleetEnvStateMachine = state_machine(FleetEnvMachine)
